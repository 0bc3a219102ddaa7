module J = Imageeye_util.Jsonout
module Jsonin = Imageeye_util.Jsonin

type endpoint = Unix_socket of string | Tcp of string * int

type t = { fd : Unix.file_descr; frame : Frame.t; mutable next_id : int }

let connect ?limits endpoint =
  let fd, addr =
    match endpoint with
    | Unix_socket path -> (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
        ( Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
          Unix.ADDR_INET (Unix.inet_addr_of_string host, port) )
  in
  (match Unix.connect fd addr with
  | () -> ()
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
  { fd; frame = Frame.create ?limits fd; next_id = 1 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Transient connect failures: the daemon is starting up, draining this
   endpoint, or momentarily over its accept backlog. *)
let transient = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EAGAIN | Unix.EINTR
  | Unix.ETIMEDOUT ->
      true
  | _ -> false

let connect_retry ?(attempts = 8) ?(backoff_s = 0.05) ?(max_backoff_s = 2.0) ?limits
    endpoint =
  (* Deterministically seeded jitter: retries desynchronize without the
     client's behavior varying run to run. *)
  let rng = Imageeye_util.Rng.create 0x1e57c0de in
  let rec go attempt =
    match connect ?limits endpoint with
    | c -> c
    | exception (Unix.Unix_error (e, _, _) as exn) ->
        if attempt >= attempts || not (transient e) then raise exn
        else begin
          let cap = Float.min max_backoff_s (backoff_s *. (2.0 ** float_of_int (attempt - 1))) in
          (* Half fixed, half jittered: bounded above by [cap], never 0. *)
          Thread.delay ((cap /. 2.0) +. Imageeye_util.Rng.float rng (cap /. 2.0));
          go (attempt + 1)
        end
  in
  go 1

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let send_line t json =
  let line = J.to_line json ^ "\n" in
  match write_all t.fd line 0 (String.length line) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "write failed: %s" (Unix.error_message e))

(* The response path mirrors the daemon's reader: a bounded framer over
   the raw descriptor instead of a bare [input_line], so a misbehaving
   server (or router) answering with an endless newline-free line, or
   dripping bytes mid-response, costs at most the frame cap / deadline
   instead of the client's address space.  After an over-limit error the
   stream position is unknown, so callers should close the connection. *)
let read_response ?deadline t =
  match Frame.read_line ?deadline t.frame with
  | Ok line -> (
      match Jsonin.parse line with
      | Ok doc -> Ok doc
      | Error e -> Error (Printf.sprintf "malformed response: %s" (Jsonin.error_to_string e)))
  | Error Frame.Eof -> Error "connection closed by server"
  | Error err -> Error (Printf.sprintf "response %s" (Frame.error_to_string err))

let rpc_json t json =
  match send_line t json with Error _ as e -> e | Ok () -> read_response t

let rpc_raw ?deadline t raw =
  let line = if String.length raw > 0 && raw.[String.length raw - 1] = '\n' then raw else raw ^ "\n" in
  match write_all t.fd line 0 (String.length line) with
  | () -> read_response ?deadline t
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "write failed: %s" (Unix.error_message e))

let rpc ?deadline t request =
  let id = t.next_id in
  t.next_id <- id + 1;
  match
    Result.bind (send_line t (Protocol.to_json ~id:(J.Int id) request)) (fun () ->
        read_response ?deadline t)
  with
  | Error _ as e -> e
  | Ok response -> (
      match Jsonin.member "id" response with
      | Some (J.Int got) when got = id -> Ok response
      | Some other ->
          Error
            (Printf.sprintf "response id mismatch: sent %d, got %s" id (J.to_line other))
      | None -> Error "response carries no id")

let is_ok response = Jsonin.member "ok" response = Some (J.Bool true)
