module Clock = Imageeye_util.Clock

type limits = { max_line_bytes : int; read_timeout_s : float option }

let default_limits = { max_line_bytes = 16 * 1024 * 1024; read_timeout_s = Some 30.0 }

type error = Eof | Line_too_long of int | Read_timeout | Io_error of string

type t = {
  fd : Unix.file_descr;
  limits : limits;
  chunk : Bytes.t;
  mutable pending : string;  (* received, not yet returned *)
  mutable frame_started : Clock.counter option;
      (* set while [pending] holds a partial frame: the read deadline
         runs from a frame's first byte, so an idle-but-quiet keepalive
         connection is never killed, while a slow-loris drip (which must
         keep a frame open to do damage) is. *)
}

let create ?(limits = default_limits) fd =
  { fd; limits; chunk = Bytes.create 65536; pending = ""; frame_started = None }

let take_line t newline_at =
  let line = String.sub t.pending 0 newline_at in
  let rest_len = String.length t.pending - newline_at - 1 in
  t.pending <- String.sub t.pending (newline_at + 1) rest_len;
  (* Pipelined bytes beyond the newline already belong to the next
     frame: its clock starts now. *)
  t.frame_started <- (if rest_len = 0 then None else Some (Clock.counter ()));
  line

let rec read_line ?deadline t =
  match String.index_opt t.pending '\n' with
  | Some i when i <= t.limits.max_line_bytes -> Ok (take_line t i)
  | Some i -> Error (Line_too_long i)
  | None when String.length t.pending > t.limits.max_line_bytes ->
      Error (Line_too_long (String.length t.pending))
  | None -> (
      let timeout, deadline_active =
        match (t.limits.read_timeout_s, t.frame_started) with
        | None, _ | _, None -> (-1.0, false) (* no deadline, or idle between frames *)
        | Some budget, Some started -> (budget -. Clock.elapsed_s started, true)
      in
      (* A caller's deadline bounds the wait between frames too. *)
      let timeout, deadline_active =
        match deadline with
        | None -> (timeout, deadline_active)
        | Some d ->
            let left = d -. Clock.now () in
            ((if deadline_active then Float.min timeout left else left), true)
      in
      if deadline_active && timeout <= 0.0 then Error Read_timeout
      else
        match Unix.select [ t.fd ] [] [] timeout with
        (* Under a caller's deadline, re-check the clock: [Read_timeout]
           then means the deadline has passed, even if [select] rounded
           its wait down. *)
        | [], _, _ when deadline <> None -> read_line ?deadline t
        | [], _, _ -> Error Read_timeout
        | _ :: _, _, _ -> (
            match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
            | 0 -> Error Eof (* a trailing partial frame is dropped, as with EOF mid-line *)
            | n ->
                t.pending <- t.pending ^ Bytes.sub_string t.chunk 0 n;
                if t.frame_started = None then t.frame_started <- Some (Clock.counter ());
                read_line ?deadline t
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ?deadline t
            | exception Unix.Unix_error (e, _, _) -> Error (Io_error (Unix.error_message e))
            | exception Sys_error msg -> Error (Io_error msg))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ?deadline t
        | exception Unix.Unix_error (e, _, _) -> Error (Io_error (Unix.error_message e)))

let error_to_string = function
  | Eof -> "end of stream"
  | Line_too_long n -> Printf.sprintf "frame exceeds line limit (%d bytes buffered)" n
  | Read_timeout -> "read deadline exceeded"
  | Io_error msg -> Printf.sprintf "io error: %s" msg
