module J = Imageeye_util.Jsonout
module Jsonin = Imageeye_util.Jsonin
module Clock = Imageeye_util.Clock
module Scene_io = Imageeye_scene.Scene_io
module Scene = Imageeye_scene.Scene

type config = {
  endpoint : Server.endpoint;
  workers : Client.endpoint list;
  quiet : bool;
  max_line_bytes : int;
  read_timeout_s : float option;
  max_connections : int;
  worker_inflight : int;
  retry_dead_s : float;
}

let default_config =
  {
    endpoint = Server.Unix_socket "imageeye-router.sock";
    workers = [];
    quiet = false;
    max_line_bytes = Frame.default_limits.Frame.max_line_bytes;
    read_timeout_s = Frame.default_limits.Frame.read_timeout_s;
    max_connections = 64;
    worker_inflight = 4;
    retry_dead_s = 2.0;
  }

let worker_name = function
  | Client.Unix_socket path -> Printf.sprintf "unix:%s" path
  | Client.Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* ---------- worker table ---------- *)

type worker = {
  w_endpoint : Client.endpoint;
  w_name : string;
  w_mutex : Mutex.t;
  w_freed : Condition.t;
  mutable w_inflight : int;
  mutable w_dead_since : Clock.counter option;  (* None = believed live *)
}

type state = {
  config : config;
  ring : Ring.t;
  workers : (string, worker) Hashtbl.t;  (* name -> worker; fixed after init *)
  metrics : Metrics.t;
  stop : bool Atomic.t;
  sessions_mutex : Mutex.t;
  sessions : (int, worker * int) Hashtbl.t;  (* router sid -> (worker, worker sid) *)
  mutable next_session : int;
  conns_mutex : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable reader_count : int;
  readers_done : Condition.t;
}

let logf state fmt =
  Printf.ksprintf
    (fun msg -> if not state.config.quiet then Printf.eprintf "imageeye-router: %s\n%!" msg)
    fmt

(* Bounded per-worker admission: the caller blocks (backpressure) rather
   than queueing unboundedly in front of a busy worker. *)
let with_worker_slot state w f =
  Mutex.lock w.w_mutex;
  while w.w_inflight >= state.config.worker_inflight do
    Condition.wait w.w_freed w.w_mutex
  done;
  w.w_inflight <- w.w_inflight + 1;
  Mutex.unlock w.w_mutex;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock w.w_mutex;
      w.w_inflight <- w.w_inflight - 1;
      Condition.signal w.w_freed;
      Mutex.unlock w.w_mutex)
    f

(* Every loss (re-)arms the timer, a failed re-probe included: keeping
   the first loss's time would let every request through once the first
   window had passed. *)
let mark_dead w =
  Mutex.lock w.w_mutex;
  w.w_dead_since <- Some (Clock.counter ());
  Mutex.unlock w.w_mutex

let mark_live w =
  Mutex.lock w.w_mutex;
  w.w_dead_since <- None;
  Mutex.unlock w.w_mutex

(* A dead worker is skipped until [retry_dead_s] has passed, then one
   request probes it (and either revives it or re-arms the timer). *)
let attempt_allowed state w =
  Mutex.lock w.w_mutex;
  let allowed =
    match w.w_dead_since with
    | None -> true
    | Some since -> Clock.elapsed_s since >= state.config.retry_dead_s
  in
  Mutex.unlock w.w_mutex;
  allowed

(* How long the router waits on a worker before it asks whether the
   worker is alive, and how long that question may take. *)
let liveness_check_s = 1.0

(* One rpc on a fresh connection, bounded by [liveness_check_s]: a live
   daemon's reader answers [ping], [metrics] and [shutdown] at once,
   whatever its job queue holds. *)
let quick_rpc w request =
  match Client.connect w.w_endpoint with
  | exception _ -> Error "connect failed"
  | c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> Client.rpc ~deadline:(Clock.now () +. liveness_check_s) c request)

(* One connection per forwarded request: worker responses can never be
   interleaved across router threads, and a broken worker surfaces as a
   connect/rpc error right here.  The answer may take as long as the
   worker needs: its queue and the request's [timeout_s] are the
   worker's to enforce.  But every [liveness_check_s] without an answer
   the worker must answer a ping, so one that accepts and never answers
   is lost after about twice that instead of pinning this thread. *)
let forward state w ~raw =
  with_worker_slot state w (fun () ->
      match Client.connect w.w_endpoint with
      | exception _ -> Error "connect failed"
      | c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let rec await read =
                let deadline = Clock.now () +. liveness_check_s in
                match read ~deadline with
                | Ok resp ->
                    mark_live w;
                    Ok resp
                | Error msg when Clock.now () < deadline -> Error msg
                | Error _ ->
                    if Result.is_ok (quick_rpc w Protocol.Ping) then
                      await (fun ~deadline -> Client.read_response ~deadline c)
                    else Error "no answer, and no answer to a ping"
              in
              await (fun ~deadline -> Client.rpc_raw ~deadline c raw)))

(* Walk the ring's failover order; every skipped or failed candidate is
   a counted [worker-lost] fault (the degradation the operator sees). *)
let rec route state ~raw = function
  | [] -> None
  | name :: rest -> (
      let w = Hashtbl.find state.workers name in
      if not (attempt_allowed state w) then begin
        Metrics.record_fault state.metrics "worker-lost";
        route state ~raw rest
      end
      else
        match forward state w ~raw with
        | Ok resp -> Some (w, resp)
        | Error msg ->
            mark_dead w;
            Metrics.record_fault state.metrics "worker-lost";
            logf state "worker %s lost (%s); re-hashing to survivors" w.w_name msg;
            route state ~raw rest)

(* ---------- request handling ---------- *)

let scenes_key scenes =
  String.concat "\x00" (List.map Scene_io.to_string scenes)

let replace_field key v = function
  | J.Obj fields -> J.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
  | other -> other

let no_workers_error ~id =
  Protocol.error_response
    (Protocol.make_error ~id ~code:"worker-lost"
       ~message:"no live worker available for this request")

let find_session state sid =
  Mutex.lock state.sessions_mutex;
  let entry = Hashtbl.find_opt state.sessions sid in
  Mutex.unlock state.sessions_mutex;
  entry

let aggregate_metrics state =
  let sessions_open =
    Mutex.lock state.sessions_mutex;
    let n = Hashtbl.length state.sessions in
    Mutex.unlock state.sessions_mutex;
    n
  in
  let connections_open =
    Mutex.lock state.conns_mutex;
    let n = List.length state.conns in
    Mutex.unlock state.conns_mutex;
    n
  in
  let own =
    Metrics.snapshot state.metrics ~queue_depth:0 ~sessions_open ~connections_open
  in
  let per_worker =
    Ring.workers state.ring
    |> List.map (fun name ->
           let w = Hashtbl.find state.workers name in
           match quick_rpc w Protocol.Metrics with
           | Ok resp when Client.is_ok resp ->
               mark_live w;
               ( name,
                 Option.value (Jsonin.member "metrics" resp) ~default:J.Null )
           | Ok resp -> (name, replace_field "id" J.Null resp)
           | Error msg ->
               mark_dead w;
               (name, J.Obj [ ("error", J.Str msg) ]))
  in
  let live =
    List.length
      (List.filter
         (fun name ->
           let w = Hashtbl.find state.workers name in
           Mutex.lock w.w_mutex;
           let alive = w.w_dead_since = None in
           Mutex.unlock w.w_mutex;
           alive)
         (Ring.workers state.ring))
  in
  J.Obj
    [
      ("router", own);
      ("workers_total", J.Int (List.length (Ring.workers state.ring)));
      ("workers_live", J.Int live);
      ("workers", J.Obj per_worker);
    ]

let broadcast_shutdown state =
  Ring.workers state.ring
  |> List.iter (fun name ->
         ignore (quick_rpc (Hashtbl.find state.workers name) Protocol.Shutdown))

(* Forward on the routing key, verbatim. *)
let handle_keyed state ~id ~op ~key ~raw ~started =
  match route state ~raw (Ring.successors state.ring key) with
  | None ->
      Metrics.record state.metrics ~op ~outcome:"error" ~latency_s:(Clock.elapsed_s started) ();
      no_workers_error ~id
  | Some (_, resp) ->
      let outcome = if Client.is_ok resp then "ok" else "error" in
      Metrics.record state.metrics ~op ~outcome ~latency_s:(Clock.elapsed_s started) ();
      resp

let handle_session_open state ~id ~task_id ~images ~seed ~raw ~started =
  let key =
    Printf.sprintf "task:%d:%d:%d" task_id (Option.value images ~default:(-1)) seed
  in
  match route state ~raw (Ring.successors state.ring key) with
  | None ->
      Metrics.record state.metrics ~op:"session-open" ~outcome:"error"
        ~latency_s:(Clock.elapsed_s started) ();
      no_workers_error ~id
  | Some (w, resp) ->
      let resp =
        match Jsonin.member "session" resp with
        | Some (J.Int worker_sid) when Client.is_ok resp ->
            Mutex.lock state.sessions_mutex;
            let sid = state.next_session in
            state.next_session <- sid + 1;
            Hashtbl.replace state.sessions sid (w, worker_sid);
            Mutex.unlock state.sessions_mutex;
            replace_field "session" (J.Int sid) resp
        | _ -> resp
      in
      let outcome = if Client.is_ok resp then "ok" else "error" in
      Metrics.record state.metrics ~op:"session-open" ~outcome
        ~latency_s:(Clock.elapsed_s started) ();
      resp

(* Session ops are pinned: no re-hash (the session state lives on that
   worker and nowhere else), so a lost worker is a structured error. *)
let handle_pinned_session state ~id ~op ~sid ~request ~started =
  match find_session state sid with
  | None ->
      Metrics.record state.metrics ~op ~outcome:"error" ~latency_s:(Clock.elapsed_s started) ();
      Protocol.error_response
        (Protocol.make_error ~id ~code:"no-session"
           ~message:(Printf.sprintf "no open session %d" sid))
  | Some (w, _worker_sid) -> (
      let raw = J.to_line (Protocol.to_json ~id request) in
      match forward state w ~raw with
      | Error msg ->
          mark_dead w;
          Metrics.record_fault state.metrics "worker-lost";
          Mutex.lock state.sessions_mutex;
          Hashtbl.remove state.sessions sid;
          Mutex.unlock state.sessions_mutex;
          Metrics.record state.metrics ~op ~outcome:"error"
            ~latency_s:(Clock.elapsed_s started) ();
          Protocol.error_response
            (Protocol.make_error ~id ~code:"worker-lost"
               ~message:
                 (Printf.sprintf "worker %s holding session %d is gone (%s)" w.w_name sid msg))
      | Ok resp ->
          mark_live w;
          if op = "session-close" then begin
            Mutex.lock state.sessions_mutex;
            Hashtbl.remove state.sessions sid;
            Mutex.unlock state.sessions_mutex
          end;
          let outcome = if Client.is_ok resp then "ok" else "error" in
          Metrics.record state.metrics ~op ~outcome ~latency_s:(Clock.elapsed_s started) ();
          replace_field "session" (J.Int sid) resp)

let rewrite_session state ~id ~op ~sid ~request ~started =
  match find_session state sid with
  | None ->
      Metrics.record state.metrics ~op ~outcome:"error" ~latency_s:(Clock.elapsed_s started) ();
      Protocol.error_response
        (Protocol.make_error ~id ~code:"no-session"
           ~message:(Printf.sprintf "no open session %d" sid))
  | Some (_, worker_sid) ->
      handle_pinned_session state ~id ~op ~sid ~request:(request worker_sid) ~started

let handle_line state line =
  let started = Clock.counter () in
  match Protocol.of_line line with
  | Error err ->
      Metrics.record state.metrics ~op:"invalid" ~outcome:err.Protocol.code
        ~latency_s:(Clock.elapsed_s started) ();
      Protocol.error_response err
  | Ok { id; request } -> (
      match request with
      | Protocol.Ping ->
          Metrics.record state.metrics ~op:"ping" ~outcome:"ok"
            ~latency_s:(Clock.elapsed_s started) ();
          Protocol.ok ~id ~op:"ping" [ ("pong", J.Bool true); ("router", J.Bool true) ]
      | Protocol.Metrics ->
          let aggregated = aggregate_metrics state in
          Metrics.record state.metrics ~op:"metrics" ~outcome:"ok"
            ~latency_s:(Clock.elapsed_s started) ();
          Protocol.ok ~id ~op:"metrics" [ ("metrics", aggregated) ]
      | Protocol.Shutdown ->
          broadcast_shutdown state;
          Atomic.set state.stop true;
          Metrics.record state.metrics ~op:"shutdown" ~outcome:"ok"
            ~latency_s:(Clock.elapsed_s started) ();
          Protocol.ok ~id ~op:"shutdown" [ ("draining", J.Bool true) ]
      | Protocol.Synthesize { scenes; _ } ->
          handle_keyed state ~id ~op:"synthesize" ~key:(scenes_key scenes) ~raw:line ~started
      | Protocol.Apply { scenes; _ } ->
          handle_keyed state ~id ~op:"apply" ~key:(scenes_key scenes) ~raw:line ~started
      | Protocol.Stream_apply { domain; seed; frames; _ } ->
          (* No scene payload to key on: route by corpus identity so
             repeats of the same stream land on the same worker. *)
          let key =
            Printf.sprintf "stream\x00%s\x00%d\x00%d"
              (Imageeye_scene.Dataset.domain_name domain)
              seed frames
          in
          handle_keyed state ~id ~op:"stream-apply" ~key ~raw:line ~started
      | Protocol.Session_open { task_id; images; seed } ->
          handle_session_open state ~id ~task_id ~images ~seed ~raw:line ~started
      | Protocol.Session_round { session; timeout_s } ->
          let request sid = Protocol.Session_round { session = sid; timeout_s } in
          rewrite_session state ~id ~op:"session-round" ~sid:session ~request ~started
      | Protocol.Session_close { session } ->
          let request sid = Protocol.Session_close { session = sid } in
          rewrite_session state ~id ~op:"session-close" ~sid:session ~request ~started)

(* ---------- lifecycle ---------- *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let reader state fd peer () =
  let limits =
    {
      Frame.max_line_bytes = state.config.max_line_bytes;
      read_timeout_s = state.config.read_timeout_s;
    }
  in
  let frame = Frame.create ~limits fd in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock state.conns_mutex;
      state.conns <- List.filter (fun c -> c != fd) state.conns;
      state.reader_count <- state.reader_count - 1;
      if state.reader_count = 0 then Condition.broadcast state.readers_done;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.unlock state.conns_mutex;
      logf state "disconnected %s" peer)
    (fun () ->
      let send json =
        let line = J.to_line json ^ "\n" in
        try write_all fd line 0 (String.length line)
        with Unix.Unix_error _ | Sys_error _ -> Metrics.record_dropped state.metrics
      in
      let fault ~code ~message =
        send (Protocol.error_response (Protocol.make_error ~id:J.Null ~code ~message));
        Metrics.record_fault state.metrics code
      in
      let rec loop () =
        match Frame.read_line frame with
        | Ok line ->
            if String.trim line <> "" then send (handle_line state line);
            loop ()
        | Error Frame.Eof | Error (Frame.Io_error _) -> ()
        | Error (Frame.Line_too_long n) ->
            fault ~code:"line-too-long"
              ~message:
                (Printf.sprintf "request line exceeds %d bytes (%d buffered)"
                   state.config.max_line_bytes n)
        | Error Frame.Read_timeout ->
            fault ~code:"read-timeout"
              ~message:"no complete request line within the read deadline"
      in
      try loop ()
      with e ->
        Metrics.record_fault state.metrics "reader-exception";
        logf state "reader error on %s: %s" peer (Printexc.to_string e))

let run (config : config) =
  if config.workers = [] then failwith "router needs at least one --worker";
  let names = List.map worker_name config.workers in
  let state =
    {
      config;
      ring = Ring.create names;
      workers = Hashtbl.create 8;
      metrics = Metrics.create ();
      stop = Atomic.make false;
      sessions_mutex = Mutex.create ();
      sessions = Hashtbl.create 8;
      next_session = 1;
      conns_mutex = Mutex.create ();
      conns = [];
      reader_count = 0;
      readers_done = Condition.create ();
    }
  in
  List.iter2
    (fun endpoint name ->
      if not (Hashtbl.mem state.workers name) then
        Hashtbl.replace state.workers name
          {
            w_endpoint = endpoint;
            w_name = name;
            w_mutex = Mutex.create ();
            w_freed = Condition.create ();
            w_inflight = 0;
            w_dead_since = None;
          })
    config.workers names;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let drain = Sys.Signal_handle (fun _ -> Atomic.set state.stop true) in
  Sys.set_signal Sys.sigterm drain;
  Sys.set_signal Sys.sigint drain;
  let listen_fd = Server.bind_endpoint config.endpoint in
  logf state "routing %d worker(s): %s" (List.length (Ring.workers state.ring))
    (String.concat ", " (Ring.workers state.ring));
  while not (Atomic.get state.stop) do
    match Unix.select [ listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept listen_fd with
        | fd, addr ->
            let peer =
              match addr with
              | Unix.ADDR_UNIX _ -> "unix-peer"
              | Unix.ADDR_INET (host, port) ->
                  Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
            in
            Mutex.lock state.conns_mutex;
            if List.length state.conns < config.max_connections then begin
              state.conns <- fd :: state.conns;
              state.reader_count <- state.reader_count + 1;
              ignore (Thread.create (reader state fd peer) () : Thread.t);
              Mutex.unlock state.conns_mutex
            end
            else begin
              Mutex.unlock state.conns_mutex;
              let line =
                J.to_line
                  (Protocol.error_response
                     (Protocol.make_error ~id:J.Null ~code:"overloaded"
                        ~message:
                          (Printf.sprintf "connection limit (%d) reached"
                             config.max_connections)))
                ^ "\n"
              in
              (try write_all fd line 0 (String.length line)
               with Unix.Unix_error _ | Sys_error _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Metrics.record_fault state.metrics "overloaded"
            end
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  logf state "draining";
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match config.endpoint with
  | Server.Unix_socket path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Server.Tcp _ -> ());
  Mutex.lock state.conns_mutex;
  let open_conns = state.conns in
  Mutex.unlock state.conns_mutex;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    open_conns;
  Mutex.lock state.conns_mutex;
  while state.reader_count > 0 do
    Condition.wait state.readers_done state.conns_mutex
  done;
  Mutex.unlock state.conns_mutex;
  Printf.eprintf "imageeye-router: final metrics\n%s%!"
    (J.to_string
       (Metrics.snapshot state.metrics ~queue_depth:0 ~sessions_open:0 ~connections_open:0))
