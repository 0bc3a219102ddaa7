module J = Imageeye_util.Jsonout
module Clock = Imageeye_util.Clock
module Domainpool = Imageeye_util.Domainpool
module Synthesizer = Imageeye_core.Synthesizer
module Edit = Imageeye_core.Edit
module Batch = Imageeye_vision.Batch
module Scene = Imageeye_scene.Scene
module Dataset = Imageeye_scene.Dataset
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task
module Session = Imageeye_interact.Session

type endpoint = Unix_socket of string | Tcp of int

type config = {
  endpoint : endpoint;
  jobs : int;
  default_timeout_s : float;
  max_rounds : int;
  quiet : bool;
  max_line_bytes : int;
  read_timeout_s : float option;
  max_connections : int;
}

let default_config =
  {
    endpoint = Unix_socket "imageeye.sock";
    jobs = 1;
    default_timeout_s = 120.0;
    max_rounds = 10;
    quiet = false;
    max_line_bytes = Frame.default_limits.Frame.max_line_bytes;
    read_timeout_s = Frame.default_limits.Frame.read_timeout_s;
    max_connections = 64;
  }

(* ---------- connections ---------- *)

type conn = {
  fd : Unix.file_descr;
  peer : string;
  write_mutex : Mutex.t;
  mutable alive : bool;  (* false once a write failed; guarded by write_mutex *)
  pending_mutex : Mutex.t;
  pending_done : Condition.t;
  mutable pending : int;  (* jobs in flight for this connection *)
}

type session_entry = {
  sw : Session.Stepwise.t;
  lock : Mutex.t;  (* serializes rounds of one session *)
  timeout_ref : float ref;  (* per-round budget, set by each request *)
}

type state = {
  config : config;
  pool : Domainpool.t;
  metrics : Metrics.t;
  stop : bool Atomic.t;
  conns_mutex : Mutex.t;
  mutable conns : conn list;
  mutable reader_count : int;  (* live reader threads; guarded by conns_mutex *)
  readers_done : Condition.t;
  sessions_mutex : Mutex.t;
  sessions : (int, session_entry) Hashtbl.t;
  mutable next_session : int;
}

let logf state fmt =
  Printf.ksprintf
    (fun msg -> if not state.config.quiet then Printf.eprintf "imageeye-serve: %s\n%!" msg)
    fmt

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* Write one response line.  With SIGPIPE ignored, a client that went
   away surfaces as EPIPE/ECONNRESET here: the connection is marked dead
   and the daemon keeps serving everyone else. *)
let send state conn json =
  let line = J.to_line json ^ "\n" in
  Mutex.lock conn.write_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.write_mutex)
    (fun () ->
      if conn.alive then
        try write_all conn.fd line 0 (String.length line)
        with Unix.Unix_error _ | Sys_error _ ->
          conn.alive <- false;
          Metrics.record_dropped state.metrics)

let sessions_open state =
  Mutex.lock state.sessions_mutex;
  let n = Hashtbl.length state.sessions in
  Mutex.unlock state.sessions_mutex;
  n

let connections_open state =
  Mutex.lock state.conns_mutex;
  let n = List.length state.conns in
  Mutex.unlock state.conns_mutex;
  n

let metrics_snapshot state =
  Metrics.snapshot state.metrics ~queue_depth:(Domainpool.pending state.pool)
    ~sessions_open:(sessions_open state) ~connections_open:(connections_open state)

(* ---------- heavy-request handlers (run on worker domains) ---------- *)

let failure_name = function
  | Session.Synth_failed -> "synth-failed"
  | Session.Rounds_exhausted -> "rounds-exhausted"
  | Session.No_useful_image -> "no-useful-image"

let stepwise_status_fields sw =
  match Session.Stepwise.status sw with
  | Session.Stepwise.Awaiting_round ->
      ("status", J.Str "awaiting-round")
      ::
      (match Session.Stepwise.next_demo sw with
      | Some img -> [ ("next_demo", J.Int img) ]
      | None -> [])
  | Session.Stepwise.Solved prog ->
      [ ("status", J.Str "solved"); ("program", Wire.program_to_json prog) ]
  | Session.Stepwise.Failed reason ->
      [ ("status", J.Str "failed"); ("failure", J.Str (failure_name reason)) ]

let round_fields (r : Session.round) =
  [
    ("round", J.Int r.round_index);
    ("demo_image", J.Int r.demo_image);
    ("synth_time_s", J.Float r.synth_time);
  ]
  @ (match r.candidate with
    | Some p -> [ ("candidate", Wire.program_to_json p) ]
    | None -> [])
  @
  match r.synth_stats with
  | Some st -> [ ("stats", Wire.stats_to_json st) ]
  | None -> []

let stats_counts = function Some (st : Synthesizer.stats) -> st.prune_counts | None -> []

(* Every handler returns (response, metrics outcome, synthesis counters). *)
let handle_synthesize ~id ~scenes ~demos ~remaining ~optimal =
  match Wire.spec_of ~scenes demos with
  | Error message ->
      ( Protocol.error_response (Protocol.make_error ~id ~code:"bad-payload" ~message),
        "error",
        [] )
  | Ok spec -> (
      let config =
        { Synthesizer.default_config with timeout_s = remaining; optimality = optimal }
      in
      match Synthesizer.synthesize ~config spec with
      | Synthesizer.Success (program, st) ->
          ( Protocol.ok ~id ~op:"synthesize"
              [
                ("outcome", J.Str "success");
                ("program", Wire.program_to_json program);
                ("stats", Wire.stats_to_json st);
              ],
            "ok",
            st.prune_counts )
      | Synthesizer.Timeout st ->
          ( Protocol.ok ~id ~op:"synthesize"
              [ ("outcome", J.Str "timeout"); ("stats", Wire.stats_to_json st) ],
            "timeout",
            st.prune_counts )
      | Synthesizer.Exhausted st ->
          ( Protocol.ok ~id ~op:"synthesize"
              [ ("outcome", J.Str "exhausted"); ("stats", Wire.stats_to_json st) ],
            "exhausted",
            st.prune_counts ))

let handle_apply ~id ~program ~scenes =
  let u = Batch.shared_universe_of_scenes scenes in
  let edit = Edit.induced_by_program u program in
  let image_ids = List.map (fun (s : Scene.t) -> s.image_id) scenes in
  ( Protocol.ok ~id ~op:"apply" [ ("edits", Wire.edit_to_json u ~image_ids edit) ],
    "ok",
    [] )

(* Stream a program across a generated corpus under the request's time
   budget.  The edit stream itself would be enormous, so the response
   carries the aggregate report: frames done, edit count, throughput,
   peak interned universes (bounded by [window]) and the stream digest.
   A budget overrun is not an error — the response says how far it got
   with outcome "timeout". *)
let handle_stream_apply ~id ~program ~domain ~seed ~frames ~window ~remaining =
  let corpus = Imageeye_corpus.Corpus.make ~domain ~seed ~frames in
  let config =
    {
      Imageeye_corpus.Stream.default_config with
      window;
      time_budget_s = Some remaining;
    }
  in
  let r = Imageeye_corpus.Stream.apply ~config ~corpus program in
  let finished = r.Imageeye_corpus.Stream.frames_done = frames in
  let outcome = if finished then "ok" else "timeout" in
  ( Protocol.ok ~id ~op:"stream-apply"
      [
        ("outcome", J.Str outcome);
        ("frames_requested", J.Int frames);
        ("frames_done", J.Int r.Imageeye_corpus.Stream.frames_done);
        ("window", J.Int window);
        ("edits", J.Int r.Imageeye_corpus.Stream.edits);
        ("elapsed_s", J.Float r.Imageeye_corpus.Stream.elapsed_s);
        ("images_per_s", J.Float r.Imageeye_corpus.Stream.images_per_s);
        ("peak_live_universes", J.Int r.Imageeye_corpus.Stream.peak_live_universes);
        ("universes_built", J.Int r.Imageeye_corpus.Stream.universes_built);
        ( "peak_rss_kb",
          match r.Imageeye_corpus.Stream.peak_rss_kb with
          | Some kb -> J.Int kb
          | None -> J.Null );
        ("edit_digest", J.Str (Digest.to_hex r.Imageeye_corpus.Stream.edit_digest));
      ],
    outcome,
    [] )

let handle_session_open state ~id ~task_id ~images ~seed =
  match Benchmarks.by_id task_id with
  | exception Not_found ->
      ( Protocol.error_response
          (Protocol.make_error ~id ~code:"bad-request"
             ~message:
               (Printf.sprintf "no benchmark task %d (ids run 1-%d)" task_id
                  Benchmarks.count)),
        "error",
        [] )
  | task ->
      let n = Option.value images ~default:(Dataset.default_image_count task.Task.domain) in
      let dataset = Dataset.generate ~n_images:n ~seed task.Task.domain in
      (* Interned: two sessions over the same (domain, n, seed) dataset
         share the batch universe and its warm caches. *)
      let batch_universe = Batch.shared_universe_of_scenes dataset.Dataset.scenes in
      let timeout_ref = ref state.config.default_timeout_s in
      let engine spec =
        Session.imageeye_engine
          { Synthesizer.default_config with timeout_s = !timeout_ref }
          spec
      in
      let sw =
        Session.Stepwise.start ~engine ~max_rounds:state.config.max_rounds
          ~batch_universe ~dataset task
      in
      let entry = { sw; lock = Mutex.create (); timeout_ref } in
      Mutex.lock state.sessions_mutex;
      let session = state.next_session in
      state.next_session <- session + 1;
      Hashtbl.replace state.sessions session entry;
      Mutex.unlock state.sessions_mutex;
      ( Protocol.ok ~id ~op:"session-open"
          ([
             ("session", J.Int session);
             ("task", J.Int task.Task.id);
             ("description", J.Str task.Task.description);
             ("images", J.Int n);
           ]
          @ stepwise_status_fields sw),
        "ok",
        [] )

let find_session state session =
  Mutex.lock state.sessions_mutex;
  let entry = Hashtbl.find_opt state.sessions session in
  Mutex.unlock state.sessions_mutex;
  entry

let handle_session_round state ~id ~session ~remaining =
  match find_session state session with
  | None ->
      ( Protocol.error_response
          (Protocol.make_error ~id ~code:"no-session"
             ~message:(Printf.sprintf "no open session %d" session)),
        "error",
        [] )
  | Some entry ->
      Mutex.lock entry.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock entry.lock)
        (fun () ->
          entry.timeout_ref := remaining;
          match Session.Stepwise.step entry.sw with
          | None ->
              ( Protocol.ok ~id ~op:"session-round"
                  (("outcome", J.Str "finished") :: stepwise_status_fields entry.sw),
                "ok",
                [] )
          | Some round ->
              ( Protocol.ok ~id ~op:"session-round"
                  ((("outcome", J.Str "round") :: round_fields round)
                  @ stepwise_status_fields entry.sw),
                (match round.candidate with Some _ -> "ok" | None -> "timeout"),
                stats_counts round.synth_stats ))

let handle_session_close state ~id ~session =
  Mutex.lock state.sessions_mutex;
  let existed = Hashtbl.mem state.sessions session in
  Hashtbl.remove state.sessions session;
  Mutex.unlock state.sessions_mutex;
  if existed then (Protocol.ok ~id ~op:"session-close" [ ("closed", J.Bool true) ], "ok", [])
  else
    ( Protocol.error_response
        (Protocol.make_error ~id ~code:"no-session"
           ~message:(Printf.sprintf "no open session %d" session)),
      "error",
      [] )

let request_timeout state = function
  | Protocol.Synthesize { timeout_s; _ } | Protocol.Session_round { timeout_s; _ } ->
      Option.value timeout_s ~default:state.config.default_timeout_s
  | _ -> state.config.default_timeout_s

(* The admission-queue deadline: [admitted] started ticking when the
   reader enqueued the request, so time spent waiting for a worker is
   charged against the request's budget. *)
let handle_heavy state ~id ~admitted request =
  let timeout_s = request_timeout state request in
  let remaining = timeout_s -. Clock.elapsed_s admitted in
  let op = Protocol.op_name request in
  if remaining <= 0.0 then
    ( Protocol.ok ~id ~op [ ("outcome", J.Str "timeout"); ("queue_expired", J.Bool true) ],
      "timeout",
      [] )
  else
    match request with
    | Protocol.Synthesize { scenes; demos; optimal; _ } ->
        handle_synthesize ~id ~scenes ~demos ~remaining ~optimal
    | Protocol.Apply { program; scenes } -> handle_apply ~id ~program ~scenes
    | Protocol.Stream_apply { program; domain; seed; frames; window } ->
        handle_stream_apply ~id ~program ~domain ~seed ~frames ~window ~remaining
    | Protocol.Session_open { task_id; images; seed } ->
        handle_session_open state ~id ~task_id ~images ~seed
    | Protocol.Session_round { session; _ } ->
        handle_session_round state ~id ~session ~remaining
    | Protocol.Session_close { session } -> handle_session_close state ~id ~session
    | Protocol.Ping | Protocol.Metrics | Protocol.Shutdown ->
        assert false (* light ops never reach the queue *)

(* ---------- reader threads ---------- *)

let submit_heavy state conn ~id ~admitted request =
  let op = Protocol.op_name request in
  Mutex.lock conn.pending_mutex;
  conn.pending <- conn.pending + 1;
  Mutex.unlock conn.pending_mutex;
  let finished () =
    Mutex.lock conn.pending_mutex;
    conn.pending <- conn.pending - 1;
    if conn.pending = 0 then Condition.broadcast conn.pending_done;
    Mutex.unlock conn.pending_mutex
  in
  let job () =
    (* A raising job would poison the pool's shutdown; everything is
       caught and turned into an [internal] protocol error instead. *)
    Fun.protect ~finally:finished (fun () ->
        let response, outcome, counts =
          try handle_heavy state ~id ~admitted request
          with e ->
            ( Protocol.error_response
                (Protocol.make_error ~id ~code:"internal" ~message:(Printexc.to_string e)),
              "error",
              [] )
        in
        send state conn response;
        Metrics.record state.metrics ~op ~outcome ~latency_s:(Clock.elapsed_s admitted)
          ~counts ())
  in
  match Domainpool.submit state.pool job with
  | () -> Metrics.observe_queue_depth state.metrics (Domainpool.pending state.pool)
  | exception Invalid_argument _ ->
      (* Raced with shutdown: the pool is closed, answer directly. *)
      finished ();
      send state conn
        (Protocol.error_response
           (Protocol.make_error ~id ~code:"shutting-down"
              ~message:"server is draining; request not admitted"));
      Metrics.record state.metrics ~op ~outcome:"error" ~latency_s:(Clock.elapsed_s admitted)
        ()

let handle_line state conn line =
  let received = Clock.counter () in
  match Protocol.of_line line with
  | Error err ->
      send state conn (Protocol.error_response err);
      (* The error code is the outcome, so a hostile-input category
         ([depth-exceeded], [bad-json], ...) is countable per se. *)
      Metrics.record state.metrics ~op:"invalid" ~outcome:err.Protocol.code
        ~latency_s:(Clock.elapsed_s received) ()
  | Ok { id; request } -> (
      match request with
      | Protocol.Ping ->
          send state conn (Protocol.ok ~id ~op:"ping" [ ("pong", J.Bool true) ]);
          Metrics.record state.metrics ~op:"ping" ~outcome:"ok"
            ~latency_s:(Clock.elapsed_s received) ()
      | Protocol.Metrics ->
          send state conn
            (Protocol.ok ~id ~op:"metrics" [ ("metrics", metrics_snapshot state) ]);
          Metrics.record state.metrics ~op:"metrics" ~outcome:"ok"
            ~latency_s:(Clock.elapsed_s received) ()
      | Protocol.Shutdown ->
          send state conn (Protocol.ok ~id ~op:"shutdown" [ ("draining", J.Bool true) ]);
          Metrics.record state.metrics ~op:"shutdown" ~outcome:"ok"
            ~latency_s:(Clock.elapsed_s received) ();
          Atomic.set state.stop true
      | heavy -> submit_heavy state conn ~id ~admitted:received heavy)

let deregister_and_close state conn =
  Mutex.lock state.conns_mutex;
  state.conns <- List.filter (fun c -> c != conn) state.conns;
  state.reader_count <- state.reader_count - 1;
  if state.reader_count = 0 then Condition.broadcast state.readers_done;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.unlock state.conns_mutex

(* Answer a framing fault with a structured error, count it, and stop
   reading: after an over-limit or timed-out frame the stream position
   is unknown, so the connection must close. *)
let frame_fault state conn ~code ~message =
  send state conn (Protocol.error_response (Protocol.make_error ~id:J.Null ~code ~message));
  Metrics.record_fault state.metrics code;
  logf state "%s on %s" code conn.peer

let reader state conn () =
  let limits =
    {
      Frame.max_line_bytes = state.config.max_line_bytes;
      read_timeout_s = state.config.read_timeout_s;
    }
  in
  let frame = Frame.create ~limits conn.fd in
  (* [Fun.protect]: the drain-then-close epilogue must run no matter how
     the loop ends — including an exception escaping [handle_line],
     which previously leaked the fd and left a dead conn in
     [state.conns] forever. *)
  Fun.protect
    ~finally:(fun () ->
      (* Let this connection's in-flight responses finish before
         closing the descriptor (closing early could hand the fd number
         to a new connection while a worker still writes to it). *)
      Mutex.lock conn.pending_mutex;
      while conn.pending > 0 do
        Condition.wait conn.pending_done conn.pending_mutex
      done;
      Mutex.unlock conn.pending_mutex;
      deregister_and_close state conn;
      logf state "disconnected %s" conn.peer)
    (fun () ->
      let rec loop () =
        match Frame.read_line frame with
        | Ok line ->
            if String.trim line <> "" then handle_line state conn line;
            loop ()
        | Error Frame.Eof | Error (Frame.Io_error _) -> ()
        | Error (Frame.Line_too_long n) ->
            frame_fault state conn ~code:"line-too-long"
              ~message:
                (Printf.sprintf
                   "request line exceeds %d bytes (%d buffered); closing connection"
                   state.config.max_line_bytes n)
        | Error Frame.Read_timeout ->
            frame_fault state conn ~code:"read-timeout"
              ~message:"no complete request line within the read deadline; closing connection"
      in
      try loop ()
      with e ->
        (* Backstop for the same bug class: an unexpected raise is a
           counted fault plus this connection's death, never a leaked
           fd or a silently dropped thread. *)
        Metrics.record_fault state.metrics "reader-exception";
        logf state "reader error on %s: %s" conn.peer (Printexc.to_string e))

(* ---------- lifecycle ---------- *)

let endpoint_name = function
  | Unix_socket path -> Printf.sprintf "unix:%s" path
  | Tcp port -> Printf.sprintf "tcp:127.0.0.1:%d" port

let bind_endpoint = function
  | Unix_socket path ->
      (* Replace only a genuinely stale socket left by a dead daemon.
         Unlinking unconditionally would silently steal a live daemon's
         endpoint: probe with a connect first and refuse if anything
         answers. *)
      (match Unix.lstat path with
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
      | { Unix.st_kind = Unix.S_SOCK; _ } -> (
          let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          let live =
            match Unix.connect probe (Unix.ADDR_UNIX path) with
            | () -> true
            | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
            | exception Unix.Unix_error _ ->
                (* Unclear (permissions, ...): keep hands off; bind will
                   fail loudly below. *)
                true
          in
          (try Unix.close probe with Unix.Unix_error _ -> ());
          if live then
            failwith
              (Printf.sprintf
                 "refusing to bind %s: a daemon is already serving this socket" path)
          else try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ ->
          failwith
            (Printf.sprintf "refusing to bind %s: the path exists and is not a socket" path));
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      fd

let install_signals state =
  (* A disconnecting client must surface as EPIPE on its own connection,
     not as a process-killing signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let drain = Sys.Signal_handle (fun _ -> Atomic.set state.stop true) in
  Sys.set_signal Sys.sigterm drain;
  Sys.set_signal Sys.sigint drain

let peer_name addr =
  match addr with
  | Unix.ADDR_UNIX _ -> "unix-peer"
  | Unix.ADDR_INET (host, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port

(* A connection refused at admission gets one structured line before the
   close — clients distinguish shed load from a crashed daemon. *)
let shed_connection state fd peer =
  let line =
    J.to_line
      (Protocol.error_response
         (Protocol.make_error ~id:J.Null ~code:"overloaded"
            ~message:
              (Printf.sprintf "connection limit (%d) reached; retry with backoff"
                 state.config.max_connections)))
    ^ "\n"
  in
  (try write_all fd line 0 (String.length line) with Unix.Unix_error _ | Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Metrics.record_fault state.metrics "overloaded";
  logf state "shed %s (connection cap %d)" peer state.config.max_connections

let run config =
  let state =
    {
      config;
      pool = Domainpool.create (max 1 config.jobs);
      metrics = Metrics.create ();
      stop = Atomic.make false;
      conns_mutex = Mutex.create ();
      conns = [];
      reader_count = 0;
      readers_done = Condition.create ();
      sessions_mutex = Mutex.create ();
      sessions = Hashtbl.create 8;
      next_session = 1;
    }
  in
  install_signals state;
  let listen_fd = bind_endpoint config.endpoint in
  logf state "listening on %s (%d worker domain(s), default deadline %.0fs)"
    (endpoint_name config.endpoint) (Domainpool.size state.pool) config.default_timeout_s;
  (* Accept loop: select with a short timeout so a stop flag set by a
     signal handler or a shutdown request is noticed promptly. *)
  while not (Atomic.get state.stop) do
    match Unix.select [ listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept listen_fd with
        | fd, addr ->
            let peer = peer_name addr in
            Mutex.lock state.conns_mutex;
            let admitted = List.length state.conns < config.max_connections in
            if admitted then begin
              let conn =
                {
                  fd;
                  peer;
                  write_mutex = Mutex.create ();
                  alive = true;
                  pending_mutex = Mutex.create ();
                  pending_done = Condition.create ();
                  pending = 0;
                }
              in
              state.conns <- conn :: state.conns;
              state.reader_count <- state.reader_count + 1;
              ignore (Thread.create (reader state conn) () : Thread.t);
              Mutex.unlock state.conns_mutex;
              logf state "accepted %s" peer
            end
            else begin
              Mutex.unlock state.conns_mutex;
              shed_connection state fd peer
            end
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Graceful drain: stop accepting, let queued jobs finish and their
     responses flush, then wake and join every reader. *)
  logf state "draining";
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match config.endpoint with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ());
  Domainpool.shutdown state.pool;
  Mutex.lock state.conns_mutex;
  let open_conns = state.conns in
  Mutex.unlock state.conns_mutex;
  List.iter
    (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    open_conns;
  (* Every reader decrements the count from its cleanup epilogue, so
     this wait covers response flushing and fd closing — without the
     old ever-growing list of joined-once [Thread.t] handles. *)
  Mutex.lock state.conns_mutex;
  while state.reader_count > 0 do
    Condition.wait state.readers_done state.conns_mutex
  done;
  Mutex.unlock state.conns_mutex;
  (* The final metrics snapshot goes to stderr unconditionally: it is the
     SIGTERM-triggered dump the operator greps after a deploy. *)
  Printf.eprintf "imageeye-serve: final metrics\n%s%!"
    (J.to_string (metrics_snapshot state))
