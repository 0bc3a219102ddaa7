(* The sharding tier: consistent-hash ring properties (stability under
   membership change — the reason each worker stays warm for its keys),
   the ring's CRC-32 hash, an end-to-end router over two in-process
   daemons, including graceful degradation when a worker is lost
   mid-run, the dead-worker re-probe timer, and the liveness check that
   tells a worker which never answers from a busy one. *)

module J = Imageeye_util.Jsonout
module Jsonin = Imageeye_util.Jsonin
module Checksum = Imageeye_util.Checksum
module Protocol = Imageeye_serve.Protocol
module Server = Imageeye_serve.Server
module Client = Imageeye_serve.Client
module Ring = Imageeye_serve.Ring
module Router = Imageeye_serve.Router
module Faultnet = Imageeye_serve.Faultnet
module Demo_io = Imageeye_interact.Demo_io
module Dataset = Imageeye_scene.Dataset
module Scene = Imageeye_scene.Scene
module Scene_io = Imageeye_scene.Scene_io
module Batch = Imageeye_vision.Batch
module Universe = Imageeye_symbolic.Universe
module Edit = Imageeye_core.Edit
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task

(* ---------- ring ---------- *)

let keys = List.init 1000 (Printf.sprintf "key-%d")

let test_ring_basic () =
  let ring = Ring.create [ "w1"; "w2"; "w3"; "w2" ] in
  Alcotest.(check (list string)) "distinct sorted workers" [ "w1"; "w2"; "w3" ]
    (Ring.workers ring);
  List.iter
    (fun key ->
      let succ = Ring.successors ring key in
      Alcotest.(check int) "successors cover every worker" 3 (List.length succ);
      Alcotest.(check int) "successors are distinct" 3
        (List.length (List.sort_uniq compare succ));
      match Ring.lookup ring key with
      | None -> Alcotest.fail "lookup on a populated ring"
      | Some w -> Alcotest.(check string) "lookup is the first successor" w (List.hd succ))
    keys;
  (* every worker owns some keys (64 vnodes each; crc32 is fixed, so
     this is a deterministic fact, not a probabilistic hope) *)
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "%s owns keys" w)
        true
        (List.exists (fun k -> Ring.lookup ring k = Some w) keys))
    (Ring.workers ring)

let test_ring_empty () =
  let ring = Ring.create [] in
  Alcotest.(check bool) "lookup" true (Ring.lookup ring "anything" = None);
  Alcotest.(check (list string)) "successors" [] (Ring.successors ring "anything")

let test_ring_deterministic () =
  let a = Ring.create [ "w1"; "w2"; "w3" ] and b = Ring.create [ "w3"; "w1"; "w2" ] in
  List.iter
    (fun k -> Alcotest.(check bool) k true (Ring.lookup a k = Ring.lookup b k))
    keys

(* The property the router's warmth story rests on: growing the pool
   only moves keys onto the new worker; shrinking it only moves the lost
   worker's keys.  Every other key keeps its owner — and its interned
   universes. *)
let test_ring_stability () =
  let four = [ "w1"; "w2"; "w3"; "w4" ] in
  let ring4 = Ring.create four in
  let ring5 = Ring.create ("w5" :: four) in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = Ring.lookup ring4 k and after = Ring.lookup ring5 k in
      if before <> after then begin
        incr moved;
        Alcotest.(check bool) "growth only remaps onto the new worker" true
          (after = Some "w5")
      end)
    keys;
  Alcotest.(check bool) "the new worker took some keys" true (!moved > 0);
  let ring3 = Ring.create [ "w1"; "w3"; "w4" ] in
  List.iter
    (fun k ->
      match Ring.lookup ring4 k with
      | Some "w2" -> ()
      | owner ->
          Alcotest.(check bool) "loss only remaps the lost worker's keys" true
            (Ring.lookup ring3 k = owner))
    keys

(* The ring's hash is the standard CRC-32/IEEE: its check value, so
   ring placement matches zlib's crc32 on every build. *)
let test_crc32_vectors () =
  Alcotest.(check int32) "123456789" 0xcbf43926l (Checksum.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Checksum.crc32 "")

(* ---------- router end to end ---------- *)

(* Same payload the serve tests and the load generator use. *)
let demo_payload task_id ~images ~demo_images ~seed =
  let task = Benchmarks.by_id task_id in
  let dataset = Dataset.generate ~n_images:images ~seed task.Task.domain in
  let u = Batch.universe_of_scenes dataset.Dataset.scenes in
  let gt = Edit.induced_by_program u task.Task.ground_truth in
  let weight (s : Scene.t) = List.length (Universe.objects_of_image u s.image_id) in
  let useful =
    List.filter
      (fun (s : Scene.t) ->
        List.exists (fun id -> Edit.actions_of gt id <> []) (Universe.objects_of_image u s.image_id))
      dataset.Dataset.scenes
  in
  let chosen =
    List.filteri
      (fun i _ -> i < demo_images)
      (List.stable_sort (fun a b -> compare (weight a) (weight b)) useful)
  in
  let demo_of (s : Scene.t) =
    let edits =
      List.concat
        (List.mapi
           (fun pos id -> List.map (fun a -> (pos, a)) (Edit.actions_of gt id))
           (Universe.objects_of_image u s.image_id))
    in
    { Demo_io.image_id = s.Scene.image_id; edits }
  in
  (chosen, List.map demo_of chosen)

let rpc_ok c request =
  match Client.rpc c request with
  | Error msg -> Alcotest.failf "transport error: %s" msg
  | Ok r ->
      if not (Client.is_ok r) then Alcotest.failf "server error: %s" (J.to_line r);
      r

let error_code r =
  Option.value ~default:"?"
    (Option.bind
       (Option.bind (Jsonin.member "error" r) (Jsonin.member "code"))
       Jsonin.to_string_opt)

let stat_nodes r =
  Option.bind (Jsonin.member "stats" r) (fun s ->
      Option.bind (Jsonin.member "nodes" s) Jsonin.to_int_opt)

let member_int doc path =
  let rec go doc = function
    | [] -> Jsonin.to_int_opt doc
    | key :: rest -> Option.bind (Jsonin.member key doc) (fun v -> go v rest)
  in
  Option.value ~default:0 (go doc path)

let temp_socket () =
  let path = Filename.temp_file "imageeye-router" ".sock" in
  Sys.remove path;
  path

(* The key derivations the router uses, replicated so the test can
   predict which worker owns which request and target the kill. *)
let scenes_key scenes = String.concat "\x00" (List.map Scene_io.to_string scenes)
let session_key ~task_id ~images ~seed = Printf.sprintf "task:%d:%d:%d" task_id images seed

let test_router_e2e () =
  let d1 = Faultnet.start () in
  let d2 = Faultnet.start () in
  let ep1 = Faultnet.endpoint d1 and ep2 = Faultnet.endpoint d2 in
  let name1 = Router.worker_name ep1 and name2 = Router.worker_name ep2 in
  let router_path = temp_socket () in
  let config =
    {
      Router.default_config with
      endpoint = Server.Unix_socket router_path;
      workers = [ ep1; ep2 ];
      quiet = true;
      retry_dead_s = 0.5;
    }
  in
  let router_thread = Thread.create Router.run config in
  let c = Client.connect_retry ~attempts:12 (Client.Unix_socket router_path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* ping is answered by the router itself and says so *)
  let r = rpc_ok c Protocol.Ping in
  Alcotest.(check bool) "pong" true (Jsonin.member "pong" r = Some (J.Bool true));
  Alcotest.(check bool) "from the router" true (Jsonin.member "router" r = Some (J.Bool true));

  (* repeated synthesize is answered with the same program at the same
     cost every time *)
  let scenes, demos = demo_payload 30 ~images:6 ~demo_images:1 ~seed:3 in
  let synth = Protocol.Synthesize { scenes; demos; timeout_s = Some 20.0; optimal = false } in
  let r1 = rpc_ok c synth in
  Alcotest.(check bool) "has program" true (Jsonin.member "program" r1 <> None);
  let _ = rpc_ok c synth in
  let r3 = rpc_ok c synth in
  Alcotest.(check bool) "third request: same program" true
    (Jsonin.member "program" r3 = Jsonin.member "program" r1);
  Alcotest.(check (option int)) "third request: same nodes" (stat_nodes r1) (stat_nodes r3);

  (* aggregated metrics: router's own snapshot plus one per worker *)
  let m =
    match Jsonin.member "metrics" (rpc_ok c Protocol.Metrics) with
    | Some m -> m
    | None -> Alcotest.fail "no metrics"
  in
  Alcotest.(check int) "workers_total" 2 (member_int m [ "workers_total" ]);
  Alcotest.(check int) "workers_live" 2 (member_int m [ "workers_live" ]);
  Alcotest.(check bool) "router snapshot present" true (Jsonin.member "router" m <> None);
  (match Jsonin.member "workers" m with
  | Some (J.Obj per_worker) ->
      Alcotest.(check (list string)) "both workers reported"
        (List.sort compare [ name1; name2 ])
        (List.sort compare (List.map fst per_worker))
  | _ -> Alcotest.fail "no per-worker metrics");

  (* sessions: the router allocates its own ids and rewrites both ways *)
  let r = rpc_ok c (Protocol.Session_open { task_id = 30; images = Some 40; seed = 42 }) in
  let session =
    match Option.bind (Jsonin.member "session" r) Jsonin.to_int_opt with
    | Some s -> s
    | None -> Alcotest.fail "no session id"
  in
  let status r =
    Option.value ~default:"?" (Option.bind (Jsonin.member "status" r) Jsonin.to_string_opt)
  in
  let rec rounds n last =
    if n > 12 then last
    else
      let r = rpc_ok c (Protocol.Session_round { session; timeout_s = Some 20.0 }) in
      if status r = "awaiting-round" then rounds (n + 1) r else r
  in
  let final = rounds 0 r in
  Alcotest.(check string) "session solved through the router" "solved" (status final);
  let _ = rpc_ok c (Protocol.Session_close { session }) in
  (match Client.rpc c (Protocol.Session_close { session }) with
  | Ok r -> Alcotest.(check string) "closed session is gone" "no-session" (error_code r)
  | Error msg -> Alcotest.failf "transport error: %s" msg);

  (* worker loss: kill the worker that owns the synthesize key; the
     request must re-hash to the survivor and the loss must be counted.
     A session pinned to the dead worker must fail loudly instead. *)
  let ring = Ring.create [ name1; name2 ] in
  let owner =
    match Ring.lookup ring (scenes_key scenes) with
    | Some w -> w
    | None -> Alcotest.fail "empty ring"
  in
  let victim, survivor = if owner = name1 then (d1, d2) else (d2, d1) in
  let pinned =
    rpc_ok c (Protocol.Session_open { task_id = 30; images = Some 6; seed = 7 })
  in
  let pinned_session =
    match Option.bind (Jsonin.member "session" pinned) Jsonin.to_int_opt with
    | Some s -> s
    | None -> Alcotest.fail "no session id"
  in
  let pinned_owner = Ring.lookup ring (session_key ~task_id:30 ~images:6 ~seed:7) in
  Faultnet.stop victim;
  let r = rpc_ok c synth in
  Alcotest.(check bool) "synthesize survives worker loss" true (Client.is_ok r);
  let m =
    match Jsonin.member "metrics" (rpc_ok c Protocol.Metrics) with
    | Some m -> m
    | None -> Alcotest.fail "no metrics"
  in
  Alcotest.(check int) "one live worker" 1 (member_int m [ "workers_live" ]);
  Alcotest.(check bool) "loss counted" true
    (member_int m [ "router"; "faults"; "worker-lost" ] >= 1);
  (match Client.rpc c (Protocol.Session_round { session = pinned_session; timeout_s = Some 5.0 }) with
  | Error msg -> Alcotest.failf "transport error: %s" msg
  | Ok r ->
      if pinned_owner = Some owner then
        Alcotest.(check string) "pinned session fails loudly" "worker-lost" (error_code r)
      else Alcotest.(check bool) "session on the survivor still works" true (Client.is_ok r));

  (* graceful shutdown: survivor first (so its drain is clean), then the
     router, whose broadcast to already-gone workers must not wedge it *)
  Faultnet.stop survivor;
  let r = rpc_ok c Protocol.Shutdown in
  Alcotest.(check bool) "draining" true (Jsonin.member "draining" r = Some (J.Bool true));
  Thread.join router_thread;
  if Sys.file_exists router_path then Sys.remove router_path

(* A stand-in worker that accepts every connection and closes it at
   once, so each request forwarded to it fails; [accepts] counts how
   often the router tried it. *)
let closing_worker path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  let accepts = Atomic.make 0 and stop = Atomic.make false in
  let rec loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ ->
          let c, _ = Unix.accept fd in
          Atomic.incr accepts;
          Unix.close c);
      loop ()
    end
  in
  let thread = Thread.create loop () in
  let stop_worker () =
    Atomic.set stop true;
    Thread.join thread;
    Unix.close fd;
    Sys.remove path
  in
  (accepts, stop_worker)

(* A failed re-probe must re-arm the dead-worker timer: the requests
   right after it skip the worker instead of each reconnecting to it. *)
let test_router_reprobe_rearms () =
  let worker_path = temp_socket () in
  let accepts, stop_worker = closing_worker worker_path in
  let router_path = temp_socket () in
  let retry_dead_s = 0.5 in
  let config =
    {
      Router.default_config with
      endpoint = Server.Unix_socket router_path;
      workers = [ Client.Unix_socket worker_path ];
      quiet = true;
      retry_dead_s;
    }
  in
  let router_thread = Thread.create Router.run config in
  let c = Client.connect_retry ~attempts:12 (Client.Unix_socket router_path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let request () =
    match Client.rpc c (Protocol.Session_open { task_id = 1; images = Some 2; seed = 1 }) with
    | Ok r -> Alcotest.(check string) "no live worker" "worker-lost" (error_code r)
    | Error msg -> Alcotest.failf "transport error: %s" msg
  in
  let burst () = for _ = 1 to 10 do request () done in
  request ();
  Alcotest.(check int) "the first request tries the worker" 1 (Atomic.get accepts);
  burst ();
  Alcotest.(check int) "a dead worker is skipped" 1 (Atomic.get accepts);
  Thread.delay (retry_dead_s *. 1.5);
  request ();
  Alcotest.(check int) "one re-probe after the window" 2 (Atomic.get accepts);
  burst ();
  Alcotest.(check int) "the failed re-probe re-armed the timer" 2 (Atomic.get accepts);
  let r = rpc_ok c Protocol.Shutdown in
  Alcotest.(check bool) "draining" true (Jsonin.member "draining" r = Some (J.Bool true));
  Thread.join router_thread;
  stop_worker ();
  if Sys.file_exists router_path then Sys.remove router_path

(* A stand-in worker that accepts every connection and never answers,
   holding each one open until stopped. *)
let silent_worker path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  let held = ref [] and stop = Atomic.make false in
  let rec loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ ->
          let c, _ = Unix.accept fd in
          held := c :: !held);
      loop ()
    end
  in
  let thread = Thread.create loop () in
  fun () ->
    Atomic.set stop true;
    Thread.join thread;
    List.iter Unix.close !held;
    Unix.close fd;
    Sys.remove path

(* One request on a fresh connection to the router, with a watchdog: a
   router that never answers fails the case instead of hanging it. *)
let rpc_within ~seconds path request =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let line = J.to_line (Protocol.to_json ~id:(J.Int 1) request) ^ "\n" in
  let rec write_all off =
    if off < String.length line then
      write_all (off + Unix.write_substring fd line off (String.length line - off))
  in
  write_all 0;
  match Unix.select [ fd ] [] [] seconds with
  | [], _, _ -> Alcotest.failf "no answer within %.1f s" seconds
  | _ -> (
      match Imageeye_serve.Frame.read_line (Imageeye_serve.Frame.create fd) with
      | Error e -> Alcotest.failf "reading the answer: %s" (Imageeye_serve.Frame.error_to_string e)
      | Ok answer -> (
          match Jsonin.parse answer with
          | Ok r -> r
          | Error _ -> Alcotest.failf "malformed answer %s" answer))

(* A worker that never answers must not pin the router: the forward
   gives up when the worker leaves a ping unanswered too, the answer is
   a structured error, [metrics] does not wait on the worker, and the
   SIGTERM drain is not held up. *)
let test_router_silent_worker () =
  let worker_path = temp_socket () in
  let stop_worker = silent_worker worker_path in
  let router_path = temp_socket () in
  let config =
    {
      Router.default_config with
      endpoint = Server.Unix_socket router_path;
      workers = [ Client.Unix_socket worker_path ];
      quiet = true;
      retry_dead_s = 30.0;
    }
  in
  let finished = Atomic.make false in
  let router_thread =
    Thread.create
      (fun () ->
        Router.run config;
        Atomic.set finished true)
      ()
  in
  let c = Client.connect_retry ~attempts:12 (Client.Unix_socket router_path) in
  ignore (rpc_ok c Protocol.Ping);
  Client.close c;
  let scenes, demos = demo_payload 30 ~images:6 ~demo_images:1 ~seed:3 in
  let synth = Protocol.Synthesize { scenes; demos; timeout_s = Some 0.5; optimal = false } in
  let r = rpc_within ~seconds:3.0 router_path synth in
  Alcotest.(check bool) "an error answer" false (Client.is_ok r);
  Alcotest.(check string) "worker-lost" "worker-lost" (error_code r);
  (* The silent worker is now marked dead: the next request is refused
     at once instead of waiting on it again. *)
  let r = rpc_within ~seconds:0.5 router_path synth in
  Alcotest.(check string) "dead worker skipped" "worker-lost" (error_code r);
  let m =
    match Jsonin.member "metrics" (rpc_within ~seconds:2.0 router_path Protocol.Metrics) with
    | Some m -> m
    | None -> Alcotest.fail "no metrics"
  in
  Alcotest.(check int) "no live worker" 0 (member_int m [ "workers_live" ]);
  let entry =
    Option.bind (Jsonin.member "workers" m)
      (Jsonin.member (Router.worker_name (Client.Unix_socket worker_path)))
  in
  Alcotest.(check bool) "the worker's entry is an error" true
    (Option.bind entry (Jsonin.member "error") <> None);
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  let drain = Imageeye_util.Clock.counter () in
  while (not (Atomic.get finished)) && Imageeye_util.Clock.elapsed_s drain < 1.0 do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "router drained within 1 s of SIGTERM" true (Atomic.get finished);
  Thread.join router_thread;
  stop_worker ();
  if Sys.file_exists router_path then Sys.remove router_path

(* A specification no small program meets, so synthesis runs until its
   [timeout_s]: in each image of a 4-image wedding batch the objects at
   positions 0 and 3 modulo 4 are brightened.  (Every other object would
   not do: a face and its person alternate, so that is [Is(person)].) *)
let unsolvable_payload () =
  let scenes = (Dataset.generate ~n_images:4 ~seed:3 Dataset.Wedding).Dataset.scenes in
  let u = Batch.universe_of_scenes scenes in
  let demo_of (s : Scene.t) =
    let n = List.length (Universe.objects_of_image u s.image_id) in
    let edit pos =
      if pos mod 4 = 0 || pos mod 4 = 3 then Some (pos, Imageeye_core.Lang.Brighten) else None
    in
    { Demo_io.image_id = s.image_id; edits = List.filter_map edit (List.init n Fun.id) }
  in
  (scenes, List.map demo_of scenes)

(* A busy worker is not a lost one.  With one job slot on the worker and
   four requests in flight per worker at the router, short requests wait
   in the worker's queue behind a long one, past their own [timeout_s]
   and past that plus a second; the worker answers them (outcome
   [timeout], [queue_expired]) when the long one ends.  Requests whose
   [timeout_s] is negative or overflows to infinity are the worker's to
   answer too.  None of this may cost a [worker-lost] fault or take the
   worker out of rotation. *)
let test_router_busy_worker () =
  let d = Faultnet.start () in
  let router_path = temp_socket () in
  let config =
    {
      Router.default_config with
      endpoint = Server.Unix_socket router_path;
      workers = [ Faultnet.endpoint d ];
      quiet = true;
      worker_inflight = 4;
      retry_dead_s = 30.0;
    }
  in
  let router_thread = Thread.create Router.run config in
  let c = Client.connect_retry ~attempts:12 (Client.Unix_socket router_path) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (rpc_ok c Protocol.Ping);
  let outcome r = Option.bind (Jsonin.member "outcome" r) Jsonin.to_string_opt in
  let scenes, demos = unsolvable_payload () in
  let synth timeout_s =
    Protocol.Synthesize { scenes; demos; timeout_s = Some timeout_s; optimal = false }
  in
  let answers = Array.make 4 None in
  let send i timeout_s =
    Thread.create
      (fun () -> answers.(i) <- Some (rpc_within ~seconds:20.0 router_path (synth timeout_s)))
      ()
  in
  let long = send 0 2.5 in
  (* Let the long request reach the worker's only job slot first. *)
  Thread.delay 0.3;
  let short = List.init 3 (fun i -> send (i + 1) 0.5) in
  List.iter Thread.join (long :: short);
  Array.iteri
    (fun i a ->
      match a with
      | None -> Alcotest.failf "request %d got no answer" i
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d answered by the worker" i)
            true (Client.is_ok r);
          Alcotest.(check (option string))
            (Printf.sprintf "request %d timed out" i)
            (Some "timeout") (outcome r))
    answers;
  (* A budget that is spent before it starts, and one that never ends on
     a request the worker solves at once. *)
  let r = rpc_ok c (synth (-5.0)) in
  Alcotest.(check (option string))
    "timeout_s -5 answered by the worker" (Some "timeout") (outcome r);
  let easy_scenes, easy_demos = demo_payload 30 ~images:6 ~demo_images:1 ~seed:3 in
  let sentinel = 123.25 in
  let easy =
    Protocol.Synthesize
      { scenes = easy_scenes; demos = easy_demos; timeout_s = Some sentinel; optimal = false }
  in
  let raw = J.to_line (Protocol.to_json ~id:(J.Int 99) easy) in
  let raw =
    let field = Printf.sprintf "\"timeout_s\":%g" sentinel in
    let n = String.length field in
    let rec at i = if String.sub raw i n = field then i else at (i + 1) in
    let i = at 0 in
    String.sub raw 0 i ^ "\"timeout_s\":1e400"
    ^ String.sub raw (i + n) (String.length raw - i - n)
  in
  (match Client.rpc_raw c raw with
  | Error msg -> Alcotest.failf "transport error: %s" msg
  | Ok r ->
      Alcotest.(check (option string))
        "timeout_s 1e400 answered by the worker" (Some "success") (outcome r));
  let m =
    match Jsonin.member "metrics" (rpc_ok c Protocol.Metrics) with
    | Some m -> m
    | None -> Alcotest.fail "no metrics"
  in
  Alcotest.(check int) "no worker-lost fault" 0
    (member_int m [ "router"; "faults"; "worker-lost" ]);
  Alcotest.(check int) "the worker is live" 1 (member_int m [ "workers_live" ]);
  Faultnet.stop d;
  ignore (rpc_ok c Protocol.Shutdown);
  Thread.join router_thread;
  if Sys.file_exists router_path then Sys.remove router_path

let () =
  Alcotest.run "router"
    [
      ( "ring",
        [
          Alcotest.test_case "lookup and successors" `Quick test_ring_basic;
          Alcotest.test_case "empty ring" `Quick test_ring_empty;
          Alcotest.test_case "order-independent" `Quick test_ring_deterministic;
          Alcotest.test_case "membership stability" `Quick test_ring_stability;
        ] );
      ("crc32", [ Alcotest.test_case "known vectors" `Quick test_crc32_vectors ]);
      ( "e2e",
        [
          Alcotest.test_case "two workers, one lost" `Slow test_router_e2e;
          Alcotest.test_case "failed re-probe re-arms the timer" `Quick
            test_router_reprobe_rearms;
          Alcotest.test_case "silent worker lost after an unanswered ping" `Quick
            test_router_silent_worker;
          Alcotest.test_case "busy worker stays live" `Quick test_router_busy_worker;
        ] );
    ]
