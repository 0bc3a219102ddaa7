(* Tests for the serve subsystem: the Jsonin reader (round-trip with
   Jsonout, malformed input as values), the wire protocol, the metrics
   accumulator, and an in-process end-to-end daemon over a temporary
   unix socket, restarted with nothing in memory. *)

module J = Imageeye_util.Jsonout
module Jsonin = Imageeye_util.Jsonin
module Protocol = Imageeye_serve.Protocol
module Metrics = Imageeye_serve.Metrics
module Server = Imageeye_serve.Server
module Client = Imageeye_serve.Client
module Demo_io = Imageeye_interact.Demo_io
module Dataset = Imageeye_scene.Dataset
module Scene = Imageeye_scene.Scene
module Batch = Imageeye_vision.Batch
module Bank_registry = Imageeye_core.Bank_registry
module Universe = Imageeye_symbolic.Universe
module Edit = Imageeye_core.Edit
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task
module Clock = Imageeye_util.Clock

(* ---------- Jsonin: round-trip with Jsonout ---------- *)

(* Raw-free documents whose floats survive [%.6g] printing: dyadic
   rationals below 100 keep at most 5 significant digits. *)
let json_gen =
  let open QCheck2.Gen in
  let key = string_size ~gen:printable (int_bound 8) in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun n -> J.Float (float_of_int n /. 8.0)) (int_range (-799) 799);
        map (fun s -> J.Str s) (string_size (int_bound 24));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> J.Obj l)
                   (list_size (int_bound 4) (pair key (self (n / 2)))) );
             ])

let rec json_print v =
  match v with
  | J.Null -> "Null"
  | J.Bool b -> Printf.sprintf "Bool %b" b
  | J.Int i -> Printf.sprintf "Int %d" i
  | J.Float f -> Printf.sprintf "Float %h" f
  | J.Str s -> Printf.sprintf "Str %S" s
  | J.List l -> "List [" ^ String.concat "; " (List.map json_print l) ^ "]"
  | J.Obj l ->
      "Obj ["
      ^ String.concat "; " (List.map (fun (k, x) -> Printf.sprintf "%S, %s" k (json_print x)) l)
      ^ "]"
  | J.Raw s -> Printf.sprintf "Raw %S" s

let roundtrip_pretty =
  QCheck2.Test.make ~name:"parse (to_string v) = v" ~count:500 ~print:json_print json_gen
    (fun v -> Jsonin.parse (J.to_string v) = Ok v)

let roundtrip_line =
  QCheck2.Test.make ~name:"parse (to_line v) = v" ~count:500 ~print:json_print json_gen
    (fun v -> Jsonin.parse (J.to_line v) = Ok v)

let parse_never_raises =
  QCheck2.Test.make ~name:"parse never raises" ~count:1000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(string_size (int_bound 40))
    (fun s ->
      match Jsonin.parse s with Ok _ | Error _ -> true)

(* Resource bombs: nesting well past the depth cap (where the old
   recursive parser died with [Stack_overflow]) and degenerate long
   tokens.  The contract is errors-as-values — no exception may escape
   [parse] for any input. *)
let bomb_gen =
  let open QCheck2.Gen in
  oneof
    [
      (* nesting past (and far past) the cap, opener mix included *)
      ( int_range 1 4000 >>= fun depth ->
        oneofl [ "["; "{\"k\":" ] >>= fun opener ->
        bool >|= fun close ->
        let open_part = String.concat "" (List.init depth (fun _ -> opener)) in
        if close && opener = "[" then open_part ^ String.make depth ']' else open_part );
      (* long degenerate tokens: digits, minus signs, quote runs *)
      ( int_range 1 20000 >>= fun n ->
        oneofl [ '1'; '-'; '"'; '\\'; 'e'; '.' ] >|= fun c -> String.make n c );
      (* a long valid-ish string token with trailing garbage *)
      (int_range 1 20000 >|= fun n -> "\"" ^ String.make n 'x');
    ]

let parse_never_raises_bombs =
  QCheck2.Test.make ~name:"parse never raises on resource bombs" ~count:200
    ~print:(fun s -> Printf.sprintf "%d bytes: %S..." (String.length s)
                       (String.sub s 0 (min 40 (String.length s))))
    bomb_gen
    (fun s ->
      match Jsonin.parse s with Ok _ | Error _ -> true)

let test_depth_cap () =
  let nested n = String.make n '[' ^ String.make n ']' in
  (* at the cap: fine *)
  Alcotest.(check bool) "at cap parses" true
    (Result.is_ok (Jsonin.parse (nested Jsonin.default_max_depth)));
  (* past the cap: a structured error, not an exception *)
  (match Jsonin.parse (nested (Jsonin.default_max_depth + 1)) with
  | Error { Jsonin.kind = Jsonin.Depth_exceeded; _ } -> ()
  | Error e -> Alcotest.failf "wrong kind: %s" (Jsonin.error_to_string e)
  | Ok _ -> Alcotest.fail "parsed past the cap");
  (* a megabyte of openers: returns quickly as an error value (this
     input killed the pre-cap parser with Stack_overflow) *)
  (match Jsonin.parse (String.make 1_000_000 '[') with
  | Error { Jsonin.kind = Jsonin.Depth_exceeded; _ } -> ()
  | Error e -> Alcotest.failf "wrong kind for bomb: %s" (Jsonin.error_to_string e)
  | Ok _ -> Alcotest.fail "parsed the bomb");
  (* the cap is configurable *)
  (match Jsonin.parse ~max_depth:2 "[[[1]]]" with
  | Error { Jsonin.kind = Jsonin.Depth_exceeded; _ } -> ()
  | _ -> Alcotest.fail "custom cap not honored");
  Alcotest.(check bool) "objects count too" true
    (match Jsonin.parse ~max_depth:2 {|{"a":{"b":{"c":1}}}|} with
    | Error { Jsonin.kind = Jsonin.Depth_exceeded; _ } -> true
    | _ -> false)

let test_max_bytes () =
  (match Jsonin.parse ~max_bytes:8 "[1,2,3,4,5]" with
  | Error { Jsonin.kind = Jsonin.Input_too_large; _ } -> ()
  | Error e -> Alcotest.failf "wrong kind: %s" (Jsonin.error_to_string e)
  | Ok _ -> Alcotest.fail "parsed oversize input");
  Alcotest.(check bool) "under the limit parses" true
    (Jsonin.parse ~max_bytes:8 "[1,2]" = Ok (J.List [ J.Int 1; J.Int 2 ]))

(* ---------- Jsonout: non-finite floats ---------- *)

let test_nonfinite_floats () =
  Alcotest.(check string) "nan" "null" (J.to_line (J.Float Float.nan));
  Alcotest.(check string) "inf" "null" (J.to_line (J.Float Float.infinity));
  Alcotest.(check string) "-inf" "null" (J.to_line (J.Float Float.neg_infinity));
  Alcotest.(check string) "nested" "[null,1,2.5]"
    (J.to_line (J.List [ J.Float Float.nan; J.Int 1; J.Float 2.5 ]));
  (* The whole document stays valid JSON for any reader. *)
  Alcotest.(check bool) "reparses" true
    (Jsonin.parse (J.to_string (J.Obj [ ("x", J.Float Float.infinity) ]))
    = Ok (J.Obj [ ("x", J.Null) ]))

(* ---------- Jsonin: units ---------- *)

let test_parse_scalars () =
  Alcotest.(check bool) "int" true (Jsonin.parse "42" = Ok (J.Int 42));
  Alcotest.(check bool) "negative" true (Jsonin.parse "-7" = Ok (J.Int (-7)));
  Alcotest.(check bool) "float" true (Jsonin.parse "4.5" = Ok (J.Float 4.5));
  Alcotest.(check bool) "exponent" true (Jsonin.parse "1e3" = Ok (J.Float 1000.0));
  Alcotest.(check bool) "true" true (Jsonin.parse "true" = Ok (J.Bool true));
  Alcotest.(check bool) "null" true (Jsonin.parse " null " = Ok J.Null);
  Alcotest.(check bool) "string" true (Jsonin.parse {|"hi"|} = Ok (J.Str "hi"))

let test_parse_escapes () =
  Alcotest.(check bool) "basic escapes" true
    (Jsonin.parse {|"a\"b\\c\nd\te"|} = Ok (J.Str "a\"b\\c\nd\te"));
  Alcotest.(check bool) "unicode escape" true
    (Jsonin.parse "\"A\\u00e9\"" = Ok (J.Str "A\xc3\xa9"));
  Alcotest.(check bool) "surrogate pair" true
    (Jsonin.parse "\"\\ud83d\\ude00\"" = Ok (J.Str "\xf0\x9f\x98\x80"));
  Alcotest.(check bool) "lone surrogate rejected" true
    (Result.is_error (Jsonin.parse {|"\ud800"|}))

let test_parse_malformed () =
  let bad =
    [
      ""; "{"; "[1,"; "[1,]"; {|{"a":}|}; {|{"a" 1}|}; "nul"; "tru"; "1 2"; "[1] x";
      {|"unterminated|}; "\"ctrl\nchar\""; "{\"a\":1,}"; "+1"; "-"; "[,]"; "}";
    ]
  in
  List.iter
    (fun s ->
      match Jsonin.parse s with
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error has message for %S" s)
            true
            (String.length (Jsonin.error_to_string e) > 0)
      | Ok v -> Alcotest.failf "parsed %S as %s" s (json_print v))
    bad

let test_accessors () =
  let doc = J.Obj [ ("a", J.Int 3); ("b", J.Str "x"); ("c", J.List [ J.Null ]) ] in
  Alcotest.(check bool) "member hit" true (Jsonin.member "b" doc = Some (J.Str "x"));
  Alcotest.(check bool) "member miss" true (Jsonin.member "z" doc = None);
  Alcotest.(check bool) "int opt" true (Jsonin.to_int_opt (J.Int 5) = Some 5);
  Alcotest.(check bool) "float accepts int" true (Jsonin.to_float_opt (J.Int 5) = Some 5.0);
  Alcotest.(check bool) "wrong type is None" true (Jsonin.to_string_opt (J.Int 5) = None);
  Alcotest.(check bool) "list opt" true
    (Jsonin.to_list_opt (J.List [ J.Null ]) = Some [ J.Null ])

(* ---------- Protocol ---------- *)

let check_error line code =
  match Protocol.of_line line with
  | Ok _ -> Alcotest.failf "accepted %S" line
  | Error e -> Alcotest.(check string) (Printf.sprintf "code for %S" line) code e.Protocol.code

let test_protocol_errors () =
  check_error "not json at all" "bad-json";
  check_error "[1,2]" "bad-request";
  check_error {|{"id": 7}|} "bad-request";
  check_error {|{"op": 3}|} "bad-request";
  check_error {|{"op": "frobnicate", "id": 7}|} "unknown-op";
  check_error {|{"op": "synthesize"}|} "bad-request";
  check_error {|{"op": "synthesize", "scenes": [], "demos": ""}|} "bad-payload";
  check_error {|{"op": "session-round"}|} "bad-request";
  (* The id is echoed even on errors, so pipelining clients can match. *)
  (match Protocol.of_line {|{"op": "frobnicate", "id": 7}|} with
  | Error e -> Alcotest.(check bool) "id echoed" true (e.Protocol.id = J.Int 7)
  | Ok _ -> Alcotest.fail "accepted unknown op")

let test_protocol_roundtrip () =
  let requests =
    [
      Protocol.Ping;
      Protocol.Metrics;
      Protocol.Shutdown;
      Protocol.Session_open { task_id = 3; images = Some 6; seed = 11 };
      Protocol.Session_open { task_id = 1; images = None; seed = 42 };
      Protocol.Session_round { session = 2; timeout_s = Some 1.5 };
      Protocol.Session_round { session = 2; timeout_s = None };
      Protocol.Session_close { session = 2 };
    ]
  in
  List.iter
    (fun request ->
      let line = J.to_line (Protocol.to_json ~id:(J.Int 9) request) in
      match Protocol.of_line line with
      | Ok t ->
          Alcotest.(check bool) ("id of " ^ line) true (t.Protocol.id = J.Int 9);
          Alcotest.(check bool) ("payload of " ^ line) true (t.Protocol.request = request)
      | Error e -> Alcotest.failf "rejected %s: %s" line e.Protocol.message)
    requests

let test_protocol_synthesize_roundtrip () =
  let dataset = Dataset.generate ~n_images:3 ~seed:5 Dataset.Objects in
  let scenes = dataset.Dataset.scenes in
  let demos = [ { Demo_io.image_id = (List.hd scenes).Scene.image_id; edits = [] } ] in
  let request = Protocol.Synthesize { scenes; demos; timeout_s = Some 0.25; optimal = false } in
  let line = J.to_line (Protocol.to_json ~id:J.Null request) in
  (match Protocol.of_line line with
  | Ok t -> Alcotest.(check bool) "synthesize round-trips" true (t.Protocol.request = request)
  | Error e -> Alcotest.failf "rejected synthesize: %s" e.Protocol.message);
  let task = Benchmarks.by_id 30 in
  let apply = Protocol.Apply { program = task.Task.ground_truth; scenes } in
  match Protocol.of_line (J.to_line (Protocol.to_json ~id:J.Null apply)) with
  | Ok t -> Alcotest.(check bool) "apply round-trips" true (t.Protocol.request = apply)
  | Error e -> Alcotest.failf "rejected apply: %s" e.Protocol.message

(* ---------- Metrics ---------- *)

let snap_path snapshot path =
  let rec go doc = function
    | [] -> Some doc
    | key :: rest -> ( match Jsonin.member key doc with None -> None | Some v -> go v rest)
  in
  go snapshot path

let snap_float snapshot path =
  match Option.bind (snap_path snapshot path) Jsonin.to_float_opt with
  | Some f -> f
  | None -> Alcotest.failf "missing %s" (String.concat "." path)

let snap_int snapshot path =
  match Option.bind (snap_path snapshot path) Jsonin.to_int_opt with
  | Some i -> i
  | None -> Alcotest.failf "missing %s" (String.concat "." path)

let test_metrics_quantiles () =
  let m = Metrics.create () in
  (* 100 known latencies, out of order on purpose. *)
  let latencies = List.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1) /. 1000.0) in
  List.iter (fun l -> Metrics.record m ~op:"synthesize" ~outcome:"ok" ~latency_s:l ()) latencies;
  Metrics.observe_queue_depth m 3;
  Metrics.observe_queue_depth m 7;
  Metrics.observe_queue_depth m 2;
  let s = Metrics.snapshot m ~queue_depth:1 ~sessions_open:0 ~connections_open:0 in
  Alcotest.(check int) "total" 100 (snap_int s [ "requests_total" ]);
  Alcotest.(check int) "per-op" 100 (snap_int s [ "requests"; "synthesize"; "ok" ]);
  Alcotest.(check int) "count" 100 (snap_int s [ "latency"; "count" ]);
  Alcotest.(check int) "max queue" 7 (snap_int s [ "max_queue_depth" ]);
  Alcotest.(check int) "live queue" 1 (snap_int s [ "queue_depth" ]);
  let p50 = snap_float s [ "latency"; "p50_s" ] in
  let p95 = snap_float s [ "latency"; "p95_s" ] in
  Alcotest.(check bool) "p50 near 0.050" true (Float.abs (p50 -. 0.050) <= 0.002);
  Alcotest.(check bool) "p95 near 0.095" true (Float.abs (p95 -. 0.095) <= 0.002);
  Alcotest.(check (float 1e-9)) "max" 0.100 (snap_float s [ "latency"; "max_s" ])

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.record m ~op:"synthesize" ~outcome:"ok" ~latency_s:0.01
    ~counts:[ ("fwd-bwd", 3); ("equiv-dedup", 5) ] ();
  Metrics.record m ~op:"synthesize" ~outcome:"ok" ~latency_s:0.01
    ~counts:[ ("fwd-bwd", 1) ] ();
  Metrics.record_dropped m;
  let s = Metrics.snapshot m ~queue_depth:0 ~sessions_open:2 ~connections_open:3 in
  Alcotest.(check int) "counter summed" 4 (snap_int s [ "counters"; "fwd-bwd" ]);
  Alcotest.(check int) "single counter" 5 (snap_int s [ "counters"; "equiv-dedup" ]);
  Alcotest.(check int) "dropped" 1 (snap_int s [ "dropped_responses" ]);
  Alcotest.(check int) "sessions gauge" 2 (snap_int s [ "sessions_open" ]);
  Alcotest.(check int) "connections gauge" 3 (snap_int s [ "connections_open" ])

let test_metrics_faults () =
  let m = Metrics.create () in
  Metrics.record_fault m "line-too-long";
  Metrics.record_fault m "line-too-long";
  Metrics.record_fault m "read-timeout";
  let s = Metrics.snapshot m ~queue_depth:0 ~sessions_open:0 ~connections_open:0 in
  Alcotest.(check int) "line-too-long" 2 (snap_int s [ "faults"; "line-too-long" ]);
  Alcotest.(check int) "read-timeout" 1 (snap_int s [ "faults"; "read-timeout" ]);
  Alcotest.(check bool) "absent fault absent" true
    (snap_path s [ "faults"; "overloaded" ] = None)

(* Four threads hammering every recorder concurrently: the counts must
   come out exact (one mutex, no lost updates) and the snapshot must
   never raise mid-churn. *)
let test_metrics_concurrent () =
  let m = Metrics.create () in
  let threads = 4 and per_thread = 1000 in
  let workers =
    List.init threads (fun t ->
        Thread.create
          (fun () ->
            for i = 1 to per_thread do
              Metrics.record m ~op:"synthesize"
                ~outcome:(if i mod 2 = 0 then "ok" else "timeout")
                ~latency_s:(float_of_int ((i + t) mod 100) /. 1000.0)
                ~counts:[ ("equiv-dedup", 1) ] ();
              Metrics.record_fault m "read-timeout";
              if i mod 100 = 0 then
                ignore (Metrics.snapshot m ~queue_depth:0 ~sessions_open:0 ~connections_open:0)
            done)
          ())
  in
  List.iter Thread.join workers;
  let s = Metrics.snapshot m ~queue_depth:0 ~sessions_open:0 ~connections_open:0 in
  let total = threads * per_thread in
  Alcotest.(check int) "total exact" total (snap_int s [ "requests_total" ]);
  Alcotest.(check int) "ok exact" (total / 2) (snap_int s [ "requests"; "synthesize"; "ok" ]);
  Alcotest.(check int) "timeout exact" (total / 2)
    (snap_int s [ "requests"; "synthesize"; "timeout" ]);
  Alcotest.(check int) "latency count exact" total (snap_int s [ "latency"; "count" ]);
  Alcotest.(check int) "counter exact" total (snap_int s [ "counters"; "equiv-dedup" ]);
  Alcotest.(check int) "faults exact" total (snap_int s [ "faults"; "read-timeout" ]);
  (* quantiles are over the recent 4096-sample window, values in range *)
  let p95 = snap_float s [ "latency"; "p95_s" ] in
  Alcotest.(check bool) "p95 in range" true (p95 >= 0.0 && p95 <= 0.1)

(* ---------- end-to-end over a temporary unix socket ---------- *)

(* One demonstration per chosen image, sparsest first, replaying the
   task's ground truth — the same payload the load generator sends. *)
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

let temp_socket () =
  let path = Filename.temp_file "imageeye-serve" ".sock" in
  Sys.remove path;
  path

(* Readiness via the client's own bounded exponential backoff. *)
let connect_with_retry path = Client.connect_retry ~attempts:12 (Client.Unix_socket path)

let rpc_ok c request =
  match Client.rpc c request with
  | Error msg -> Alcotest.failf "transport error: %s" msg
  | Ok r ->
      if not (Client.is_ok r) then Alcotest.failf "server error: %s" (J.to_line r);
      r

let rpc_err c request =
  match Client.rpc c request with
  | Error msg -> Alcotest.failf "transport error: %s" msg
  | Ok r ->
      if Client.is_ok r then Alcotest.failf "expected error, got: %s" (J.to_line r);
      Option.value ~default:"?"
        (Option.bind
           (Option.bind (Jsonin.member "error" r) (Jsonin.member "code"))
           Jsonin.to_string_opt)

let outcome r =
  Option.value ~default:"?" (Option.bind (Jsonin.member "outcome" r) Jsonin.to_string_opt)

let stat r key = Option.bind (Jsonin.member "stats" r) (fun s -> Jsonin.member key s)

(* The whole daemon lifecycle in one test: the sub-checks share a
   running server, and alcotest runs tests in declaration order anyway.
   Bounded by the per-request deadlines, not the test harness. *)
let test_e2e () =
  let path = temp_socket () in
  let config =
    {
      Server.default_config with
      endpoint = Server.Unix_socket path;
      quiet = true;
      default_timeout_s = 30.0;
    }
  in
  let server = Thread.create (fun () -> Server.run config) () in
  let c = connect_with_retry path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* ping *)
  let r = rpc_ok c Protocol.Ping in
  Alcotest.(check bool) "pong" true (Jsonin.member "pong" r = Some (J.Bool true));

  (* synthesize: cold, then twice more against the same interned
     universe — a repeated spec is searched afresh and must cost exactly
     what the first search did. *)
  let scenes, demos = demo_payload 30 ~images:6 ~demo_images:1 ~seed:3 in
  let synth = Protocol.Synthesize { scenes; demos; timeout_s = Some 20.0; optimal = false } in
  let r1 = rpc_ok c synth in
  Alcotest.(check string) "cold outcome" "success" (outcome r1);
  Alcotest.(check bool) "has program" true (Jsonin.member "program" r1 <> None);
  let nodes r = Option.value ~default:0 (Option.bind (stat r "nodes") Jsonin.to_int_opt) in
  Alcotest.(check bool) "searched" true (nodes r1 > 0);
  let _ = rpc_ok c synth in
  let r3 = rpc_ok c synth in
  Alcotest.(check string) "repeat outcome" "success" (outcome r3);
  Alcotest.(check bool) "repeat program" true
    (Jsonin.member "program" r3 = Jsonin.member "program" r1);
  Alcotest.(check int) "repeat nodes" (nodes r1) (nodes r3);

  (* apply: the learned program induces an edit on every sent scene *)
  let program =
    match Option.bind (Jsonin.member "program" r1) Jsonin.to_string_opt with
    | Some p -> (
        match Imageeye_core.Parser.program p with
        | Ok prog -> prog
        | Error e -> Alcotest.failf "unparsable program: %s" (Imageeye_core.Parser.error_to_string e))
    | None -> Alcotest.fail "no program in response"
  in
  let r = rpc_ok c (Protocol.Apply { program; scenes }) in
  (match Option.bind (Jsonin.member "edits" r) Jsonin.to_list_opt with
  | Some edits -> Alcotest.(check int) "one entry per image" (List.length scenes) (List.length edits)
  | None -> Alcotest.fail "no edits in apply response");

  (* deadline: a hard multi-demo spec with a 10 ms budget times out,
     and the server keeps serving afterwards *)
  let hard_scenes, hard_demos = demo_payload 16 ~images:10 ~demo_images:6 ~seed:97 in
  let r =
    rpc_ok c (Protocol.Synthesize { scenes = hard_scenes; demos = hard_demos; timeout_s = Some 0.01; optimal = false })
  in
  Alcotest.(check string) "deadline outcome" "timeout" (outcome r);
  let r = rpc_ok c Protocol.Ping in
  Alcotest.(check bool) "alive after timeout" true (Jsonin.member "pong" r = Some (J.Bool true));

  (* malformed input: structured errors, connection survives *)
  (match Client.rpc_json c (J.Raw "this is not json") with
  | Ok r ->
      Alcotest.(check bool) "bad json not ok" false (Client.is_ok r);
      Alcotest.(check bool) "bad json code" true
        (Option.bind (Jsonin.member "error" r) (Jsonin.member "code")
        = Some (J.Str "bad-json"))
  | Error msg -> Alcotest.failf "transport error: %s" msg);
  (match Client.rpc_json c (J.Obj [ ("id", J.Int 1); ("op", J.Str "frobnicate") ]) with
  | Ok r ->
      Alcotest.(check bool) "unknown op code" true
        (Option.bind (Jsonin.member "error" r) (Jsonin.member "code")
        = Some (J.Str "unknown-op"))
  | Error msg -> Alcotest.failf "transport error: %s" msg);

  (* session: open, run rounds to completion, close *)
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
  Alcotest.(check string) "session solved" "solved" (status final);
  Alcotest.(check bool) "session program" true (Jsonin.member "program" final <> None);
  let _ = rpc_ok c (Protocol.Session_close { session }) in
  Alcotest.(check string) "closed twice" "no-session"
    (rpc_err c (Protocol.Session_close { session }));
  Alcotest.(check string) "round after close" "no-session"
    (rpc_err c (Protocol.Session_round { session; timeout_s = None }));
  Alcotest.(check string) "bad task id" "bad-request"
    (rpc_err c (Protocol.Session_open { task_id = 99999; images = None; seed = 1 }));

  (* metrics reflect what this test did *)
  let r = rpc_ok c Protocol.Metrics in
  let m = match Jsonin.member "metrics" r with Some m -> m | None -> Alcotest.fail "no metrics" in
  Alcotest.(check bool) "requests counted" true (snap_int m [ "requests_total" ] >= 10);
  Alcotest.(check bool) "synthesize ok counted" true
    (snap_int m [ "requests"; "synthesize"; "ok" ] >= 3);
  Alcotest.(check bool) "timeout counted" true
    (snap_int m [ "requests"; "synthesize"; "timeout" ] >= 1);
  Alcotest.(check bool) "search counters surfaced" true
    (snap_int m [ "counters"; "eval-cache(evaluated)" ] > 0);
  Alcotest.(check int) "no open sessions" 0 (snap_int m [ "sessions_open" ]);

  (* graceful shutdown via the protocol *)
  let r = rpc_ok c Protocol.Shutdown in
  Alcotest.(check bool) "shutdown acked" true (Jsonin.member "draining" r = Some (J.Bool true));
  Thread.join server;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

(* A restarted daemon keeps nothing in memory: no interned universe, no
   cached vocabulary.  What must survive the restart is the answer — the
   first life's program, found with the same number of nodes. *)
let test_restart () =
  let path = temp_socket () in
  let config =
    {
      Server.default_config with
      endpoint = Server.Unix_socket path;
      quiet = true;
      default_timeout_s = 30.0;
    }
  in
  let scenes, demos = demo_payload 30 ~images:6 ~demo_images:1 ~seed:3 in
  let synth = Protocol.Synthesize { scenes; demos; timeout_s = Some 20.0; optimal = false } in
  let nodes r = Option.value ~default:0 (Option.bind (stat r "nodes") Jsonin.to_int_opt) in
  let life () =
    let server = Thread.create (fun () -> Server.run config) () in
    let c = connect_with_retry path in
    let r =
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let r = rpc_ok c synth in
      let _ = rpc_ok c Protocol.Shutdown in
      r
    in
    Thread.join server;
    Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
    r
  in
  let r1 = life () in
  Alcotest.(check string) "first life outcome" "success" (outcome r1);
  Alcotest.(check bool) "first life searched" true (nodes r1 > 0);
  Batch.clear_shared ();
  Bank_registry.clear ();
  let r2 = life () in
  Alcotest.(check string) "restart outcome" "success" (outcome r2);
  Alcotest.(check bool) "restart: same program" true
    (Jsonin.member "program" r2 = Jsonin.member "program" r1);
  Alcotest.(check int) "restart: same nodes" (nodes r1) (nodes r2)

(* Regression: the client used to read responses with an unbounded
   [input_line], so a misbehaving (or malicious) server could make it
   buffer arbitrarily much.  It now reads through the same bounded
   [Frame] reader as the server and turns an oversized response line
   into a structured transport error. *)
let test_client_bounded_response () =
  let module Frame = Imageeye_serve.Frame in
  let path = temp_socket () in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 1;
  (* Over the client's cap but under the socket buffer, so the write
     never blocks even though the client stops reading mid-line. *)
  let oversized = String.make (64 * 1024) 'x' in
  let server =
    Thread.create
      (fun () ->
        try
          let fd, _ = Unix.accept srv in
          let frame = Frame.create fd in
          (* Consume the request line, then answer with one line far
             over the client's cap. *)
          ignore (Frame.read_line frame);
          ignore (Unix.write_substring fd oversized 0 (String.length oversized));
          ignore (Unix.write_substring fd "\n" 0 1);
          Unix.close fd
        with _ -> ())
      ()
  in
  let limits = { Frame.max_line_bytes = 4096; read_timeout_s = Some 10.0 } in
  let c = Client.connect_retry ~limits (Client.Unix_socket path) in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Thread.join server;
      Unix.close srv;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      match Client.rpc c Protocol.Ping with
      | Ok r -> Alcotest.failf "expected a transport error, got: %s" (J.to_line r)
      | Error msg ->
          let mentions_limit =
            let needle = "line limit" in
            let n = String.length needle and m = String.length msg in
            let rec scan i = i + n <= m && (String.sub msg i n = needle || scan (i + 1)) in
            scan 0
          in
          if not mentions_limit then
            Alcotest.failf "error does not name the line limit: %s" msg)

let () =
  (* The fake server in [test_client_bounded_response] may still be
     writing when the client hangs up; like the daemon, this process must
     see that as EPIPE on the write, not die of SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "serve"
    [
      ( "jsonin",
        [
          QCheck_alcotest.to_alcotest roundtrip_pretty;
          QCheck_alcotest.to_alcotest roundtrip_line;
          QCheck_alcotest.to_alcotest parse_never_raises;
          QCheck_alcotest.to_alcotest parse_never_raises_bombs;
          Alcotest.test_case "depth cap is an error value" `Quick test_depth_cap;
          Alcotest.test_case "max_bytes is an error value" `Quick test_max_bytes;
          Alcotest.test_case "scalars" `Quick test_parse_scalars;
          Alcotest.test_case "escapes" `Quick test_parse_escapes;
          Alcotest.test_case "malformed input is an error value" `Quick test_parse_malformed;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
      ( "jsonout",
        [ Alcotest.test_case "non-finite floats become null" `Quick test_nonfinite_floats ] );
      ( "protocol",
        [
          Alcotest.test_case "structured errors" `Quick test_protocol_errors;
          Alcotest.test_case "request round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "payload round-trip" `Quick test_protocol_synthesize_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "latency quantiles" `Quick test_metrics_quantiles;
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counters;
          Alcotest.test_case "fault counters" `Quick test_metrics_faults;
          Alcotest.test_case "concurrent recorders are exact" `Quick test_metrics_concurrent;
        ] );
      ( "client",
        [
          Alcotest.test_case "oversized response is a structured error" `Quick
            test_client_bounded_response;
        ] );
      ("e2e", [ Alcotest.test_case "daemon lifecycle" `Slow test_e2e ]);
      ("restart", [ Alcotest.test_case "warmth survives restart" `Slow test_restart ]);
    ]
