(* The streaming tier: deterministic corpus generation, the O(window)
   universe cache, and warm mid-stream repair.

   Everything here is seeded and budgeted by node caps / short synthesis
   timeouts, so the assertions are reproducible: the same (task, seed,
   frames) always bootstraps the same program, mismatches at the same
   frame, and repairs to the same program. *)

module Corpus = Imageeye_corpus.Corpus
module Window = Imageeye_corpus.Window
module Stream = Imageeye_corpus.Stream
module Scene = Imageeye_scene.Scene
module Scene_io = Imageeye_scene.Scene_io
module Dataset = Imageeye_scene.Dataset
module Batch = Imageeye_vision.Batch
module Bank_registry = Imageeye_core.Bank_registry
module Lang = Imageeye_core.Lang
module Benchmarks = Imageeye_tasks.Benchmarks

(* ---------- corpus determinism ---------- *)

let probe_frames = [ 0; 1; 100; 511; 512; 513; 1199 ]

let test_corpus_determinism () =
  let c1 = Corpus.make ~domain:Dataset.Objects ~seed:7 ~frames:1200 in
  let c2 = Corpus.make ~domain:Dataset.Objects ~seed:7 ~frames:1200 in
  List.iter
    (fun f ->
      let s1 = Scene_io.to_string (Corpus.scene c1 f) in
      let s2 = Scene_io.to_string (Corpus.scene c2 f) in
      Alcotest.(check string) (Printf.sprintf "frame %d byte-identical" f) s1 s2;
      Alcotest.(check int)
        (Printf.sprintf "frame %d carries its index as image id" f)
        f (Corpus.scene c1 f).Scene.image_id)
    probe_frames;
  (* A different seed is a different corpus. *)
  let c3 = Corpus.make ~domain:Dataset.Objects ~seed:8 ~frames:1200 in
  Alcotest.(check bool)
    "seed changes the corpus" true
    (List.exists
       (fun f ->
         Scene_io.to_string (Corpus.scene c1 f) <> Scene_io.to_string (Corpus.scene c3 f))
       probe_frames);
  (* Frames are never empty even when drift thins a class to nothing. *)
  for f = 0 to 599 do
    if (Corpus.scene c1 f).Scene.items = [] then
      Alcotest.failf "frame %d came out empty" f
  done

let test_prefix_dataset () =
  let c = Corpus.make ~domain:Dataset.Wedding ~seed:3 ~frames:40 in
  let d = Corpus.prefix_dataset c 8 in
  Alcotest.(check int) "prefix length" 8 (List.length d.Dataset.scenes);
  List.iteri
    (fun i (s : Scene.t) ->
      Alcotest.(check string)
        (Printf.sprintf "prefix frame %d matches the stream" i)
        (Scene_io.to_string (Corpus.scene c i))
        (Scene_io.to_string s))
    d.Dataset.scenes;
  (* Clamped, not raised, beyond the corpus length. *)
  Alcotest.(check int) "prefix clamps" 40
    (List.length (Corpus.prefix_dataset c 1000).Dataset.scenes)

(* ---------- O(window) cache bound ---------- *)

let test_window_bound () =
  let c = Corpus.make ~domain:Dataset.Objects ~seed:11 ~frames:50 in
  let interned_before = Batch.shared_count () in
  let vocabs_before = Bank_registry.registered () in
  let w = Window.create ~window:8 in
  for f = 0 to 49 do
    ignore (Window.universe w f (Corpus.scene c f));
    if Window.live w > 8 then
      Alcotest.failf "frame %d: %d live universes exceed the window" f (Window.live w)
  done;
  Alcotest.(check int) "peak equals the window" 8 (Window.peak w);
  Alcotest.(check int) "every frame built once" 50 (Window.built w);
  Alcotest.(check bool) "old frames are evicted" true (Window.find w 0 = None);
  Alcotest.(check bool) "recent frames stay live" true (Window.find w 49 <> None);
  (* Eviction really releases the process-wide intern tables. *)
  Alcotest.(check bool)
    "intern table is bounded by the window" true
    (Batch.shared_count () - interned_before <= 8);
  (* Revisiting a live frame is a hit, not a rebuild. *)
  let u49 = Window.universe w 49 (Corpus.scene c 49) in
  Alcotest.(check int) "revisit is not a rebuild" 50 (Window.built w);
  Alcotest.(check bool) "revisit returns the interned universe" true
    (match Window.find w 49 with Some u -> u == u49 | None -> false);
  Window.drop w;
  Alcotest.(check int) "drop releases everything" 0 (Window.live w);
  Alcotest.(check int) "drop empties the intern table delta" interned_before
    (Batch.shared_count ());
  Alcotest.(check bool) "drop leaves no new vocabularies" true
    (Bank_registry.registered () <= vocabs_before + 8)

(* ---------- streaming: determinism, bound, warm repair ---------- *)

let stream_config =
  {
    Stream.default_config with
    window = 64;
    bootstrap_frames = 6;
    max_repairs = 2;
    synth_timeout_s = 20.0;
  }

let run_task35 () =
  let task = Benchmarks.by_id 35 in
  let corpus = Corpus.make ~domain:task.Imageeye_tasks.Task.domain ~seed:42 ~frames:2048 in
  match Stream.run ~config:stream_config ~corpus task with
  | Ok r -> r
  | Error msg -> Alcotest.failf "stream bootstrap failed: %s" msg

let test_stream_deterministic () =
  let r1 = run_task35 () in
  let r2 = run_task35 () in
  Alcotest.(check int) "all frames processed" 2048 r1.Stream.frames_done;
  Alcotest.(check string) "edit stream digest is reproducible"
    (Digest.to_hex r1.Stream.edit_digest)
    (Digest.to_hex r2.Stream.edit_digest);
  Alcotest.(check int) "edit totals are reproducible" r1.Stream.edits r2.Stream.edits;
  Alcotest.(check string) "deployed program is reproducible"
    (Lang.program_to_string r1.Stream.program)
    (Lang.program_to_string r2.Stream.program);
  Alcotest.(check bool) "peak live universes bounded by the window" true
    (r1.Stream.peak_live_universes <= stream_config.Stream.window)

let test_warm_repair_cheaper () =
  let r = run_task35 () in
  Alcotest.(check bool) "a mid-stream repair happened" true (r.Stream.repairs <> []);
  Alcotest.(check bool) "no repair attempt failed" false r.Stream.repair_failed;
  List.iter
    (fun (rep : Stream.repair) ->
      match rep.nodes_cold with
      | None -> Alcotest.failf "repair @%d was not cold-compared" rep.at_frame
      | Some cold ->
          Alcotest.(check bool)
            (Printf.sprintf "repair @%d: cold restart solved" rep.at_frame)
            true rep.cold_solved;
          if rep.nodes_warm >= cold then
            Alcotest.failf "repair @%d: warm %d nodes not < cold %d" rep.at_frame
              rep.nodes_warm cold)
    r.Stream.repairs

let test_apply_deterministic () =
  let task = Benchmarks.by_id 35 in
  let corpus = Corpus.make ~domain:task.Imageeye_tasks.Task.domain ~seed:9 ~frames:512 in
  let config = { Stream.default_config with window = 32; cold_compare = false } in
  let r1 = Stream.apply ~config ~corpus task.Imageeye_tasks.Task.ground_truth in
  let r2 = Stream.apply ~config ~corpus task.Imageeye_tasks.Task.ground_truth in
  Alcotest.(check string) "apply digest is reproducible"
    (Digest.to_hex r1.Stream.edit_digest)
    (Digest.to_hex r2.Stream.edit_digest);
  Alcotest.(check bool) "apply never repairs" true (r1.Stream.repairs = []);
  Alcotest.(check bool) "window bound holds under apply" true
    (r1.Stream.peak_live_universes <= 32);
  let other = Corpus.make ~domain:task.Imageeye_tasks.Task.domain ~seed:10 ~frames:512 in
  let r3 = Stream.apply ~config ~corpus:other task.Imageeye_tasks.Task.ground_truth in
  Alcotest.(check bool) "different seed, different stream" true
    (Digest.to_hex r1.Stream.edit_digest <> Digest.to_hex r3.Stream.edit_digest)

let () =
  Alcotest.run "corpus"
    [
      ( "corpus",
        [
          Alcotest.test_case "seeded generation is deterministic" `Quick
            test_corpus_determinism;
          Alcotest.test_case "prefix dataset mirrors the stream" `Quick test_prefix_dataset;
        ] );
      ( "window",
        [ Alcotest.test_case "O(window) cache bound and release" `Quick test_window_bound ]
      );
      ( "stream",
        [
          Alcotest.test_case "stream is deterministic and bounded" `Slow
            test_stream_deterministic;
          Alcotest.test_case "warm repair beats cold restart" `Slow test_warm_repair_cheaper;
          Alcotest.test_case "apply-only stream is deterministic" `Quick
            test_apply_deterministic;
        ] );
    ]
