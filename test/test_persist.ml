(* Durability layer: atomic file writes, CRC-32, snapshot save/load of
   the interned universes, state-dir locking, and the restart-warmth
   end-to-end scenario (serve, synthesize, drain, restart, repeat spec
   over the restored universe — including loud rejection of a corrupted
   snapshot followed by a working cold start). *)

module Fileio = Imageeye_util.Fileio
module Checksum = Imageeye_util.Checksum
module J = Imageeye_util.Jsonout
module Jsonin = Imageeye_util.Jsonin
module Persist = Imageeye_serve.Persist
module Server = Imageeye_serve.Server
module Client = Imageeye_serve.Client
module Protocol = Imageeye_serve.Protocol
module Faultnet = Imageeye_serve.Faultnet
module Bank_registry = Imageeye_core.Bank_registry
module Edit = Imageeye_core.Edit
module Batch = Imageeye_vision.Batch
module Universe = Imageeye_symbolic.Universe
module Scene = Imageeye_scene.Scene
module Scene_io = Imageeye_scene.Scene_io
module Dataset = Imageeye_scene.Dataset
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task
module Demo_io = Imageeye_interact.Demo_io

let temp_dir () =
  let path = Filename.temp_file "imageeye-persist" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let cold_registries () =
  Bank_registry.clear ();
  Batch.clear_shared ()

(* ---------- atomic writes ---------- *)

let test_write_atomic_basic () =
  let dir = temp_dir () in
  let path = Filename.concat dir "out.txt" in
  Fileio.write_atomic_string path "first";
  Alcotest.(check string) "written" "first" (read_file path);
  Fileio.write_atomic_string path "second";
  Alcotest.(check string) "replaced" "second" (read_file path);
  Alcotest.(check (list string)) "no temp litter" [ "out.txt" ]
    (Array.to_list (Sys.readdir dir));
  rm_rf dir

(* The satellite regression: a write killed partway (the writer raises
   mid-stream) must leave the original file byte-identical and no
   temporary behind. *)
let test_write_atomic_interrupted () =
  let dir = temp_dir () in
  let path = Filename.concat dir "out.txt" in
  Fileio.write_atomic_string path "precious original";
  (match
     Fileio.write_atomic path (fun oc ->
         output_string oc "half a replace";
         raise Exit)
   with
  | () -> Alcotest.fail "interrupted write reported success"
  | exception Exit -> ());
  Alcotest.(check string) "original intact" "precious original" (read_file path);
  Alcotest.(check (list string)) "no temp litter" [ "out.txt" ]
    (Array.to_list (Sys.readdir dir));
  rm_rf dir

let test_scene_io_atomic_savers () =
  let dir = temp_dir () in
  (* save_dataset creates its directory recursively *)
  let nested = Filename.concat (Filename.concat dir "a") "b" in
  let dataset = Dataset.generate ~n_images:2 ~seed:7 (Benchmarks.by_id 1).Task.domain in
  Scene_io.save_dataset dataset ~dir:nested;
  let loaded = Scene_io.load_scenes ~dir:nested in
  Alcotest.(check int) "round-trips through the created dir"
    (List.length dataset.Dataset.scenes) (List.length loaded);
  (* demo save is atomic through the same Fileio path *)
  let demo_path = Filename.concat dir "demo.json" in
  Demo_io.save [ { Demo_io.image_id = 3; edits = [] } ] demo_path;
  (match Demo_io.load demo_path with
  | Ok [ d ] -> Alcotest.(check int) "demo round-trips" 3 d.Demo_io.image_id
  | Ok _ | Error _ -> Alcotest.fail "demo did not round-trip");
  List.iter (fun f -> Sys.remove (Filename.concat nested f)) (Array.to_list (Sys.readdir nested));
  Unix.rmdir nested;
  Unix.rmdir (Filename.concat dir "a");
  rm_rf dir

(* ---------- crc32 ---------- *)

let test_crc32_vectors () =
  (* The standard CRC-32/IEEE check value. *)
  Alcotest.(check string) "123456789" "cbf43926" (Checksum.to_hex (Checksum.crc32 "123456789"));
  Alcotest.(check string) "empty" "00000000" (Checksum.to_hex (Checksum.crc32 ""));
  let s = "imageeye snapshot payload" in
  let split = 7 in
  let streamed =
    Checksum.crc32_update
      (Checksum.crc32_update 0l s ~pos:0 ~len:split)
      s ~pos:split ~len:(String.length s - split)
  in
  Alcotest.(check bool) "streaming matches" true (streamed = Checksum.crc32 s)

let test_crc32_hex () =
  let c = Checksum.crc32 "round-trip" in
  Alcotest.(check bool) "hex round-trips" true (Checksum.of_hex (Checksum.to_hex c) = Some c);
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" bad) true (Checksum.of_hex bad = None))
    [ ""; "12345"; "123456789"; "xyzwxyzw"; "-1234567"; "+1234567"; "12_4567a" ]

(* ---------- snapshot round-trip ---------- *)

(* The warm state a snapshot carries: each interned scene list with its
   universe's size, independent of physical universes. *)
let interned () =
  Batch.shared_entries ()
  |> List.map (fun (scenes, u) -> (List.map Scene_io.to_string scenes, Universe.size u))
  |> List.sort compare

(* Intern one universe per non-empty prefix of a generated dataset;
   returns the dataset's scenes. *)
let intern_prefixes ~seed ~n_images =
  let dataset = Dataset.generate ~n_images ~seed (Benchmarks.by_id 1).Task.domain in
  let scenes = dataset.Dataset.scenes in
  List.iteri
    (fun i _ -> ignore (Batch.shared_universe_of_scenes (List.filteri (fun j _ -> j <= i) scenes)))
    scenes;
  scenes

let roundtrip_once ~seed ~n_images =
  cold_registries ();
  let scenes = intern_prefixes ~seed ~n_images in
  let before = interned () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let saved = Persist.save ~state_dir:dir in
  Alcotest.(check int) "every universe saved" (List.length before) saved;
  cold_registries ();
  (match Persist.load ~state_dir:dir with
  | Ok (Some loaded) -> Alcotest.(check int) "universes restored" saved loaded
  | Ok None -> Alcotest.fail "snapshot vanished"
  | Error msg -> Alcotest.failf "snapshot rejected: %s" msg);
  Alcotest.(check (list (pair (list string) int))) "interned state equal" before (interned ());
  (* A spec over restored scenes gets the restored universe back. *)
  ignore (Batch.shared_universe_of_scenes scenes);
  Alcotest.(check int) "restored universe reused" saved (List.length (Batch.shared_entries ()));
  cold_registries ()

let test_roundtrip_deterministic () = roundtrip_once ~seed:11 ~n_images:2

let prop_roundtrip =
  QCheck.Test.make ~name:"random universes survive the round-trip" ~count:6
    QCheck.(pair (int_bound 999) (int_range 1 4))
    (fun (seed, n_images) ->
      roundtrip_once ~seed ~n_images;
      true)

let test_save_is_deterministic () =
  cold_registries ();
  let _ = intern_prefixes ~seed:5 ~n_images:3 in
  let dir1 = temp_dir () and dir2 = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir1;
      rm_rf dir2)
    (fun () ->
      let _ = Persist.save ~state_dir:dir1 in
      let _ = Persist.save ~state_dir:dir2 in
      Alcotest.(check bool) "byte-identical snapshots" true
        (read_file (Persist.snapshot_path dir1) = read_file (Persist.snapshot_path dir2)));
  cold_registries ()

(* ---------- rejection of bad snapshots ---------- *)

let saved_snapshot_dir () =
  cold_registries ();
  let _ = intern_prefixes ~seed:3 ~n_images:2 in
  let dir = temp_dir () in
  let _ = Persist.save ~state_dir:dir in
  cold_registries ();
  dir

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_rejection ~what dir substring =
  (match Persist.load ~state_dir:dir with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the cause (got %S)" what msg)
        true (contains msg substring)
  | Ok _ -> Alcotest.failf "%s was accepted" what);
  Alcotest.(check bool) (what ^ " leaves cold universes") true (Batch.shared_entries () = [])

let test_load_missing () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  match Persist.load ~state_dir:dir with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "restored state from an empty directory"
  | Error msg -> Alcotest.failf "fresh directory rejected: %s" msg

let test_load_corrupt_byte () =
  let dir = saved_snapshot_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Persist.snapshot_path dir in
  let content = Bytes.of_string (read_file path) in
  let header_end = Bytes.index content '\n' in
  let pos = header_end + 1 + ((Bytes.length content - header_end) / 2) in
  Bytes.set content pos (Char.chr (Char.code (Bytes.get content pos) lxor 1));
  Fileio.write_atomic_string path (Bytes.to_string content);
  expect_rejection ~what:"one flipped payload bit" dir "checksum"

let test_load_truncated () =
  let dir = saved_snapshot_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Persist.snapshot_path dir in
  let content = read_file path in
  Fileio.write_atomic_string path (String.sub content 0 (String.length content - 5));
  expect_rejection ~what:"truncated snapshot" dir "truncated"

let test_load_wrong_version () =
  let dir = saved_snapshot_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Persist.snapshot_path dir in
  let content = read_file path in
  let marker = " v2 " in
  let rec find i =
    if i + String.length marker > String.length content then
      Alcotest.fail "no version marker in header"
    else if String.sub content i (String.length marker) = marker then i
    else find (i + 1)
  in
  let at = find 0 in
  let bumped =
    String.sub content 0 at ^ " v999 "
    ^ String.sub content (at + String.length marker)
        (String.length content - at - String.length marker)
  in
  Fileio.write_atomic_string path bumped;
  expect_rejection ~what:"future version" dir "version";
  (* A version 1 snapshot, as daemons that kept extractor banks wrote
     it: valid header and checksum, a [banks] array per universe.  The
     daemon must refuse it by version and start cold. *)
  let scene = List.hd (Dataset.generate ~n_images:1 ~seed:3 Dataset.Wedding).Dataset.scenes in
  let body =
    Printf.sprintf
      {|{"universes":[{"scenes":[%s],"entities":3,"banks":[{"age_thresholds":[18],"max_operands":3,"visits":2,"tiers":[{"saturated":false,"entries":[["All",[0,1,2]]]}]}]}]}|}
      (J.to_line (J.Str (Scene_io.to_string scene)))
  in
  Fileio.write_atomic_string path
    (Printf.sprintf "imageeye-state v1 crc32=%s bytes=%d\n%s"
       (Checksum.to_hex (Checksum.crc32 body))
       (String.length body) body);
  expect_rejection ~what:"v1 snapshot" dir "version v1"

let test_load_garbage () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Fileio.write_atomic_string (Persist.snapshot_path dir) "not a snapshot at all\n{}";
  expect_rejection ~what:"garbage file" dir "snapshot"

(* ---------- state-dir locking ---------- *)

let test_state_dir_lock () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let l1 =
    match Persist.lock_state_dir dir with
    | Ok l -> l
    | Error msg -> Alcotest.failf "first lock refused: %s" msg
  in
  (match Persist.lock_state_dir dir with
  | Ok _ -> Alcotest.fail "second daemon acquired the same state dir"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error is loud (got %S)" msg)
        true
        (String.length msg >= 16 && String.sub msg 0 16 = "state-dir-locked"));
  Persist.unlock l1;
  Persist.unlock l1;
  (* idempotent *)
  match Persist.lock_state_dir dir with
  | Ok l2 -> Persist.unlock l2
  | Error msg -> Alcotest.failf "relock after unlock refused: %s" msg

(* ---------- restart-warmth end to end ---------- *)

(* Same payload the load generator replays (see test_serve). *)
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

let stat_nodes r =
  Option.value ~default:0
    (Option.bind (Jsonin.member "stats" r) (fun s ->
         Option.bind (Jsonin.member "nodes" s) Jsonin.to_int_opt))

let test_restart_warmth_e2e () =
  cold_registries ();
  let state_dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf state_dir) @@ fun () ->
  let config =
    { Server.default_config with state_dir = Some state_dir; default_timeout_s = 30.0 }
  in
  let scenes, demos = demo_payload 30 ~images:6 ~demo_images:1 ~seed:3 in
  let synth = Protocol.Synthesize { scenes; demos; timeout_s = Some 20.0; optimal = false } in

  (* First life: the spec's universe is interned. *)
  let d1 = Faultnet.start ~config () in
  let r1 = Faultnet.with_client d1 (fun c -> rpc_ok c synth) in
  Alcotest.(check bool) "first life interned the universe" true (Batch.shared_entries () <> []);
  (* While the daemon lives, its state dir is locked against a second
     daemon (the faultnet scenario for the lock satellite). *)
  (match Persist.lock_state_dir state_dir with
  | Ok _ -> Alcotest.fail "state dir lockable while a daemon holds it"
  | Error msg ->
      Alcotest.(check bool) "loud state-dir-locked" true
        (String.length msg >= 16 && String.sub msg 0 16 = "state-dir-locked"));
  Faultnet.stop d1;
  Alcotest.(check bool) "drain wrote a snapshot" true
    (Sys.file_exists (Persist.snapshot_path state_dir));

  (* Second life: forget everything in memory, restore from disk, and
     prove the repeated spec reuses the restored universe (no new intern
     entry) and is answered exactly as before the restart. *)
  cold_registries ();
  let d2 = Faultnet.start ~config () in
  Alcotest.(check bool) "universes restored on boot" true
    (Faultnet.metric_int d2 [ "counters"; "persist(restored-universes)" ] >= 1);
  let restored = List.length (Batch.shared_entries ()) in
  Faultnet.with_client d2 (fun c ->
      let r = rpc_ok c synth in
      Alcotest.(check int) "restored universe reused" restored
        (List.length (Batch.shared_entries ()));
      Alcotest.(check bool) "same program" true
        (Jsonin.member "program" r = Jsonin.member "program" r1);
      Alcotest.(check int) "same nodes" (stat_nodes r1) (stat_nodes r));
  Faultnet.stop d2;

  (* Third life: corrupt one byte; boot must loudly reject, start cold,
     and still serve. *)
  let path = Persist.snapshot_path state_dir in
  let content = Bytes.of_string (read_file path) in
  let pos = Bytes.length content - 2 in
  Bytes.set content pos (Char.chr (Char.code (Bytes.get content pos) lxor 1));
  Fileio.write_atomic_string path (Bytes.to_string content);
  cold_registries ();
  let d3 = Faultnet.start ~config () in
  Alcotest.(check int) "rejection counted" 1
    (Faultnet.metric_int d3 [ "faults"; "snapshot-rejected" ]);
  Alcotest.(check int) "nothing restored" 0
    (Faultnet.metric_int d3 [ "counters"; "persist(restored-universes)" ]);
  Faultnet.with_client d3 (fun c ->
      let r = rpc_ok c synth in
      Alcotest.(check bool) "cold start still serves" true (Client.is_ok r));
  Faultnet.stop d3;
  cold_registries ()

let () =
  Alcotest.run "persist"
    [
      ( "fileio",
        [
          Alcotest.test_case "atomic write" `Quick test_write_atomic_basic;
          Alcotest.test_case "interrupted write keeps original" `Quick
            test_write_atomic_interrupted;
          Alcotest.test_case "scene/demo savers" `Quick test_scene_io_atomic_savers;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "hex round-trip" `Quick test_crc32_hex;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip_deterministic;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "deterministic bytes" `Quick test_save_is_deterministic;
          Alcotest.test_case "missing is a cold start" `Quick test_load_missing;
          Alcotest.test_case "flipped bit rejected" `Quick test_load_corrupt_byte;
          Alcotest.test_case "truncation rejected" `Quick test_load_truncated;
          Alcotest.test_case "future version rejected" `Quick test_load_wrong_version;
          Alcotest.test_case "garbage rejected" `Quick test_load_garbage;
        ] );
      ("lock", [ Alcotest.test_case "exclusive per dir" `Quick test_state_dir_lock ]);
      ( "restart",
        [ Alcotest.test_case "warmth survives restart" `Slow test_restart_warmth_e2e ] );
    ]
