(* Tests for the plain-text scene serialization used by the CLI, and for
   the scene and demonstration savers writing through [Fileio]. *)

module Scene = Imageeye_scene.Scene
module Scene_io = Imageeye_scene.Scene_io
module Dataset = Imageeye_scene.Dataset
module Demo_io = Imageeye_interact.Demo_io
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task

let sample () =
  Scene.make ~image_id:9 ~width:300 ~height:200
    [
      {
        Scene.kind =
          Scene.Face_item
            { Scene.face_id = 8; smiling = true; eyes_open = false; mouth_open = true; age_low = 21; age_high = 29 };
        bbox = Test_support.box 10 10 30 30;
      };
      { Scene.kind = Scene.Text_item "$12.99"; bbox = Test_support.box 50 10 40 7 };
      { Scene.kind = Scene.Text_item "two words"; bbox = Test_support.box 50 30 60 7 };
      { Scene.kind = Scene.Thing_item "cat"; bbox = Test_support.box 120 10 40 40 };
      (* detector label sets include multi-word classes *)
      { Scene.kind = Scene.Thing_item "traffic light"; bbox = Test_support.box 170 10 20 40 };
    ]

let test_roundtrip () =
  let s = sample () in
  let s' = Scene_io.of_string (Scene_io.to_string s) in
  Alcotest.(check bool) "equal" true (s = s')

let test_roundtrip_escapes () =
  (* bodies with spaces and percent signs survive *)
  let s =
    Scene.make ~image_id:0 ~width:100 ~height:100
      [ { Scene.kind = Scene.Text_item "100% off now"; bbox = Test_support.box 0 0 80 7 } ]
  in
  let s' = Scene_io.of_string (Scene_io.to_string s) in
  Alcotest.(check bool) "escaped body" true (s = s')

let test_rejects_garbage () =
  List.iter
    (fun input ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" input) true
        (try
           ignore (Scene_io.of_string input);
           false
         with Failure _ -> true))
    [
      "";
      "nope";
      "scene 1 2";
      "scene 0 100 100\nblob 1 2 3 4 x";
      (* malformed %-escapes must raise Failure, not Char.chr/int_of_string
         errors or silent pass-through *)
      "scene 0 100 100\ntext 1 2 3 4 a%XZb";
      "scene 0 100 100\ntext 1 2 3 4 trailing%2";
      "scene 0 100 100\ntext 1 2 3 4 trailing%";
      "scene 0 100 100\nthing 1 2 3 4 bad%G0class";
    ]

(* Property: any printable body/class text survives a round-trip through
   one serialized scene — spaces, percent signs and '%XX'-lookalikes
   included. *)
let text_prop =
  let ascii = QCheck2.Gen.(map Char.chr (int_range 32 126)) in
  QCheck2.Test.make ~name:"arbitrary text and thing classes roundtrip" ~count:200
    QCheck2.Gen.(string_size ~gen:ascii (int_range 1 20))
    (fun body ->
      let s =
        Scene.make ~image_id:1 ~width:100 ~height:100
          [
            { Scene.kind = Scene.Text_item body; bbox = Test_support.box 0 0 50 7 };
            { Scene.kind = Scene.Thing_item body; bbox = Test_support.box 0 20 30 30 };
          ]
      in
      Scene_io.of_string (Scene_io.to_string s) = s)

let test_file_roundtrip () =
  let s = sample () in
  let path = Filename.temp_file "imageeye" ".scene" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scene_io.save s path;
      Alcotest.(check bool) "file roundtrip" true (Scene_io.load path = s))

let test_dataset_roundtrip () =
  let ds = Dataset.generate ~n_images:6 ~seed:3 Dataset.Receipts in
  let dir = Filename.temp_file "imageeye" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      Scene_io.save_dataset ds ~dir;
      let loaded = Scene_io.load_scenes ~dir in
      Alcotest.(check int) "count" 6 (List.length loaded);
      Alcotest.(check bool) "scenes equal" true (loaded = ds.scenes))

(* Property: every generated scene of every domain round-trips. *)
let roundtrip_prop =
  QCheck2.Test.make ~name:"all generated scenes roundtrip" ~count:40
    QCheck2.Gen.(
      let* domain = oneofl Dataset.all_domains in
      let* seed = int_bound 1000 in
      return (domain, seed))
    (fun (domain, seed) ->
      let ds = Dataset.generate ~n_images:2 ~seed domain in
      List.for_all (fun s -> Scene_io.of_string (Scene_io.to_string s) = s) ds.scenes)

let temp_dir () =
  let path = Filename.temp_file "imageeye-savers" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

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

let () =
  Alcotest.run "scene_io"
    [
      ( "scene_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "escapes" `Quick test_roundtrip_escapes;
          Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
          QCheck_alcotest.to_alcotest text_prop;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "dataset roundtrip" `Quick test_dataset_roundtrip;
          QCheck_alcotest.to_alcotest roundtrip_prop;
        ] );
      ("fileio", [ Alcotest.test_case "scene/demo savers" `Quick test_scene_io_atomic_savers ]);
    ]
