(* End-to-end integration tests: demonstration -> synthesis -> batch
   application to rendered raster images, across all three domains. *)

module Lang = Imageeye_core.Lang
module Edit = Imageeye_core.Edit
module Apply = Imageeye_core.Apply
module Synthesizer = Imageeye_core.Synthesizer
module Session = Imageeye_interact.Session
module Dataset = Imageeye_scene.Dataset
module Render = Imageeye_scene.Render
module Scene = Imageeye_scene.Scene
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task
module Batch = Imageeye_vision.Batch
module Image = Imageeye_raster.Image
module Universe = Imageeye_symbolic.Universe
module Entity = Imageeye_symbolic.Entity

let config = { Synthesizer.default_config with timeout_s = 15.0 }

(* Full pipeline for one task: run the interaction loop, then apply the
   synthesized program to every rendered image of the dataset and check
   that exactly the ground-truth-edited images changed. *)
let run_pipeline task n_images =
  let dataset = Dataset.generate ~n_images ~seed:42 task.Task.domain in
  let result = Session.run ~config ~dataset task in
  Alcotest.(check bool) (Printf.sprintf "task %d solved" task.Task.id) true result.Session.solved;
  let prog = Option.get result.Session.program in
  let u_all = Batch.universe_of_scenes dataset.scenes in
  let gt_edit = Edit.induced_by_program u_all task.Task.ground_truth in
  List.iter
    (fun scene ->
      let img = Render.scene scene in
      let u = Batch.universe_of_scenes [ scene ] in
      let out = Apply.program u img prog in
      (* The image changes iff the ground truth edits something in it
         (except crop-to-whole-image corner cases, which keep pixels). *)
      let objects = Universe.objects_of_image u_all scene.Scene.image_id in
      let gt_touches = List.exists (fun id -> Edit.actions_of gt_edit id <> []) objects in
      if not gt_touches then
        Alcotest.(check bool)
          (Printf.sprintf "task %d image %d untouched" task.Task.id scene.Scene.image_id)
          true (Image.equal img out))
    dataset.scenes;
  prog

let test_wedding_pipeline () =
  (* Task 4: blur all faces except the bride's. *)
  ignore (run_pipeline (Benchmarks.by_id 4) 25)

let test_receipts_pipeline () =
  (* Task 17: blackout prices and phone numbers. *)
  let prog = run_pipeline (Benchmarks.by_id 17) 8 in
  (* The blackout must visibly darken the price regions of a receipt. *)
  let dataset = Dataset.generate ~n_images:8 ~seed:42 Dataset.Receipts in
  let scene = List.hd dataset.scenes in
  let img = Render.scene scene in
  let u = Batch.universe_of_scenes [ scene ] in
  let out = Apply.program u img prog in
  let price_boxes =
    List.filter_map
      (fun (w, b) -> if Imageeye_core.Pred.is_price_string w then Some b else None)
      (Scene.texts scene)
  in
  Alcotest.(check bool) "found price boxes" true (price_boxes <> []);
  List.iter
    (fun box ->
      Alcotest.(check (Alcotest.float 0.001)) "price blacked out" 0.0
        (Image.mean_brightness out box))
    price_boxes

let test_objects_pipeline () =
  (* Task 38: brighten all cars and bicycles. *)
  let prog = run_pipeline (Benchmarks.by_id 38) 60 in
  let dataset = Dataset.generate ~n_images:60 ~seed:42 Dataset.Objects in
  let scene =
    List.find
      (fun s -> List.exists (fun (c, _) -> c = "car" || c = "bicycle") (Scene.things s))
      dataset.scenes
  in
  let img = Render.scene scene in
  let u = Batch.universe_of_scenes [ scene ] in
  let out = Apply.program u img prog in
  List.iter
    (fun (c, b) ->
      if c = "car" || c = "bicycle" then
        Alcotest.(check bool) (c ^ " brightened") true
          (Image.mean_brightness out b >= Image.mean_brightness img b))
    (Scene.things scene)

let test_crop_pipeline () =
  (* Task 3: crop to bride + groom; output images shrink when both faces
     are present. *)
  let task = Benchmarks.by_id 3 in
  let dataset = Dataset.generate ~n_images:25 ~seed:42 Dataset.Wedding in
  let result = Session.run ~config ~dataset task in
  Alcotest.(check bool) "solved" true result.Session.solved;
  let prog = Option.get result.Session.program in
  let scene =
    List.find
      (fun s ->
        let ids = List.map (fun (f, _) -> f.Scene.face_id) (Scene.faces s) in
        List.mem 8 ids && List.mem 34 ids)
      dataset.scenes
  in
  let img = Render.scene scene in
  let u = Batch.universe_of_scenes [ scene ] in
  let out = Apply.program u img prog in
  Alcotest.(check bool) "cropped smaller" true
    (Image.width out < Image.width img || Image.height out < Image.height img)

(* The synthesized program is written out, re-parsed, and still behaves
   identically: the persistence path users rely on. *)
let test_program_persistence_roundtrip () =
  let task = Benchmarks.by_id 30 in
  let dataset = Dataset.generate ~n_images:40 ~seed:42 Dataset.Objects in
  let result = Session.run ~config ~dataset task in
  let prog = Option.get result.Session.program in
  let path = Filename.temp_file "imageeye" ".prog" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Lang.program_to_string prog);
      close_out oc;
      let ic = open_in path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Imageeye_core.Parser.program contents with
      | Ok parsed ->
          let u = Batch.universe_of_scenes dataset.scenes in
          Alcotest.(check bool) "same behavior" true
            (Edit.equal (Edit.induced_by_program u parsed) (Edit.induced_by_program u prog))
      | Error e -> Alcotest.failf "reparse failed: %s" (Imageeye_core.Parser.error_to_string e))

(* Batch application writes a PPM per image; verify the files exist and
   decode. *)
let test_batch_export () =
  let task = Benchmarks.by_id 30 in
  let dataset = Dataset.generate ~n_images:5 ~seed:42 Dataset.Objects in
  let dir = Filename.temp_file "imageeye" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      List.iter
        (fun scene ->
          let img = Render.scene scene in
          let u = Batch.universe_of_scenes [ scene ] in
          let out = Apply.program u img task.Task.ground_truth in
          Imageeye_raster.Ppm.write out
            (Filename.concat dir (Printf.sprintf "img%03d.ppm" scene.Scene.image_id)))
        dataset.scenes;
      Alcotest.(check int) "five outputs" 5 (Array.length (Sys.readdir dir));
      Array.iter
        (fun f ->
          let img = Imageeye_raster.Ppm.read (Filename.concat dir f) in
          Alcotest.(check bool) "decodes" true (Image.width img > 0))
        (Sys.readdir dir))

let test_html_report () =
  let task = Benchmarks.by_id 30 in
  let dataset = Dataset.generate ~n_images:4 ~seed:42 Dataset.Objects in
  let dir = Filename.temp_file "imageeye" ".rep" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let entries =
        Imageeye_report.Html_report.generate ~dir ~title:"test" ~program:task.Task.ground_truth
          dataset.scenes
      in
      Alcotest.(check int) "entries" 4 (List.length entries);
      Alcotest.(check bool) "index exists" true
        (Sys.file_exists (Filename.concat dir "index.html"));
      List.iter
        (fun (e : Imageeye_report.Html_report.entry) ->
          let before = Imageeye_raster.Bmp.read (Filename.concat dir e.before_file) in
          let after = Imageeye_raster.Bmp.read (Filename.concat dir e.after_file) in
          Alcotest.(check int) "same width" (Imageeye_raster.Image.width before)
            (Imageeye_raster.Image.width after);
          (* task 30 blurs non-cars, so edited images must differ *)
          if e.edited then
            Alcotest.(check bool) "edited differs" false
              (Imageeye_raster.Image.equal before after))
        entries;
      (* the page embeds the program and every image file *)
      let ic = open_in (Filename.concat dir "index.html") in
      let html = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "program shown" true
        (String.length html > 0
        && List.for_all
             (fun (e : Imageeye_report.Html_report.entry) ->
               let contains needle =
                 let n = String.length needle and h = String.length html in
                 let rec go i = i + n <= h && (String.sub html i n = needle || go (i + 1)) in
                 go 0
               in
               contains e.before_file && contains e.after_file)
             entries))

(* A perf-history row's timestamp survives the JSONL line to the second. *)
let test_trend_ts_round_trip () =
  let now = 1792412345.75 in
  let line =
    Imageeye_util.Jsonout.to_line
      (Imageeye_util.Jsonout.Obj
         [
           ("ts", Imageeye_report.Trend.ts_field now);
           ("mode", Imageeye_util.Jsonout.Str "quick");
           ("solved", Imageeye_util.Jsonout.Int 48);
           ("nodes", Imageeye_util.Jsonout.Int 1);
         ])
  in
  match Imageeye_report.Trend.parse_history line with
  | [ row ] -> Alcotest.(check (float 0.0)) "whole seconds" 1792412345.0 row.ts
  | rows -> Alcotest.failf "expected one row, parsed %d" (List.length rows)

let () =
  Alcotest.run "e2e"
    [
      ( "pipeline",
        [
          Alcotest.test_case "wedding blur" `Slow test_wedding_pipeline;
          Alcotest.test_case "receipts blackout" `Slow test_receipts_pipeline;
          Alcotest.test_case "objects brighten" `Slow test_objects_pipeline;
          Alcotest.test_case "crop" `Slow test_crop_pipeline;
          Alcotest.test_case "program persistence" `Quick test_program_persistence_roundtrip;
          Alcotest.test_case "batch export" `Quick test_batch_export;
          Alcotest.test_case "html report" `Quick test_html_report;
          Alcotest.test_case "trend ts to the second" `Quick test_trend_ts_round_trip;
        ] );
    ]
