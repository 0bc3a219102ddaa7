(* Tests for the simulated vision layer: perfect detection, each noise
   channel, and batch universe construction. *)

module Scene = Imageeye_scene.Scene
module Detector = Imageeye_vision.Detector
module Noise = Imageeye_vision.Noise
module Batch = Imageeye_vision.Batch
module Entity = Imageeye_symbolic.Entity
module Universe = Imageeye_symbolic.Universe
module Rng = Imageeye_util.Rng

let sample_scene () =
  Scene.make ~image_id:4 ~width:200 ~height:200
    [
      { Scene.kind = Scene.Thing_item "cat"; bbox = Test_support.box 10 10 30 30 };
      {
        Scene.kind =
          Scene.Face_item
            { Scene.face_id = 8; smiling = true; eyes_open = false; mouth_open = true; age_low = 20; age_high = 24 };
        bbox = Test_support.box 60 10 30 30;
      };
      { Scene.kind = Scene.Text_item "total"; bbox = Test_support.box 100 10 40 10 };
    ]

let test_perfect_detection () =
  let rng = Rng.create 1 in
  let ds = Detector.detect_scene ~noise:Noise.none ~rng (sample_scene ()) in
  Alcotest.(check int) "all detected" 3 (List.length ds);
  List.iter (fun (d : Detector.detection) -> Alcotest.(check int) "image id" 4 d.image_id) ds;
  match ds with
  | [ cat; face; text ] ->
      Alcotest.(check bool) "cat" true (cat.kind = Entity.Thing "cat");
      (match face.kind with
      | Entity.Face f ->
          Alcotest.(check int) "face id" 8 f.Entity.face_id;
          Alcotest.(check bool) "smiling kept" true f.smiling;
          Alcotest.(check bool) "eyes kept" false f.eyes_open
      | _ -> Alcotest.fail "expected face");
      Alcotest.(check bool) "text" true (text.kind = Entity.Text "total")
  | _ -> Alcotest.fail "expected three detections"

let test_perfect_detection_deterministic () =
  let detect () =
    Detector.detect_scene ~noise:Noise.none ~rng:(Rng.create 9) (sample_scene ())
  in
  Alcotest.(check bool) "same" true (detect () = detect ())

let count_over_runs noise predicate runs =
  let hits = ref 0 in
  for seed = 1 to runs do
    let ds = Detector.detect_scene ~noise ~rng:(Rng.create seed) (sample_scene ()) in
    if predicate ds then incr hits
  done;
  !hits

let test_miss_detection () =
  let noise = { Noise.none with Noise.miss_detection = 0.5 } in
  let misses = count_over_runs noise (fun ds -> List.length ds < 3) 100 in
  Alcotest.(check bool) "frequent misses" true (misses > 50)

let test_class_confusion () =
  let noise = { Noise.none with Noise.class_confusion = 1.0 } in
  let confused =
    count_over_runs noise
      (fun ds ->
        List.exists
          (fun (d : Detector.detection) ->
            match d.kind with Entity.Thing c -> c <> "cat" | _ -> false)
          ds)
      20
  in
  Alcotest.(check int) "always confused" 20 confused;
  (* confused classes stay within the detector's label set *)
  let ds = Detector.detect_scene ~noise ~rng:(Rng.create 3) (sample_scene ()) in
  List.iter
    (fun (d : Detector.detection) ->
      match d.kind with
      | Entity.Thing c ->
          Alcotest.(check bool) "known class" true (List.mem c Detector.object_classes)
      | _ -> ())
    ds

let test_attr_flip () =
  let noise = { Noise.none with Noise.attr_flip = 1.0 } in
  let ds = Detector.detect_scene ~noise ~rng:(Rng.create 3) (sample_scene ()) in
  List.iter
    (fun (d : Detector.detection) ->
      match d.kind with
      | Entity.Face f ->
          Alcotest.(check bool) "smiling flipped" false f.Entity.smiling;
          Alcotest.(check bool) "eyes flipped" true f.eyes_open;
          Alcotest.(check bool) "mouth flipped" false f.mouth_open
      | _ -> ())
    ds

let test_face_id_confusion () =
  let noise = { Noise.none with Noise.face_id_confusion = 1.0 } in
  let ds = Detector.detect_scene ~noise ~rng:(Rng.create 3) (sample_scene ()) in
  List.iter
    (fun (d : Detector.detection) ->
      match d.kind with
      | Entity.Face f -> Alcotest.(check bool) "id changed" true (f.Entity.face_id <> 8)
      | _ -> ())
    ds

let test_ocr_error () =
  let noise = { Noise.none with Noise.ocr_error = 1.0 } in
  let changed =
    count_over_runs noise
      (fun ds ->
        List.exists
          (fun (d : Detector.detection) ->
            match d.kind with Entity.Text t -> t <> "total" | _ -> false)
          ds)
      30
  in
  (* corrupting one character can coincidentally reproduce the original,
     but that should be rare *)
  Alcotest.(check bool) "usually corrupted" true (changed > 25)

let test_bbox_preserved_under_noise () =
  let noise = Noise.default_imperfect in
  let ds = Detector.detect_scene ~noise ~rng:(Rng.create 5) (sample_scene ()) in
  List.iter
    (fun (d : Detector.detection) ->
      Alcotest.(check bool) "bbox from scene" true
        (List.exists (fun (it : Scene.item) -> it.bbox = d.bbox) (sample_scene ()).items))
    ds

let test_noise_is_none () =
  Alcotest.(check bool) "none" true (Noise.is_none Noise.none);
  Alcotest.(check bool) "imperfect" false (Noise.is_none Noise.default_imperfect)

(* ---------- Batch ---------- *)

let test_batch_universe () =
  let scenes = [ sample_scene (); { (sample_scene ()) with Scene.image_id = 7 } ] in
  let u = Batch.universe_of_scenes scenes in
  Alcotest.(check int) "six entities" 6 (Universe.size u);
  Alcotest.(check (list int)) "image ids" [ 4; 7 ] (Universe.image_ids u);
  Alcotest.(check (list int)) "dense ids" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun (e : Entity.t) -> e.id) (Universe.entities u))

let test_batch_universe_noisy_deterministic () =
  let scenes = [ sample_scene () ] in
  let a = Batch.universe_of_scenes ~noise:Noise.default_imperfect ~seed:3 scenes in
  let b = Batch.universe_of_scenes ~noise:Noise.default_imperfect ~seed:3 scenes in
  Alcotest.(check bool) "same entities" true
    (Universe.entities a = Universe.entities b)

(* Building a one-frame universe must stay off the major heap: a
   fixed-size intern table (4,096 buckets, 4,097 words) allocated there
   would be paid again by every frame of a stream.  The minor heap is
   emptied first so that no minor collection promotes words inside the
   measured window. *)
let test_batch_universe_no_major_alloc () =
  let scene =
    Scene.make ~image_id:0 ~width:100 ~height:100
      [
        { Scene.kind = Scene.Thing_item "cat"; bbox = Test_support.box 10 10 20 20 };
        { Scene.kind = Scene.Thing_item "dog"; bbox = Test_support.box 50 10 20 20 };
      ]
  in
  ignore (Batch.universe_of_scenes [ scene ]);
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let u = Batch.universe_of_scenes [ scene ] in
  let _, _, major1 = Gc.counters () in
  Alcotest.(check int) "two objects" 2 (Universe.size u);
  Alcotest.(check (float 0.)) "major-heap words" 0. (major1 -. major0)

let () =
  Alcotest.run "vision"
    [
      ( "detector",
        [
          Alcotest.test_case "perfect detection" `Quick test_perfect_detection;
          Alcotest.test_case "deterministic" `Quick test_perfect_detection_deterministic;
          Alcotest.test_case "miss detection" `Quick test_miss_detection;
          Alcotest.test_case "class confusion" `Quick test_class_confusion;
          Alcotest.test_case "attribute flips" `Quick test_attr_flip;
          Alcotest.test_case "face id confusion" `Quick test_face_id_confusion;
          Alcotest.test_case "ocr errors" `Quick test_ocr_error;
          Alcotest.test_case "bbox preserved" `Quick test_bbox_preserved_under_noise;
          Alcotest.test_case "noise none" `Quick test_noise_is_none;
        ] );
      ( "batch",
        [
          Alcotest.test_case "universe construction" `Quick test_batch_universe;
          Alcotest.test_case "noisy determinism" `Quick test_batch_universe_noisy_deterministic;
          Alcotest.test_case "no major alloc per frame" `Quick test_batch_universe_no_major_alloc;
        ] );
    ]
