(* Shared helpers for the test suites: tiny hand-built universes with known
   geometry, plus Alcotest testables for the project's core types. *)

module Bbox = Imageeye_geometry.Bbox
module Entity = Imageeye_symbolic.Entity
module Universe = Imageeye_symbolic.Universe
module Simage = Imageeye_symbolic.Simage
module Lang = Imageeye_core.Lang
module Pred = Imageeye_core.Pred
module Func = Imageeye_core.Func
module Goal = Imageeye_core.Goal
module Partial = Imageeye_core.Partial

let box x y w h = Bbox.of_corner ~x ~y ~w ~h

let face ?(face_id = 1) ?(smiling = false) ?(eyes_open = true) ?(mouth_open = false)
    ?(age_low = 30) ?(age_high = 35) () =
  Entity.Face { Entity.face_id; smiling; eyes_open; mouth_open; age_low; age_high }

let thing cls = Entity.Thing cls
let text body = Entity.Text body

(* Build a universe from (image_id, kind, bbox) triples; ids are assigned in
   list order. *)
let universe specs =
  Universe.of_entities
    (List.mapi
       (fun id (image_id, kind, bbox) -> Entity.make ~id ~image_id ~kind ~bbox)
       specs)

(* The running example of Fig. 2: a person, their face, a car, and the text
   of the car's license plate. *)
let fig2_universe () =
  universe
    [
      (0, thing "person", box 10 10 40 120);
      (0, face ~face_id:1 ~smiling:true ~eyes_open:true (), box 18 14 24 24);
      (0, thing "car", box 80 60 140 80);
      (0, text "FDE945", box 120 110 40 12);
    ]

(* Three cats in a row (the Fig. 4 example): blurring the middle cat. *)
let three_cats_universe () =
  universe
    [
      (0, thing "cat", box 10 50 40 40);
      (0, thing "cat", box 70 50 40 40);
      (0, thing "cat", box 130 50 40 40);
    ]

let simage_testable u =
  Alcotest.testable Simage.pp Simage.equal |> fun t ->
  ignore u;
  t

let extractor_testable =
  Alcotest.testable Lang.pp_extractor Lang.equal_extractor

let program_testable = Alcotest.testable Lang.pp_program Lang.equal_program

let ids u s = Simage.to_ids s |> List.map string_of_int |> String.concat "," |> fun x ->
  ignore u;
  x

let check_ids ?(msg = "objects") u expected actual =
  Alcotest.(check (list int)) msg expected (Simage.to_ids actual);
  ignore u

(* ---------- Random universes and candidates (qcheck generators) ---------- *)

let kind_gen =
  QCheck2.Gen.oneofl
    [ thing "cat"; thing "dog"; face ~face_id:1 ~smiling:true (); face ~face_id:2 () ]

(* Random small universes: several cats/dogs/faces on a loose grid. *)
let universe_gen =
  QCheck2.Gen.(
    let entity =
      let* kind = kind_gen in
      let* col = int_bound 3 and* row = int_bound 3 in
      return (0, kind, box ((col * 40) + 5) ((row * 40) + 5) 30 30)
    in
    list_size (int_range 2 6) entity >|= universe)

(* Universes whose entities are spread over several images, like every
   demo universe of a spec with more than one demonstration (the
   single-image [universe_gen] cannot produce one). *)
let multi_image_universe_gen =
  QCheck2.Gen.(
    let entity =
      let* kind = kind_gen in
      let* img = int_bound 2 in
      let* col = int_bound 3 and* row = int_bound 3 in
      return (img, kind, box ((col * 40) + 5) ((row * 40) + 5) 30 30)
    in
    list_size (int_range 2 6) entity >|= universe)

(* Universes of exactly [n] objects over up to eight images, for sizes
   that straddle the 63-bit words of a set. *)
let sized_universe_gen n =
  QCheck2.Gen.(
    let entity =
      let* kind = kind_gen in
      let* img = int_bound 7 in
      let* col = int_bound 5 and* row = int_bound 5 in
      return (img, kind, box ((col * 30) + 5) ((row * 30) + 5) 40 40)
    in
    list_repeat n entity >|= universe)

let pool_preds = [ Pred.Object "cat"; Pred.Object "dog"; Pred.Face_object; Pred.Smiling ]

(* Random partial programs with goals propagated exactly as Expand does.
   [all_shapes] adds Filter nodes and three-way Union and Intersect
   nodes, which the search builds too.  A child's generator (and its
   goal inference) is built only when its alternative is drawn. *)
let partial_gen ?(all_shapes = false) u target =
  let open QCheck2.Gen in
  let rec gen goal depth =
    let hole = return (Partial.hole goal) in
    let leaf =
      oneof
        [
          hole;
          return (Partial.make goal Partial.All);
          (oneofl pool_preds >|= fun p -> Partial.make goal (Partial.Is p));
        ]
    in
    let child kind = delay (fun () -> gen (Goal.infer u kind goal) (depth - 1)) in
    let three kind mk =
      triple (child kind) (child kind) (child kind) >|= fun (a, b, c) ->
      Partial.make goal (mk [ a; b; c ])
    in
    if depth = 0 then leaf
    else
      oneof
        ([
           leaf;
           ( child Goal.For_complement >|= fun q ->
             Partial.make goal (Partial.Complement q) );
           ( pair (child Goal.For_union) (child Goal.For_union) >|= fun (a, b) ->
             Partial.make goal (Partial.Union [ a; b ]) );
           ( pair (child Goal.For_intersect) (child Goal.For_intersect) >|= fun (a, b) ->
             Partial.make goal (Partial.Intersect [ a; b ]) );
           ( triple (child Goal.For_find) (oneofl pool_preds) (oneofl Func.all)
           >|= fun (q, p, f) -> Partial.make goal (Partial.Find (q, p, f)) );
         ]
        @
        if all_shapes then
          [
            ( pair (child Goal.For_filter) (oneofl pool_preds) >|= fun (q, p) ->
              Partial.make goal (Partial.Filter (q, p)) );
            three Goal.For_union (fun qs -> Partial.Union qs);
            three Goal.For_intersect (fun qs -> Partial.Intersect qs);
          ]
        else [])
  in
  gen (Goal.exact target) 3
