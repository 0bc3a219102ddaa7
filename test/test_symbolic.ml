(* Tests for the symbolic-image substrate: entities, the
   universe's precomputed spatial indices, and symbolic-image set algebra. *)

module Entity = Imageeye_symbolic.Entity
module Universe = Imageeye_symbolic.Universe
module Simage = Imageeye_symbolic.Simage
open Test_support

(* ---------- Entity ---------- *)

(* An entity's attribute map Φ is its typed kind: each kind carries its
   own attributes, and [object_type] names the kind as Fig. 2 does. *)
let test_entity_attrs_face () =
  let e =
    Entity.make ~id:0 ~image_id:0
      ~kind:(face ~face_id:8 ~smiling:true ~eyes_open:false ~age_low:20 ~age_high:25 ())
      ~bbox:(box 0 0 10 10)
  in
  Alcotest.(check string) "objectType" "face" (Entity.object_type e);
  match e.Entity.kind with
  | Entity.Face f ->
      Alcotest.(check int) "faceId" 8 f.Entity.face_id;
      Alcotest.(check bool) "smiling" true f.Entity.smiling;
      Alcotest.(check bool) "eyes" false f.Entity.eyes_open;
      Alcotest.(check (pair int int)) "age range" (20, 25) (f.Entity.age_low, f.Entity.age_high)
  | Entity.Text _ | Entity.Thing _ -> Alcotest.fail "a face entity's kind is Face"

let test_entity_attrs_text () =
  let e = Entity.make ~id:0 ~image_id:0 ~kind:(text "hello") ~bbox:(box 0 0 10 10) in
  Alcotest.(check bool) "textBody" true (e.Entity.kind = Entity.Text "hello");
  Alcotest.(check string) "objectType" "text" (Entity.object_type e)

let test_entity_attrs_thing () =
  let e = Entity.make ~id:0 ~image_id:0 ~kind:(thing "cat") ~bbox:(box 0 0 10 10) in
  Alcotest.(check string) "objectType" "cat" (Entity.object_type e);
  Alcotest.(check bool) "no face attributes" true (e.Entity.kind = Entity.Thing "cat")

(* ---------- Universe ---------- *)

let test_universe_id_validation () =
  let bad = [ Entity.make ~id:5 ~image_id:0 ~kind:(thing "cat") ~bbox:(box 0 0 5 5) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Universe.of_entities bad);
       false
     with Invalid_argument _ -> true)

let test_universe_accessors () =
  let u = three_cats_universe () in
  Alcotest.(check int) "size" 3 (Universe.size u);
  Alcotest.(check int) "entity id" 1 (Universe.entity u 1).Entity.id;
  Alcotest.(check (list int)) "image ids" [ 0 ] (Universe.image_ids u);
  Alcotest.(check (list int)) "objects of image" [ 0; 1; 2 ] (Universe.objects_of_image u 0)

let test_universe_left_right () =
  let u = three_cats_universe () in
  (* Cats at x = 10, 70, 130: right_of cat 0 = [1; 2] nearest first. *)
  Alcotest.(check (list int)) "right of 0" [ 1; 2 ] (Array.to_list (Universe.right_of u 0));
  Alcotest.(check (list int)) "right of 2" [] (Array.to_list (Universe.right_of u 2));
  Alcotest.(check (list int)) "left of 2 nearest first" [ 1; 0 ]
    (Array.to_list (Universe.left_of u 2));
  Alcotest.(check (list int)) "left of 0" [] (Array.to_list (Universe.left_of u 0))

let test_universe_above_below () =
  let u =
    universe
      [
        (0, thing "cat", box 10 10 20 20);
        (0, thing "cat", box 10 50 20 20);
        (0, thing "cat", box 10 90 20 20);
      ]
  in
  Alcotest.(check (list int)) "below 0 nearest first" [ 1; 2 ]
    (Array.to_list (Universe.below u 0));
  Alcotest.(check (list int)) "above 2 nearest first" [ 1; 0 ]
    (Array.to_list (Universe.above u 2));
  Alcotest.(check (list int)) "above 0" [] (Array.to_list (Universe.above u 0))

let test_universe_parents_contents () =
  let u = fig2_universe () in
  (* face (1) is inside person (0); text (3) is inside car (2). *)
  Alcotest.(check (list int)) "face's parents" [ 0 ] (Array.to_list (Universe.parents u 1));
  Alcotest.(check (list int)) "text's parents" [ 2 ] (Array.to_list (Universe.parents u 3));
  Alcotest.(check (list int)) "person contents" [ 1 ] (Array.to_list (Universe.contents u 0));
  Alcotest.(check (list int)) "car contents" [ 3 ] (Array.to_list (Universe.contents u 2));
  Alcotest.(check (list int)) "face has no contents" []
    (Array.to_list (Universe.contents u 1))

let test_universe_nested_parents_order () =
  (* Innermost (smallest area) parent first. *)
  let u =
    universe
      [
        (0, thing "outer", box 0 0 100 100);
        (0, thing "middle", box 10 10 50 50);
        (0, thing "inner", box 20 20 10 10);
      ]
  in
  Alcotest.(check (list int)) "parents innermost first" [ 1; 0 ]
    (Array.to_list (Universe.parents u 2))

let test_universe_cross_image_isolation () =
  (* Identical geometry in two raw images: no spatial relations across. *)
  let u =
    universe
      [
        (0, thing "cat", box 10 10 10 10);
        (0, thing "cat", box 40 10 10 10);
        (1, thing "cat", box 40 10 10 10);
      ]
  in
  Alcotest.(check (list int)) "within image" [ 1 ] (Array.to_list (Universe.right_of u 0));
  Alcotest.(check (list int)) "not across images" []
    (Array.to_list (Universe.left_of u 2))

(* ---------- Universe: per-image index against an all-pairs oracle ---------- *)

module Bbox = Imageeye_geometry.Bbox
module Bitset = Imageeye_util.Bitset

(* The all-pairs reference: scan every object, keep the others of the same
   raw image that satisfy the relation, and sort by key with ties broken
   on id (the orderings of Fig. 7). *)
let reference_related u i ~related ~key ~ascending =
  let o = Universe.entity u i in
  Universe.entities u
  |> List.filter (fun (o' : Entity.t) ->
         o'.id <> i && o'.image_id = o.Entity.image_id && related o'.bbox o.bbox)
  |> List.sort (fun (a : Entity.t) (b : Entity.t) ->
         let c = compare (key a.bbox) (key b.bbox) in
         let c = if c = 0 then compare a.id b.id else c in
         if ascending then c else -c)
  |> List.map (fun (e : Entity.t) -> e.id)

(* Each indexed relation with its definition, sort key and direction. *)
let relations =
  [
    (Universe.right_of, Bbox.is_right_of, (fun (b : Bbox.t) -> b.left), true);
    (Universe.left_of, Bbox.is_left_of, (fun (b : Bbox.t) -> b.right), false);
    (Universe.above, Bbox.is_above, (fun (b : Bbox.t) -> b.bottom), false);
    (Universe.below, Bbox.is_below, (fun (b : Bbox.t) -> b.top), true);
    (Universe.parents, (fun o' o -> Bbox.strictly_contains ~outer:o' ~inner:o), Bbox.area, true);
    ( Universe.contents,
      (fun o' o -> Bbox.strictly_contains ~outer:o ~inner:o'),
      (fun (b : Bbox.t) -> b.left),
      true );
  ]

(* Objects scattered over a few raw images with non-contiguous ids, drawn
   independently so that entity ids interleave images; small coordinates
   make equal keys, equal boxes and nesting common. *)
let gen_specs =
  QCheck2.Gen.(
    list_size (int_bound 24)
      (quad (oneofl [ -2; 0; 3; 7; 1000 ]) (int_bound 20) (int_bound 20)
         (pair (int_range 1 12) (int_range 1 12))))

let print_specs =
  QCheck2.Print.(list (quad int int int (pair int int)))

let agrees_with_reference specs =
  let u = universe (List.map (fun (img, x, y, (w, h)) -> (img, thing "cat", box x y w h)) specs) in
  let relations_agree =
    List.for_all
      (fun (indexed, related, key, ascending) ->
        List.for_all
          (fun i ->
            Array.to_list (indexed u i) = reference_related u i ~related ~key ~ascending)
          (List.init (Universe.size u) Fun.id))
      relations
  in
  let images = List.sort_uniq compare (List.map (fun (img, _, _, _) -> img) specs) in
  let members img =
    List.filter_map
      (fun (e : Entity.t) -> if e.image_id = img then Some e.id else None)
      (Universe.entities u)
  in
  relations_agree
  && Universe.image_ids u = images
  && List.for_all (fun img -> Universe.objects_of_image u img = members img) (5 :: images)

let universe_qcheck_props =
  [
    QCheck2.Test.make ~name:"per-image index oracle" ~count:500
      ~print:print_specs gen_specs agrees_with_reference;
  ]

(* The intern table starts small and grows: past 10k distinct sets every
   re-intern must still find the very same cell, and uids stay the dense
   interning order. *)
let test_intern_growth () =
  let n = 14 in
  let u = universe (List.init n (fun i -> (0, thing "cat", box (i * 10) 0 5 5))) in
  let k = 10_000 in
  let set_of m = Bitset.of_list n (List.filter (fun b -> m land (1 lsl b) <> 0) (List.init n Fun.id)) in
  let cells = Array.init k (fun m -> Universe.intern u (set_of m)) in
  Alcotest.(check int) "interned count" k (Universe.interned_count u);
  Array.iteri
    (fun m (c : Universe.interned) ->
      if c.uid <> m then Alcotest.failf "set %d has uid %d" m c.uid;
      if not (Bitset.equal c.bits (set_of m)) then Alcotest.failf "set %d: wrong bits" m;
      if Universe.intern u (set_of m) != c then Alcotest.failf "set %d re-interned to a new cell" m)
    cells;
  Alcotest.(check int) "count unchanged by re-interning" k (Universe.interned_count u)

(* ---------- Simage ---------- *)

let test_simage_basics () =
  let u = three_cats_universe () in
  let s = Simage.of_ids u [ 0; 2 ] in
  Alcotest.(check int) "cardinal" 2 (Simage.cardinal s);
  Alcotest.(check bool) "mem" true (Simage.mem s 0);
  Alcotest.(check bool) "not mem" false (Simage.mem s 1);
  Alcotest.(check (list int)) "ids" [ 0; 2 ] (Simage.to_ids s);
  Alcotest.(check bool) "empty" true (Simage.is_empty (Simage.empty u));
  Alcotest.(check int) "full" 3 (Simage.cardinal (Simage.full u))

let test_simage_set_ops () =
  let u = three_cats_universe () in
  let a = Simage.of_ids u [ 0; 1 ] and b = Simage.of_ids u [ 1; 2 ] in
  check_ids u [ 0; 1; 2 ] (Simage.union a b);
  check_ids u [ 1 ] (Simage.inter a b);
  check_ids u [ 0 ] (Simage.diff a b);
  check_ids u [ 2 ] (Simage.complement a);
  Alcotest.(check bool) "subset" true (Simage.subset (Simage.inter a b) a);
  Alcotest.(check bool) "equal" false (Simage.equal a b)

let test_simage_fold_variants () =
  let u = three_cats_universe () in
  let s = Simage.full u in
  Alcotest.(check int) "entities" 3 (List.length (Simage.entities s));
  let count = Simage.fold (fun _ acc -> acc + 1) s 0 in
  Alcotest.(check int) "fold" 3 count;
  let filtered = Simage.filter (fun e -> e.Entity.id > 0) s in
  check_ids u [ 1; 2 ] filtered

let test_simage_union_all_inter_all () =
  let u = three_cats_universe () in
  check_ids u [] (Simage.union_all u []);
  check_ids u [ 0; 1; 2 ] (Simage.inter_all u []);
  check_ids u [ 0; 1 ]
    (Simage.union_all u [ Simage.of_ids u [ 0 ]; Simage.of_ids u [ 1 ] ])

let test_simage_disjoint () =
  let u = three_cats_universe () in
  let a = Simage.of_ids u [ 0; 2 ] and b = Simage.of_ids u [ 1 ] in
  Alcotest.(check bool) "disjoint" true (Simage.disjoint a b);
  Alcotest.(check bool) "overlapping" false (Simage.disjoint a (Simage.full u));
  Alcotest.(check bool) "empty vs empty" true (Simage.disjoint (Simage.empty u) (Simage.empty u))

(* qcheck: the allocation-free word-level test agrees with the naive
   definition through intersection, on every pair of subsets. *)
let simage_qcheck_props =
  let n = 40 in
  let u =
    universe (List.init n (fun i -> (i mod 3, thing "cat", box (i * 7) (i * 3) 5 5)))
  in
  let gen_simage =
    QCheck2.Gen.(
      list_size (int_bound (n - 1)) (int_bound (n - 1)) >|= fun ids ->
      Simage.of_ids u (List.sort_uniq compare ids))
  in
  let pair = QCheck2.Gen.pair gen_simage gen_simage in
  [
    QCheck2.Test.make ~name:"disjoint = empty inter" ~count:300 pair (fun (a, b) ->
        Simage.disjoint a b = Simage.is_empty (Simage.inter a b));
    QCheck2.Test.make ~name:"disjoint symmetric" ~count:300 pair (fun (a, b) ->
        Simage.disjoint a b = Simage.disjoint b a);
  ]

let test_simage_restrict_to_image () =
  let u =
    universe
      [ (0, thing "cat", box 0 0 5 5); (1, thing "dog", box 0 0 5 5); (0, thing "cat", box 10 0 5 5) ]
  in
  check_ids u [ 0; 2 ] (Simage.restrict_to_image (Simage.full u) 0);
  check_ids u [ 1 ] (Simage.restrict_to_image (Simage.full u) 1)

let () =
  Alcotest.run "symbolic"
    [
      ( "entity",
        [
          Alcotest.test_case "face attrs" `Quick test_entity_attrs_face;
          Alcotest.test_case "text attrs" `Quick test_entity_attrs_text;
          Alcotest.test_case "thing attrs" `Quick test_entity_attrs_thing;
        ] );
      ( "universe",
        [
          Alcotest.test_case "id validation" `Quick test_universe_id_validation;
          Alcotest.test_case "accessors" `Quick test_universe_accessors;
          Alcotest.test_case "left/right indices" `Quick test_universe_left_right;
          Alcotest.test_case "above/below indices" `Quick test_universe_above_below;
          Alcotest.test_case "parents/contents" `Quick test_universe_parents_contents;
          Alcotest.test_case "nested parents order" `Quick test_universe_nested_parents_order;
          Alcotest.test_case "cross-image isolation" `Quick test_universe_cross_image_isolation;
          Alcotest.test_case "intern table growth" `Quick test_intern_growth;
        ] );
      ("universe-qcheck", List.map QCheck_alcotest.to_alcotest universe_qcheck_props);
      ( "simage",
        [
          Alcotest.test_case "basics" `Quick test_simage_basics;
          Alcotest.test_case "set ops" `Quick test_simage_set_ops;
          Alcotest.test_case "fold variants" `Quick test_simage_fold_variants;
          Alcotest.test_case "union_all/inter_all" `Quick test_simage_union_all_inter_all;
          Alcotest.test_case "disjoint" `Quick test_simage_disjoint;
          Alcotest.test_case "restrict to image" `Quick test_simage_restrict_to_image;
        ] );
      ("simage-qcheck", List.map QCheck_alcotest.to_alcotest simage_qcheck_props);
    ]
