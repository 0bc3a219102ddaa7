(* Tests for the DSL itself: predicate entailment (Fig. 5), spatial
   functions (Fig. 7), AST metrics, and the extractor semantics (Fig. 6),
   including the paper's worked examples. *)

module Pred = Imageeye_core.Pred
module Func = Imageeye_core.Func
module Lang = Imageeye_core.Lang
module Eval = Imageeye_core.Eval
module Simage = Imageeye_symbolic.Simage
open Test_support

(* ---------- Pred ---------- *)

let face_entity =
  Imageeye_symbolic.Entity.make ~id:0 ~image_id:0
    ~kind:(face ~face_id:8 ~smiling:true ~eyes_open:false ~age_low:10 ~age_high:14 ())
    ~bbox:(box 0 0 10 10)

let cat_entity =
  Imageeye_symbolic.Entity.make ~id:1 ~image_id:0 ~kind:(thing "cat") ~bbox:(box 0 0 10 10)

let text_entity body =
  Imageeye_symbolic.Entity.make ~id:2 ~image_id:0 ~kind:(text body) ~bbox:(box 0 0 10 10)

let test_entailment_faces () =
  Alcotest.(check bool) "FaceObject" true (Pred.entails face_entity Pred.Face_object);
  Alcotest.(check bool) "Face 8" true (Pred.entails face_entity (Pred.Face 8));
  Alcotest.(check bool) "Face 9" false (Pred.entails face_entity (Pred.Face 9));
  Alcotest.(check bool) "Smiling" true (Pred.entails face_entity Pred.Smiling);
  Alcotest.(check bool) "EyesOpen" false (Pred.entails face_entity Pred.Eyes_open);
  Alcotest.(check bool) "MouthOpen" false (Pred.entails face_entity Pred.Mouth_open);
  Alcotest.(check bool) "cat not a face" false (Pred.entails cat_entity Pred.Face_object);
  (* Fig. 5: attributes outside Domain(o.Phi) never entail. *)
  Alcotest.(check bool) "cat not smiling" false (Pred.entails cat_entity Pred.Smiling)

let test_entailment_ages () =
  (* age range [10, 14] *)
  Alcotest.(check bool) "below 18" true (Pred.entails face_entity (Pred.Below_age 18));
  Alcotest.(check bool) "below 14" false (Pred.entails face_entity (Pred.Below_age 14));
  Alcotest.(check bool) "above 9" true (Pred.entails face_entity (Pred.Above_age 9));
  Alcotest.(check bool) "above 10" false (Pred.entails face_entity (Pred.Above_age 10));
  Alcotest.(check bool) "cat has no age" false (Pred.entails cat_entity (Pred.Below_age 18))

let test_entailment_things () =
  Alcotest.(check bool) "Object cat" true (Pred.entails cat_entity (Pred.Object "cat"));
  Alcotest.(check bool) "Object dog" false (Pred.entails cat_entity (Pred.Object "dog"));
  Alcotest.(check bool) "face not an Object(face)" false
    (Pred.entails face_entity (Pred.Object "face"))

let test_entailment_text () =
  let t = text_entity "total" in
  Alcotest.(check bool) "TextObject" true (Pred.entails t Pred.Text_object);
  Alcotest.(check bool) "Word match" true (Pred.entails t (Pred.Word "total"));
  Alcotest.(check bool) "Word mismatch" false (Pred.entails t (Pred.Word "tax"));
  Alcotest.(check bool) "price on price-text" true
    (Pred.entails (text_entity "$4.99") Pred.Price);
  Alcotest.(check bool) "phone" true
    (Pred.entails (text_entity "512-555-0100") Pred.Phone_number)

(* The entailment the kind match replaced, kept as the oracle: it built
   the entity's string-keyed attribute map Φ and looked the attribute up
   by name, so an attribute the kind lacks was absent. *)
module Reference_entails = struct
  module Entity = Imageeye_symbolic.Entity

  type value = Bool of bool | Int of int | Str of string

  module M = Map.Make (String)

  let attrs (e : Entity.t) =
    let base = [ ("objectType", Str (Entity.object_type e)) ] in
    let specific =
      match e.Entity.kind with
      | Entity.Face f ->
          [
            ("faceId", Int f.Entity.face_id);
            ("Smiling", Bool f.Entity.smiling);
            ("EyesOpen", Bool f.Entity.eyes_open);
            ("MouthOpen", Bool f.Entity.mouth_open);
            ("ageLow", Int f.Entity.age_low);
            ("ageHigh", Int f.Entity.age_high);
          ]
      | Entity.Text body -> [ ("textBody", Str body) ]
      | Entity.Thing _ -> []
    in
    List.fold_left (fun m (k, v) -> M.add k v m) M.empty (base @ specific)

  let bool_attr e name =
    match M.find_opt name (attrs e) with Some (Bool b) -> b | _ -> false

  let int_attr e name =
    match M.find_opt name (attrs e) with Some (Int i) -> Some i | _ -> None

  let str_attr e name =
    match M.find_opt name (attrs e) with Some (Str s) -> Some s | _ -> None

  let is_face e = match e.Entity.kind with Entity.Face _ -> true | _ -> false
  let is_text e = match e.Entity.kind with Entity.Text _ -> true | _ -> false

  let entails e p =
    match p with
    | Pred.Face_object -> is_face e
    | Pred.Face n -> int_attr e "faceId" = Some n
    | Pred.Smiling -> bool_attr e "Smiling"
    | Pred.Eyes_open -> bool_attr e "EyesOpen"
    | Pred.Mouth_open -> bool_attr e "MouthOpen"
    | Pred.Below_age n -> (
        match int_attr e "ageHigh" with Some hi -> hi < n | None -> false)
    | Pred.Above_age n -> (
        match int_attr e "ageLow" with Some lo -> lo > n | None -> false)
    | Pred.Text_object -> is_text e
    | Pred.Word w -> str_attr e "textBody" = Some w
    | Pred.Phone_number -> (
        match str_attr e "textBody" with Some s -> Pred.is_phone_string s | None -> false)
    | Pred.Price -> (
        match str_attr e "textBody" with Some s -> Pred.is_price_string s | None -> false)
    | Pred.Object cls -> (
        match e.Entity.kind with Entity.Thing c -> c = cls | _ -> false)
end

let entails_words =
  [
    "512-555-0100"; "(512) 555-0100"; "555-0100"; "5125550100"; "51-555-0100";
    "$4.99"; "4.99"; "$5"; "5"; "$12.9"; "12.999"; "total"; "tax"; "cat"; "face"; "";
  ]

let entails_classes = [ "cat"; "dog"; "car"; "face"; "text" ]

(* A random face, text or thing, and every predicate constructor with
   parameters drawn from the same pools the entities use. *)
let entails_case_gen =
  let open QCheck2.Gen in
  let age = int_range 0 80 in
  let kind =
    oneof
      [
        (let* face_id = int_range 1 4
         and* smiling = bool
         and* eyes_open = bool
         and* mouth_open = bool
         and* lo = age
         and* span = int_range 0 10 in
         return (face ~face_id ~smiling ~eyes_open ~mouth_open ~age_low:lo ~age_high:(lo + span) ()));
        oneofl entails_words >|= text;
        oneofl entails_classes >|= thing;
      ]
  in
  let* kind = kind in
  let* n = int_range 1 4 and* below = age and* above = age in
  let* w = oneofl entails_words and* cls = oneofl entails_classes in
  let preds =
    Pred.
      [
        Face_object; Face n; Smiling; Eyes_open; Mouth_open; Below_age below;
        Above_age above; Text_object; Word w; Phone_number; Price; Object cls;
      ]
  in
  return (Imageeye_symbolic.Entity.make ~id:0 ~image_id:0 ~kind ~bbox:(box 0 0 10 10), preds)

let entails_reference_prop =
  QCheck2.Test.make ~name:"entails = attribute-map reference" ~count:2000
    ~print:(fun (e, preds) ->
      let kind =
        match e.Imageeye_symbolic.Entity.kind with
        | Imageeye_symbolic.Entity.Face f ->
            Printf.sprintf "face %d smiling=%b eyes=%b mouth=%b age %d-%d"
              f.Imageeye_symbolic.Entity.face_id f.smiling f.eyes_open f.mouth_open f.age_low
              f.age_high
        | Imageeye_symbolic.Entity.Text body -> Printf.sprintf "text %S" body
        | Imageeye_symbolic.Entity.Thing cls -> "thing " ^ cls
      in
      kind ^ " | " ^ String.concat ", " (List.map Pred.to_string preds))
    entails_case_gen (fun (e, preds) ->
      List.for_all (fun p -> Pred.entails e p = Reference_entails.entails e p) preds)

let test_price_format () =
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " is price") true (Pred.is_price_string s))
    [ "$12.99"; "12.99"; "$5"; "$0.00" ];
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " not price") false (Pred.is_price_string s))
    [ ""; "$"; "12"; "abc"; "$12.9"; "$12.999"; "12.ab"; "$.99" ]

let test_phone_format () =
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " is phone") true (Pred.is_phone_string s))
    [ "512-555-0100"; "(512) 555-0100"; "555-0100" ];
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " not phone") false (Pred.is_phone_string s))
    [ ""; "512-555"; "51-555-0100"; "512-555-010"; "abc-def-ghij"; "5125550100" ]

let test_pred_size () =
  Alcotest.(check int) "nullary" 1 (Pred.size Pred.Smiling);
  Alcotest.(check int) "parameterized" 2 (Pred.size (Pred.Face 8));
  Alcotest.(check int) "word" 2 (Pred.size (Pred.Word "x"))

(* ---------- Lang metrics ---------- *)

let test_lang_size () =
  (* Appendix B examples with known sizes. *)
  let open Lang in
  Alcotest.(check int) "task1" 5
    (size (Intersect [ Is Pred.Smiling; Is Pred.Eyes_open ]));
  Alcotest.(check int) "task3" 7 (size (Union [ Is (Pred.Face 8); Is (Pred.Face 34) ]));
  Alcotest.(check int) "task30" 4 (size (Complement (Is (Pred.Object "car"))));
  Alcotest.(check int) "task20" 6
    (size (Find (Is (Pred.Word "total"), Pred.Price, Func.Get_right)));
  Alcotest.(check int) "task31" 5 (size (Filter (Is (Pred.Object "car"), Pred.Face_object)));
  Alcotest.(check int) "All" 1 (size All)

let test_lang_depth () =
  let open Lang in
  Alcotest.(check int) "leaf" 1 (depth All);
  Alcotest.(check int) "nested" 3 (depth (Complement (Union [ All; Is Pred.Smiling ])));
  Alcotest.(check int) "find" 2 (depth (Find (All, Pred.Smiling, Func.Get_left)))

let test_action_roundtrip () =
  List.iter
    (fun a ->
      Alcotest.(check bool) "roundtrip" true
        (Lang.action_of_string (Lang.action_to_string a) = Some a))
    Lang.all_actions;
  Alcotest.(check bool) "unknown" true (Lang.action_of_string "Nope" = None)

(* ---------- Eval: Fig. 2 example ---------- *)

let test_eval_is () =
  let u = fig2_universe () in
  check_ids u [ 1 ] (Eval.extractor u (Lang.Is Pred.Face_object));
  check_ids u [ 2 ] (Eval.extractor u (Lang.Is (Pred.Object "car")));
  check_ids u [ 3 ] (Eval.extractor u (Lang.Is Pred.Text_object));
  check_ids u [ 0; 1; 2; 3 ] (Eval.extractor u Lang.All)

let test_eval_set_ops () =
  let u = fig2_universe () in
  check_ids u [ 0; 1; 3 ] (Eval.extractor u (Lang.Complement (Lang.Is (Pred.Object "car"))));
  check_ids u [ 1; 2 ]
    (Eval.extractor u (Lang.Union [ Lang.Is Pred.Face_object; Lang.Is (Pred.Object "car") ]));
  check_ids u [ 1 ]
    (Eval.extractor u (Lang.Intersect [ Lang.Is Pred.Face_object; Lang.Is Pred.Smiling ]))

let test_eval_filter () =
  let u = fig2_universe () in
  (* Filter(Is(Object(car)), TextObject): text on cars. *)
  check_ids u [ 3 ]
    (Eval.extractor u (Lang.Filter (Lang.Is (Pred.Object "car"), Pred.Text_object)));
  (* people who are inside cars: none here. *)
  check_ids u []
    (Eval.extractor u (Lang.Filter (Lang.Is (Pred.Object "car"), Pred.Object "person")));
  (* faces inside people. *)
  check_ids u [ 1 ]
    (Eval.extractor u (Lang.Filter (Lang.Is (Pred.Object "person"), Pred.Face_object)))

(* ---------- Eval: Fig. 4 cats-between-cats example ---------- *)

let test_eval_cats_between () =
  let u = three_cats_universe () in
  let prog =
    Lang.Intersect
      [
        Lang.Find (Lang.Is (Pred.Object "cat"), Pred.Object "cat", Func.Get_right);
        Lang.Find (Lang.Is (Pred.Object "cat"), Pred.Object "cat", Func.Get_left);
      ]
  in
  (* Only the middle cat has cats on both sides. *)
  check_ids u [ 1 ] (Eval.extractor u prog)

let test_eval_find_nearest_first () =
  let u = three_cats_universe () in
  (* From cat 0, the first cat to the right is cat 1 (nearest), so the Find
     over Is(cat) maps 0 -> 1, 1 -> 2, 2 -> none. *)
  check_ids u [ 1; 2 ]
    (Eval.extractor u (Lang.Find (Lang.Is (Pred.Object "cat"), Pred.Object "cat", Func.Get_right)))

let test_eval_find_skips_nonmatching () =
  (* A face between two cats: the first *cat* right of cat 0 is cat 2,
     skipping the non-matching face. *)
  let u =
    universe
      [
        (0, thing "cat", box 10 50 20 20);
        (0, face (), box 40 50 20 20);
        (0, thing "cat", box 70 50 20 20);
      ]
  in
  check_ids u [ 2 ]
    (Eval.extractor u (Lang.Find (Lang.Is (Pred.Object "cat"), Pred.Object "cat", Func.Get_right)))

let test_eval_find_get_parents () =
  let u = fig2_universe () in
  (* Cars with text on them (task 33). *)
  check_ids u [ 2 ]
    (Eval.extractor u (Lang.Find (Lang.Is Pred.Text_object, Pred.Object "car", Func.Get_parents)))

let test_eval_empty_results () =
  let u = three_cats_universe () in
  check_ids u [] (Eval.extractor u (Lang.Is (Pred.Object "dog")));
  check_ids u []
    (Eval.extractor u (Lang.Find (Lang.Is (Pred.Object "dog"), Pred.Object "cat", Func.Get_left)));
  check_ids u [] (Eval.extractor u (Lang.Complement Lang.All))

let test_eval_multi_image () =
  (* The same geometry in two raw images: extractors operate per image. *)
  let u =
    universe
      [
        (0, thing "cat", box 10 50 20 20);
        (0, thing "cat", box 70 50 20 20);
        (1, thing "cat", box 10 50 20 20);
      ]
  in
  (* first cat right of each cat: image 0 gives 0 -> 1; image 1 nothing. *)
  check_ids u [ 1 ]
    (Eval.extractor u (Lang.Find (Lang.Is (Pred.Object "cat"), Pred.Object "cat", Func.Get_right)))

(* Property: the evaluator agrees with a naive reference implementation on
   random small programs and universes. *)

let random_universe_gen =
  QCheck2.Gen.(
    let entity_gen =
      let* img = int_bound 1 in
      let* kind =
        oneof
          [
            return (thing "cat");
            return (thing "dog");
            return (face ~face_id:1 ~smiling:true ());
            return (face ~face_id:2 ());
          ]
      in
      let* x = int_bound 8 and* y = int_bound 8 in
      return (img, kind, box (x * 25) (y * 25) 20 20)
    in
    list_size (int_range 1 8) entity_gen >|= universe)

let extractor_gen =
  let open QCheck2.Gen in
  let pred = oneofl [ Pred.Object "cat"; Pred.Object "dog"; Pred.Face_object; Pred.Smiling ] in
  let func = oneofl Func.all in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then
            oneof [ return Lang.All; (pred >|= fun p -> Lang.Is p) ]
          else
            oneof
              [
                (pred >|= fun p -> Lang.Is p);
                (self (n / 2) >|= fun e -> Lang.Complement e);
                ( pair (self (n / 2)) (self (n / 2)) >|= fun (a, b) -> Lang.Union [ a; b ] );
                ( pair (self (n / 2)) (self (n / 2)) >|= fun (a, b) -> Lang.Intersect [ a; b ] );
                ( triple (self (n / 2)) pred func >|= fun (e, p, f) -> Lang.Find (e, p, f) );
                ( pair (self (n / 2)) pred >|= fun (e, p) -> Lang.Filter (e, p) );
              ])
        (min n 8))

(* Reference evaluator: direct recursive implementation over id lists. *)
let rec reference_eval u e =
  let module Universe = Imageeye_symbolic.Universe in
  let all = List.init (Universe.size u) Fun.id in
  let module IS = Set.Make (Int) in
  match e with
  | Lang.All -> IS.of_list all
  | Lang.Is p ->
      IS.of_list (List.filter (fun i -> Pred.entails (Universe.entity u i) p) all)
  | Lang.Complement e1 -> IS.diff (IS.of_list all) (reference_eval u e1)
  | Lang.Union es -> List.fold_left (fun acc e -> IS.union acc (reference_eval u e)) IS.empty es
  | Lang.Intersect es ->
      List.fold_left (fun acc e -> IS.inter acc (reference_eval u e)) (IS.of_list all) es
  | Lang.Find (e1, p, f) ->
      IS.of_list
        (List.filter_map
           (fun o -> Eval.find_first u f p o)
           (IS.elements (reference_eval u e1)))
  | Lang.Filter (e1, p) ->
      IS.of_list
        (List.concat_map
           (fun o ->
             List.filter
               (fun inner -> Pred.entails (Universe.entity u inner) p)
               (Array.to_list (Universe.contents u o)))
           (IS.elements (reference_eval u e1)))

let eval_agrees_prop =
  QCheck2.Test.make ~name:"evaluator agrees with reference" ~count:300
    (QCheck2.Gen.pair random_universe_gen extractor_gen)
    (fun (u, e) ->
      let module IS = Set.Make (Int) in
      IS.elements (reference_eval u e) = Simage.to_ids (Eval.extractor u e))

let union_intersect_props =
  let gen = QCheck2.Gen.pair random_universe_gen (QCheck2.Gen.pair extractor_gen extractor_gen) in
  [
    QCheck2.Test.make ~name:"union commutative semantics" ~count:150 gen
      (fun (u, (a, b)) ->
        Simage.equal (Eval.extractor u (Lang.Union [ a; b ]))
          (Eval.extractor u (Lang.Union [ b; a ])));
    QCheck2.Test.make ~name:"de morgan semantics" ~count:150 gen (fun (u, (a, b)) ->
        Simage.equal
          (Eval.extractor u (Lang.Complement (Lang.Union [ a; b ])))
          (Eval.extractor u (Lang.Intersect [ Lang.Complement a; Lang.Complement b ])));
    QCheck2.Test.make ~name:"double complement" ~count:150
      (QCheck2.Gen.pair random_universe_gen extractor_gen) (fun (u, a) ->
        Simage.equal (Eval.extractor u (Lang.Complement (Lang.Complement a))) (Eval.extractor u a));
    QCheck2.Test.make ~name:"find output within predicate extension" ~count:150
      (QCheck2.Gen.pair random_universe_gen extractor_gen) (fun (u, e) ->
        let out = Eval.extractor u (Lang.Find (e, Pred.Object "cat", Func.Get_left)) in
        Simage.subset out (Eval.extractor u (Lang.Is (Pred.Object "cat"))));
  ]

(* ---------- Explain (selection provenance) ---------- *)

module Explain = Imageeye_core.Explain

let test_explain_is () =
  let u = fig2_universe () in
  (match Explain.selected u (Lang.Is (Pred.Object "car")) 2 with
  | Some t ->
      Alcotest.(check bool) "mentions predicate" true
        (String.length t.Explain.what > 0 && t.Explain.children = [])
  | None -> Alcotest.fail "expected selected");
  Alcotest.(check bool) "not selected gives None" true
    (Explain.selected u (Lang.Is (Pred.Object "car")) 0 = None);
  match Explain.why_not u (Lang.Is (Pred.Object "car")) 0 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected why_not"

let test_explain_union_intersect () =
  let u = fig2_universe () in
  let e = Lang.Union [ Lang.Is (Pred.Object "car"); Lang.Is Pred.Face_object ] in
  (match Explain.selected u e 1 with
  | Some t -> Alcotest.(check int) "one firing operand" 1 (List.length t.Explain.children)
  | None -> Alcotest.fail "face is selected");
  let e2 = Lang.Intersect [ Lang.Is Pred.Face_object; Lang.Is Pred.Smiling ] in
  match Explain.selected u e2 1 with
  | Some t -> Alcotest.(check int) "both operands" 2 (List.length t.Explain.children)
  | None -> Alcotest.fail "smiling face is selected"

let test_explain_find_witness () =
  let u = three_cats_universe () in
  let e = Lang.Find (Lang.Is (Pred.Object "cat"), Pred.Object "cat", Func.Get_right) in
  (* cat 1 is the first cat right of cat 0 *)
  match Explain.selected u e 1 with
  | Some t ->
      Alcotest.(check bool) "names the source" true
        (String.length t.Explain.what > 5 && List.length t.Explain.children = 1)
  | None -> Alcotest.fail "expected selected"

let test_explain_complement_and_render () =
  let u = three_cats_universe () in
  let e = Lang.Complement (Lang.Is (Pred.Object "dog")) in
  let text = Explain.explain u e 0 in
  Alcotest.(check bool) "selected prefix" true
    (String.length text > 9 && String.sub text 0 9 = "selected:");
  let text2 = Explain.explain u (Lang.Is (Pred.Object "dog")) 0 in
  Alcotest.(check bool) "not-selected prefix" true
    (String.length text2 > 12 && String.sub text2 0 13 = "not selected:")

(* Property: explain agrees with the evaluator on selection, for random
   extractors and objects. *)
let explain_agrees_prop =
  QCheck2.Test.make ~name:"explain agrees with eval" ~count:200
    (QCheck2.Gen.pair random_universe_gen extractor_gen)
    (fun (u, e) ->
      let value = Eval.extractor u e in
      List.for_all
        (fun id ->
          let sel = Explain.selected u e id <> None in
          let not_sel = Explain.why_not u e id <> None in
          sel = Simage.mem value id && not_sel = not (Simage.mem value id))
        (List.init (Imageeye_symbolic.Universe.size u) Fun.id))

let () =
  Alcotest.run "dsl"
    [
      ( "pred",
        [
          Alcotest.test_case "faces" `Quick test_entailment_faces;
          Alcotest.test_case "ages" `Quick test_entailment_ages;
          Alcotest.test_case "things" `Quick test_entailment_things;
          Alcotest.test_case "text" `Quick test_entailment_text;
          Alcotest.test_case "price format" `Quick test_price_format;
          Alcotest.test_case "phone format" `Quick test_phone_format;
          Alcotest.test_case "size" `Quick test_pred_size;
          QCheck_alcotest.to_alcotest entails_reference_prop;
        ] );
      ( "lang",
        [
          Alcotest.test_case "size" `Quick test_lang_size;
          Alcotest.test_case "depth" `Quick test_lang_depth;
          Alcotest.test_case "action roundtrip" `Quick test_action_roundtrip;
        ] );
      ( "eval",
        [
          Alcotest.test_case "Is / All" `Quick test_eval_is;
          Alcotest.test_case "set operators" `Quick test_eval_set_ops;
          Alcotest.test_case "filter" `Quick test_eval_filter;
          Alcotest.test_case "cats between cats (Fig. 4)" `Quick test_eval_cats_between;
          Alcotest.test_case "find nearest first" `Quick test_eval_find_nearest_first;
          Alcotest.test_case "find skips non-matching" `Quick test_eval_find_skips_nonmatching;
          Alcotest.test_case "find get-parents" `Quick test_eval_find_get_parents;
          Alcotest.test_case "empty results" `Quick test_eval_empty_results;
          Alcotest.test_case "multi-image isolation" `Quick test_eval_multi_image;
        ]
        @ List.map QCheck_alcotest.to_alcotest (eval_agrees_prop :: union_intersect_props) );
      ( "explain",
        [
          Alcotest.test_case "is" `Quick test_explain_is;
          Alcotest.test_case "union and intersect" `Quick test_explain_union_intersect;
          Alcotest.test_case "find witness" `Quick test_explain_find_witness;
          Alcotest.test_case "complement and render" `Quick test_explain_complement_and_render;
          QCheck_alcotest.to_alcotest explain_agrees_prop;
        ] );
    ]
