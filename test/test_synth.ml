(* Tests for the synthesis machinery: goal inference (Fig. 11, Example 5.9),
   partial programs, partial evaluation (Fig. 12, Example 5.10), the rewrite
   system (Fig. 13, Example 5.11), and the worklist synthesizer itself,
   including its ablation configurations. *)

module Lang = Imageeye_core.Lang
module Pred = Imageeye_core.Pred
module Func = Imageeye_core.Func
module Goal = Imageeye_core.Goal
module Partial = Imageeye_core.Partial
module Peval = Imageeye_core.Peval
module Rewrite = Imageeye_core.Rewrite
module Vocab = Imageeye_core.Vocab
module Synthesizer = Imageeye_core.Synthesizer
module Eval = Imageeye_core.Eval
module Edit = Imageeye_core.Edit
module Simage = Imageeye_symbolic.Simage
open Test_support

(* ---------- Goal ---------- *)

let test_goal_consistency () =
  let u = three_cats_universe () in
  let g = Goal.make ~under:(Simage.of_ids u [ 0 ]) ~over:(Simage.of_ids u [ 0; 1 ]) in
  Alcotest.(check bool) "within" true (Goal.consistent (Simage.of_ids u [ 0; 1 ]) g);
  Alcotest.(check bool) "exact under" true (Goal.consistent (Simage.of_ids u [ 0 ]) g);
  Alcotest.(check bool) "misses under" false (Goal.consistent (Simage.of_ids u [ 1 ]) g);
  Alcotest.(check bool) "exceeds over" false (Goal.consistent (Simage.of_ids u [ 0; 2 ]) g)

let test_goal_infer_union () =
  (* ||Union||(I-, I+) = (empty, I+) *)
  let u = three_cats_universe () in
  let g = Goal.make ~under:(Simage.of_ids u [ 0 ]) ~over:(Simage.of_ids u [ 0; 1 ]) in
  let child = Goal.infer u Goal.For_union g in
  Alcotest.(check bool) "under empty" true (Simage.is_empty child.Goal.under);
  check_ids u [ 0; 1 ] child.Goal.over

let test_goal_infer_intersect () =
  (* ||Intersect||(I-, I+) = (I-, I_in) *)
  let u = three_cats_universe () in
  let g = Goal.make ~under:(Simage.of_ids u [ 0 ]) ~over:(Simage.of_ids u [ 0; 1 ]) in
  let child = Goal.infer u Goal.For_intersect g in
  check_ids u [ 0 ] child.Goal.under;
  check_ids u [ 0; 1; 2 ] child.Goal.over

let test_goal_infer_complement () =
  (* ||Complement||(I-, I+) = (I_in \ I+, I_in \ I-) *)
  let u = three_cats_universe () in
  let g = Goal.make ~under:(Simage.of_ids u [ 0 ]) ~over:(Simage.of_ids u [ 0; 1 ]) in
  let child = Goal.infer u Goal.For_complement g in
  check_ids u [ 2 ] child.Goal.under;
  check_ids u [ 1; 2 ] child.Goal.over

let test_goal_infer_find_filter_trivial () =
  let u = three_cats_universe () in
  let g = Goal.exact (Simage.of_ids u [ 1 ]) in
  List.iter
    (fun op ->
      let child = Goal.infer u op g in
      Alcotest.(check bool) "trivial" true (Goal.equal child (Goal.trivial u)))
    [ Goal.For_find; Goal.For_filter ]

(* Example 5.9: goals through Union(Complement(Is(Object(car))), hole) with
   the license plate as the target output. *)
let test_goal_example_5_9 () =
  let u = fig2_universe () in
  let i_out = Simage.of_ids u [ 3 ] in
  let top = Goal.exact i_out in
  let union_child = Goal.infer u Goal.For_union top in
  check_ids u [] union_child.Goal.under;
  check_ids u [ 3 ] union_child.Goal.over;
  let complement_child = Goal.infer u Goal.For_complement union_child in
  (* (I_in \ I+, I_in \ I-) = ({0,1,2}, everything) *)
  check_ids u [ 0; 1; 2 ] complement_child.Goal.under;
  check_ids u [ 0; 1; 2; 3 ] complement_child.Goal.over

(* ---------- Partial ---------- *)

let test_partial_metrics () =
  let u = three_cats_universe () in
  let g = Goal.trivial u in
  let h = Partial.hole g in
  Alcotest.(check int) "hole size" 1 (Partial.size h);
  Alcotest.(check bool) "hole incomplete" false (Partial.is_complete h);
  let p = Partial.make g (Partial.Union [ h; Partial.make g (Partial.Is Pred.Smiling) ]) in
  Alcotest.(check int) "union size" 4 (Partial.size p);
  Alcotest.(check int) "holes" 1 (Partial.count_holes p);
  Alcotest.(check bool) "incomplete" true (Partial.to_extractor p = None)

let test_partial_of_extractor_roundtrip () =
  let u = three_cats_universe () in
  let g = Goal.trivial u in
  let e =
    Lang.Intersect
      [ Lang.Is (Pred.Object "cat"); Lang.Complement (Lang.Find (Lang.All, Pred.Smiling, Func.Get_left)) ]
  in
  let p = Partial.of_extractor g e in
  Alcotest.(check bool) "complete" true (Partial.is_complete p);
  Alcotest.(check bool) "roundtrip" true (Partial.to_extractor p = Some e);
  Alcotest.(check int) "size matches Lang.size" (Lang.size e) (Partial.size p);
  Alcotest.(check int) "depth matches Lang.depth" (Lang.depth e) (Partial.depth p)

(* ---------- Peval ---------- *)

(* Example 5.10: Union(Complement(Is(Object(car))), hole) with target = just
   the license plate is inconsistent — the complement produces the person
   and the face, which are not in the goal's over-approximation. *)
let test_peval_example_5_10 () =
  let u = fig2_universe () in
  let i_out = Simage.of_ids u [ 3 ] in
  let top = Goal.exact i_out in
  let union_goal = Goal.infer u Goal.For_union top in
  let compl_goal = Goal.infer u Goal.For_complement union_goal in
  let p =
    Partial.make top
      (Partial.Union
         [
           Partial.make union_goal
             (Partial.Complement
                (Partial.make compl_goal (Partial.Is (Pred.Object "car"))));
           Partial.hole union_goal;
         ])
  in
  Alcotest.(check bool) "rejected" true
    (Peval.run ~check_goals:true ~collapse:true u p = None);
  (* Without goal checking (the ablation) the same program survives. *)
  Alcotest.(check bool) "survives without goals" true
    (Peval.run ~check_goals:false ~collapse:true u p <> None)

let test_peval_collapses_complete_subtrees () =
  let u = three_cats_universe () in
  let g = Goal.trivial u in
  let p =
    Partial.make g
      (Partial.Union
         [ Partial.make g (Partial.Is (Pred.Object "cat")); Partial.hole g ])
  in
  match Peval.run ~check_goals:true ~collapse:true u p with
  | Some (Peval.Form.Union [ Peval.Form.Const v; Peval.Form.Hole ]) ->
      Alcotest.(check (list int)) "const value" [ 0; 1; 2 ] (Simage.to_ids v)
  | Some f -> Alcotest.failf "unexpected form %s" (Format.asprintf "%a" Peval.Form.pp f)
  | None -> Alcotest.fail "unexpected bottom"

let test_peval_syntactic_mode () =
  let u = three_cats_universe () in
  let g = Goal.trivial u in
  let p =
    Partial.make g (Partial.Complement (Partial.make g Partial.All))
  in
  match Peval.run ~check_goals:false ~collapse:false u p with
  | Some (Peval.Form.Complement Peval.Form.All) -> ()
  | Some f -> Alcotest.failf "unexpected form %s" (Format.asprintf "%a" Peval.Form.pp f)
  | None -> Alcotest.fail "unexpected bottom"

let test_peval_whole_program_value () =
  let u = three_cats_universe () in
  let g = Goal.exact (Simage.of_ids u [ 0; 1; 2 ]) in
  let p = Partial.of_extractor g (Lang.Is (Pred.Object "cat")) in
  (match Peval.run ~check_goals:true ~collapse:true u p with
  | Some (Peval.Form.Const v) -> Alcotest.(check (list int)) "value" [ 0; 1; 2 ] (Simage.to_ids v)
  | _ -> Alcotest.fail "expected const");
  (* A complete program violating its exact goal is bottom. *)
  let bad = Partial.of_extractor g (Lang.Is (Pred.Object "dog")) in
  Alcotest.(check bool) "bad rejected" true
    (Peval.run ~check_goals:true ~collapse:true u bad = None)

(* ---------- Absint ---------- *)

module Absint = Imageeye_core.Absint
module Form = Imageeye_core.Form

(* The ISSUE's motivating example: once k-1 children of a Union are
   resolved, the last hole's goal tightens from {under = ∅} to
   {under = goal.under \ ⋃ siblings.over}. *)
let test_absint_union_sibling_tightening () =
  let u = three_cats_universe () in
  let top = Goal.exact (Simage.of_ids u [ 0; 1 ]) in
  let child = Goal.infer u Goal.For_union top in
  let h = Partial.hole child in
  let root =
    Partial.make top
      (Partial.Union [ Partial.make child (Partial.Is (Pred.Object "cat")); h ])
  in
  let form = Form.Union [ Form.Const (Simage.of_ids u [ 0 ]); Form.Hole ] in
  let env = Absint.make_env u in
  (match Absint.analyze env root form with
  | Absint.Feasible -> ()
  | Absint.Infeasible -> Alcotest.fail "expected feasible");
  match Partial.tight_for root ~hole:h with
  | None -> Alcotest.fail "expected a tightened hole goal"
  | Some g ->
      check_ids u [ 1 ] g.Goal.under;
      check_ids u [ 0; 1 ] g.Goal.over;
      Alcotest.(check int) "tightened counter" 1 env.Absint.tightened

(* A resolved child producing an object outside the goal's
   over-approximation makes the whole candidate infeasible. *)
let test_absint_infeasible_kill () =
  let u = three_cats_universe () in
  let top = Goal.exact (Simage.of_ids u [ 0 ]) in
  let child = Goal.infer u Goal.For_union top in
  let root =
    Partial.make top
      (Partial.Union
         [ Partial.make child (Partial.Is (Pred.Object "cat")); Partial.hole child ])
  in
  let form = Form.Union [ Form.Const (Simage.of_ids u [ 2 ]); Form.Hole ] in
  let env = Absint.make_env u in
  Alcotest.(check bool) "infeasible" true (Absint.analyze env root form = Absint.Infeasible)

(* Backward transfer through Complement: sibling information from an
   enclosing Union reaches the hole under the complement, shrinking its
   over-approximation from full to ¬{tightened under}. *)
let test_absint_complement_transfer () =
  let u = three_cats_universe () in
  let top = Goal.exact (Simage.of_ids u [ 0; 1 ]) in
  let child = Goal.infer u Goal.For_union top in
  let hole_goal = Goal.infer u Goal.For_complement child in
  let h = Partial.hole hole_goal in
  let root =
    Partial.make top
      (Partial.Union
         [
           Partial.make child (Partial.Is (Pred.Object "cat"));
           Partial.make child (Partial.Complement h);
         ])
  in
  let form =
    Form.Union [ Form.Const (Simage.of_ids u [ 0 ]); Form.Complement Form.Hole ]
  in
  (* Goal inference alone gives the hole [{2}, {0,1,2}].  The fixpoint
     learns the complement must produce 1 (the sibling cannot), so the
     hole must exclude 1: [{2}, {0,2}]. *)
  check_ids u [ 2 ] hole_goal.Goal.under;
  check_ids u [ 0; 1; 2 ] hole_goal.Goal.over;
  let env = Absint.make_env u in
  (match Absint.analyze env root form with
  | Absint.Feasible -> ()
  | Absint.Infeasible -> Alcotest.fail "expected feasible");
  match Partial.tight_for root ~hole:h with
  | None -> Alcotest.fail "expected a tightened hole goal"
  | Some g ->
      check_ids u [ 2 ] g.Goal.under;
      check_ids u [ 0; 2 ] g.Goal.over

(* Backward transfer through Intersect: objects every resolved sibling
   keeps but the node must drop can only be dropped by the hole. *)
let test_absint_intersect_transfer () =
  let u = three_cats_universe () in
  let top = Goal.exact (Simage.of_ids u [ 0 ]) in
  let child = Goal.infer u Goal.For_intersect top in
  let h = Partial.hole child in
  let root =
    Partial.make top
      (Partial.Intersect [ Partial.make child (Partial.Is (Pred.Object "cat")); h ])
  in
  let form = Form.Intersect [ Form.Const (Simage.of_ids u [ 0; 1 ]); Form.Hole ] in
  check_ids u [ 0; 1; 2 ] child.Goal.over;
  let env = Absint.make_env u in
  (match Absint.analyze env root form with
  | Absint.Feasible -> ()
  | Absint.Infeasible -> Alcotest.fail "expected feasible");
  match Partial.tight_for root ~hole:h with
  | None -> Alcotest.fail "expected a tightened hole goal"
  | Some g ->
      (* The sibling keeps 1 but the goal excludes it, so the hole must
         drop it: over tightens from full to {0,2}. *)
      check_ids u [ 0 ] g.Goal.under;
      check_ids u [ 0; 2 ] g.Goal.over

(* Find is bounded by the reach of its parameterization: when the goal
   demands an object the reach cannot deliver, the candidate dies. *)
let test_absint_find_reach_kill () =
  let u = three_cats_universe () in
  let top = Goal.exact (Simage.of_ids u [ 0 ]) in
  let hole_goal = Goal.infer u Goal.For_find top in
  let root =
    Partial.make top
      (Partial.Find (Partial.hole hole_goal, Pred.Object "cat", Func.Get_left))
  in
  let form = Form.Find (Form.Hole, Pred.Object "cat", Func.Get_left) in
  let reach = Simage.of_ids u [ 1 ] in
  let killed = Absint.make_env ~reach_find:(fun _ _ -> reach) u in
  Alcotest.(check bool) "killed by reach" true
    (Absint.analyze killed root form = Absint.Infeasible);
  (* The default (full-universe) reach is sound but uninformative. *)
  let admitted = Absint.make_env u in
  Alcotest.(check bool) "admitted without reach" true
    (Absint.analyze admitted root form = Absint.Feasible)

(* The iteration cap only bounds work; stopping early is sound and the
   counters record the rounds actually run. *)
let test_absint_iteration_cap () =
  let u = three_cats_universe () in
  let top = Goal.exact (Simage.of_ids u [ 0; 1 ]) in
  let child = Goal.infer u Goal.For_union top in
  let hole_goal = Goal.infer u Goal.For_complement child in
  let root =
    Partial.make top
      (Partial.Union
         [
           Partial.make child (Partial.Is (Pred.Object "cat"));
           Partial.make child (Partial.Complement (Partial.hole hole_goal));
         ])
  in
  let form =
    Form.Union [ Form.Const (Simage.of_ids u [ 0 ]); Form.Complement Form.Hole ]
  in
  let env = Absint.make_env ~max_iterations:1 u in
  Alcotest.(check bool) "still feasible" true
    (Absint.analyze env root form = Absint.Feasible);
  Alcotest.(check int) "one round" 1 env.Absint.iterations;
  Alcotest.(check int) "one analysis" 1 env.Absint.analyses

(* A form whose shape cannot be mirrored (collapse was off, so complete
   leaves are not constants) is admitted unanalyzed, never guessed at. *)
let test_absint_mismatch_admitted () =
  let u = three_cats_universe () in
  let g = Goal.trivial u in
  let root = Partial.make g (Partial.Union [ Partial.make g Partial.All; Partial.hole g ]) in
  let form = Form.Union [ Form.All; Form.Hole ] in
  let env = Absint.make_env u in
  Alcotest.(check bool) "admitted" true (Absint.analyze env root form = Absint.Feasible);
  Alcotest.(check bool) "no tightening" true (Partial.tight root = [])

(* ---------- Rewrite ---------- *)

let const u ids = Peval.Form.Const (Simage.of_ids u ids)

let test_rewrite_idempotence_and_domination () =
  let u = three_cats_universe () in
  (* Union(A, A) and Example 5.11's subset domination. *)
  Alcotest.(check bool) "union dup consts" true
    (Rewrite.reducible (Peval.Form.Union [ const u [ 0 ]; const u [ 0 ] ]));
  Alcotest.(check bool) "union subset" true
    (Rewrite.reducible (Peval.Form.Union [ const u [ 0 ]; const u [ 0; 1 ] ]));
  Alcotest.(check bool) "intersect superset" true
    (Rewrite.reducible (Peval.Form.Intersect [ const u [ 0 ]; const u [ 0; 1 ] ]));
  Alcotest.(check bool) "incomparable consts fine" false
    (Rewrite.reducible (Peval.Form.Union [ const u [ 0 ]; const u [ 1 ] ]))

let test_rewrite_holes_not_equal () =
  (* Union(hole, hole) must NOT be pruned: its two holes can be completed
     differently. *)
  Alcotest.(check bool) "two holes fine" false
    (Rewrite.reducible (Peval.Form.Union [ Peval.Form.Hole; Peval.Form.Hole ]));
  Alcotest.(check bool) "intersect holes fine" false
    (Rewrite.reducible (Peval.Form.Intersect [ Peval.Form.Hole; Peval.Form.Hole ]))

let test_rewrite_commutativity_canonical () =
  let u = three_cats_universe () in
  (* Const operands must appear in canonical (value) order. *)
  let small = const u [ 0 ] and big = const u [ 1 ] in
  Alcotest.(check bool) "sorted ok" false (Rewrite.reducible (Peval.Form.Union [ small; big ]));
  Alcotest.(check bool) "unsorted pruned" true
    (Rewrite.reducible (Peval.Form.Union [ big; small ]));
  (* Concrete operands come before holes (the paper's P1 vs P2 example). *)
  Alcotest.(check bool) "P1 = Union(Is, hole) ok" false
    (Rewrite.reducible (Peval.Form.Union [ small; Peval.Form.Hole ]));
  Alcotest.(check bool) "P2 = Union(hole, Is) pruned" true
    (Rewrite.reducible (Peval.Form.Union [ Peval.Form.Hole; small ]))

let test_rewrite_double_complement () =
  Alcotest.(check bool) "double complement" true
    (Rewrite.reducible (Peval.Form.Complement (Peval.Form.Complement Peval.Form.Hole)));
  Alcotest.(check bool) "single fine" false
    (Rewrite.reducible (Peval.Form.Complement Peval.Form.Hole))

let test_rewrite_de_morgan () =
  let c = Peval.Form.Complement Peval.Form.Hole in
  Alcotest.(check bool) "union of complements" true
    (Rewrite.reducible (Peval.Form.Union [ c; c ]));
  Alcotest.(check bool) "intersect of complements" true
    (Rewrite.reducible (Peval.Form.Intersect [ c; c ]));
  (* canonical order puts the complement before the hole *)
  Alcotest.(check bool) "mixed fine" false
    (Rewrite.reducible (Peval.Form.Union [ c; Peval.Form.Hole ]))

let test_rewrite_absorption () =
  let u = three_cats_universe () in
  let a = const u [ 0 ] in
  Alcotest.(check bool) "Union(A, Intersect(A, hole))" true
    (Rewrite.reducible (Peval.Form.Union [ a; Peval.Form.Intersect [ a; Peval.Form.Hole ] ]));
  Alcotest.(check bool) "Intersect(A, Union(A, hole))" true
    (Rewrite.reducible (Peval.Form.Intersect [ a; Peval.Form.Union [ a; Peval.Form.Hole ] ]))

let test_rewrite_distribution () =
  let u = three_cats_universe () in
  let a = const u [ 0 ] and h = Peval.Form.Hole in
  Alcotest.(check bool) "common factor" true
    (Rewrite.reducible
       (Peval.Form.Union
          [ Peval.Form.Intersect [ a; h ]; Peval.Form.Intersect [ a; h ] ]))

let test_rewrite_associativity () =
  Alcotest.(check bool) "nested union" true
    (Rewrite.reducible (Peval.Form.Union [ Peval.Form.Union [ Peval.Form.Hole; Peval.Form.Hole ]; Peval.Form.Hole ]));
  Alcotest.(check bool) "nested intersect" true
    (Rewrite.reducible
       (Peval.Form.Intersect [ Peval.Form.Intersect [ Peval.Form.Hole; Peval.Form.Hole ]; Peval.Form.Hole ]));
  (* union inside intersect is fine *)
  Alcotest.(check bool) "mixed nesting fine" false
    (Rewrite.reducible
       (Peval.Form.Intersect [ Peval.Form.Union [ Peval.Form.Hole; Peval.Form.Hole ]; Peval.Form.Hole ]))

let test_rewrite_recurses () =
  let u = three_cats_universe () in
  let bad = Peval.Form.Union [ const u [ 0 ]; const u [ 0 ] ] in
  Alcotest.(check bool) "inside find" true
    (Rewrite.reducible (Peval.Form.Find (bad, Pred.Smiling, Func.Get_left)));
  Alcotest.(check bool) "inside complement" true
    (Rewrite.reducible (Peval.Form.Complement bad))

(* ---------- Vocab ---------- *)

let test_vocab_contents () =
  let u = fig2_universe () in
  let v = Vocab.of_universe u in
  let preds = Vocab.predicates v in
  let has p = List.mem p preds in
  Alcotest.(check bool) "face object" true (has Pred.Face_object);
  Alcotest.(check bool) "face id" true (has (Pred.Face 1));
  Alcotest.(check bool) "smiling" true (has Pred.Smiling);
  Alcotest.(check bool) "below age default" true (has (Pred.Below_age 18));
  Alcotest.(check bool) "text object" true (has Pred.Text_object);
  Alcotest.(check bool) "word" true (has (Pred.Word "FDE945"));
  Alcotest.(check bool) "price" true (has Pred.Price);
  Alcotest.(check bool) "person class" true (has (Pred.Object "person"));
  Alcotest.(check bool) "car class" true (has (Pred.Object "car"));
  Alcotest.(check bool) "no cat class" false (has (Pred.Object "cat"))

let test_vocab_no_faces_no_face_preds () =
  let u = three_cats_universe () in
  let preds = Vocab.predicates (Vocab.of_universe u) in
  Alcotest.(check bool) "no smiling" false (List.mem Pred.Smiling preds);
  Alcotest.(check bool) "no text" false (List.mem Pred.Text_object preds);
  Alcotest.(check (list bool)) "only cat class" [ true ]
    (List.map (fun p -> p = Pred.Object "cat") preds)

(* ---------- Synthesizer ---------- *)

let synth_config = { Synthesizer.default_config with timeout_s = 10.0 }

let synthesize_exn ?(config = synth_config) u i_out =
  match Synthesizer.synthesize_extractor ~config u i_out with
  | Synthesizer.Success (e, _) -> e
  | Synthesizer.Timeout _ -> Alcotest.fail "synthesis timed out"
  | Synthesizer.Exhausted _ -> Alcotest.fail "synthesis exhausted"

let check_solves ?config u i_out =
  let e = synthesize_exn ?config u i_out in
  Alcotest.(check bool)
    (Printf.sprintf "found %s" (Lang.extractor_to_string e))
    true
    (Simage.equal (Eval.extractor u e) i_out)

let test_synth_is () =
  let u = fig2_universe () in
  check_solves u (Simage.of_ids u [ 2 ]);
  (* single car: Is(Object(car)) *)
  let e = synthesize_exn u (Simage.of_ids u [ 2 ]) in
  Alcotest.check Test_support.extractor_testable "smallest" (Lang.Is (Pred.Object "car")) e

let test_synth_all () =
  let u = fig2_universe () in
  let e = synthesize_exn u (Simage.full u) in
  Alcotest.check Test_support.extractor_testable "All" Lang.All e

let test_synth_complement () =
  let u = fig2_universe () in
  check_solves u (Simage.of_ids u [ 0; 1; 3 ])

let test_synth_union () =
  let u = fig2_universe () in
  (* face + car: needs a Union (or equivalent). *)
  check_solves u (Simage.of_ids u [ 1; 2 ])

let test_synth_find () =
  let u = three_cats_universe () in
  (* middle cat only: requires Find-based reasoning. *)
  check_solves u (Simage.of_ids u [ 1 ])

let test_synth_empty_target () =
  let u = three_cats_universe () in
  check_solves u (Simage.empty u)

let test_synth_returns_minimal () =
  let u = three_cats_universe () in
  let e = synthesize_exn u (Simage.full u) in
  Alcotest.(check int) "size 1" 1 (Lang.size e)

let test_synth_timeout_fires () =
  let u = Imageeye_vision.Batch.universe_of_scenes
      (Imageeye_scene.Wedding_gen.generate ~seed:1 ~n_images:3) in
  (* An adversarial target (arbitrary scattered subset) with a tiny budget
     should time out rather than hang. *)
  let ids = Simage.to_ids (Simage.full u) in
  let weird = List.filteri (fun i _ -> i mod 3 = 0) ids in
  let config = { synth_config with timeout_s = 0.05 } in
  match Synthesizer.synthesize_extractor ~config u (Simage.of_ids u weird) with
  | Synthesizer.Timeout st -> Alcotest.(check bool) "fast" true (st.elapsed_s < 5.0)
  | Synthesizer.Success _ -> () (* fine if it is actually that easy *)
  | Synthesizer.Exhausted _ -> ()

(* All four ablation configurations still find correct (if not identical)
   extractors on easy problems — pruning affects speed, not soundness. *)
let test_ablations_sound () =
  let u = fig2_universe () in
  let i_out = Simage.of_ids u [ 0; 1; 3 ] in
  List.iter
    (fun (name, config) ->
      match Synthesizer.synthesize_extractor ~config u i_out with
      | Synthesizer.Success (e, _) ->
          Alcotest.(check bool) (name ^ " correct") true
            (Simage.equal (Eval.extractor u e) i_out)
      | _ -> Alcotest.fail (name ^ " failed"))
    [
      ("full", synth_config);
      ("no goal inference", { synth_config with goal_inference = false });
      ("no partial eval", { synth_config with partial_eval = false });
      ("no equiv reduction", { synth_config with equiv_reduction = false });
      ( "nothing",
        { synth_config with goal_inference = false; partial_eval = false; equiv_reduction = false } );
    ]

(* Pruning should strictly reduce the number of enqueued programs. *)
let test_pruning_reduces_search () =
  let u = fig2_universe () in
  let i_out = Simage.of_ids u [ 0; 1; 3 ] in
  let enqueued config =
    match Synthesizer.synthesize_extractor ~config u i_out with
    | Synthesizer.Success (_, st) -> st.enqueued
    | _ -> max_int
  in
  let full = enqueued synth_config in
  let no_equiv = enqueued { synth_config with Synthesizer.equiv_reduction = false } in
  Alcotest.(check bool)
    (Printf.sprintf "full %d <= no_equiv %d" full no_equiv)
    true (full <= no_equiv)

let test_synthesize_extractors_multi () =
  let u = fig2_universe () in
  (* the complement of the car has several distinct implementations *)
  let i_out = Simage.of_ids u [ 0; 1; 3 ] in
  let extractors, _ = Synthesizer.synthesize_extractors ~config:synth_config ~count:4 u i_out in
  Alcotest.(check bool) "several found" true (List.length extractors >= 2);
  (* all candidates match the examples *)
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Lang.extractor_to_string e ^ " matches")
        true
        (Simage.equal (Eval.extractor u e) i_out))
    extractors;
  (* distinct syntax *)
  Alcotest.(check int) "distinct" (List.length extractors)
    (List.length (List.sort_uniq Stdlib.compare extractors));
  (* the first is what the single-solution entry point returns *)
  match Synthesizer.synthesize_extractor ~config:synth_config u i_out with
  | Synthesizer.Success (e, _) ->
      Alcotest.check Test_support.extractor_testable "first agrees" e (List.hd extractors)
  | _ -> Alcotest.fail "single-solution synthesis failed"

(* Top-level synthesize: one extractor per action. *)
let test_synthesize_program () =
  let u = fig2_universe () in
  let edit =
    Edit.of_list [ (1, [ Lang.Blur ]); (3, [ Lang.Blur; Lang.Blackout ]) ]
  in
  let spec = Edit.Spec.make u [ (0, edit) ] in
  match Synthesizer.synthesize ~config:synth_config spec with
  | Synthesizer.Success (prog, _) ->
      Alcotest.(check int) "two guarded actions" 2 (List.length prog);
      let induced = Edit.induced_by_program u prog in
      Alcotest.(check bool) "matches demonstration" true (Edit.equal induced edit)
  | _ -> Alcotest.fail "synthesis failed"

let test_synthesize_empty_spec () =
  let u = fig2_universe () in
  let spec = Edit.Spec.make u [ (0, Edit.empty) ] in
  match Synthesizer.synthesize ~config:synth_config spec with
  | Synthesizer.Success (prog, _) -> Alcotest.(check int) "empty program" 0 (List.length prog)
  | _ -> Alcotest.fail "should trivially succeed"

(* Property: on random small universes and random target extractors, the
   synthesizer finds something observationally equal to the target. *)
let synth_roundtrip_prop =
  let gen =
    QCheck2.Gen.(
      let* n_cats = int_range 2 4 in
      let* offsets = list_repeat n_cats (int_bound 3) in
      return
        (universe
           (List.mapi
              (fun i off -> (0, thing "cat", box ((i * 60) + 10) ((off * 30) + 10) 20 20))
              offsets)))
  in
  QCheck2.Test.make ~name:"synthesizes every singleton target" ~count:25 gen (fun u ->
      (* every single cat is expressible (leftmost / between etc.) given
         Find and Complement; check the synthesizer handles each. *)
      List.for_all
        (fun i ->
          match
            Synthesizer.synthesize_extractor ~config:synth_config u (Simage.of_ids u [ i ])
          with
          | Synthesizer.Success (e, _) ->
              Simage.equal (Eval.extractor u e) (Simage.of_ids u [ i ])
          | _ -> false)
        (List.init (Imageeye_symbolic.Universe.size u) Fun.id))

let () =
  Alcotest.run "synth"
    [
      ( "goal",
        [
          Alcotest.test_case "consistency" `Quick test_goal_consistency;
          Alcotest.test_case "infer union" `Quick test_goal_infer_union;
          Alcotest.test_case "infer intersect" `Quick test_goal_infer_intersect;
          Alcotest.test_case "infer complement" `Quick test_goal_infer_complement;
          Alcotest.test_case "infer find/filter trivial" `Quick test_goal_infer_find_filter_trivial;
          Alcotest.test_case "example 5.9" `Quick test_goal_example_5_9;
        ] );
      ( "partial",
        [
          Alcotest.test_case "metrics" `Quick test_partial_metrics;
          Alcotest.test_case "of_extractor roundtrip" `Quick test_partial_of_extractor_roundtrip;
        ] );
      ( "peval",
        [
          Alcotest.test_case "example 5.10" `Quick test_peval_example_5_10;
          Alcotest.test_case "collapses complete subtrees" `Quick test_peval_collapses_complete_subtrees;
          Alcotest.test_case "syntactic mode" `Quick test_peval_syntactic_mode;
          Alcotest.test_case "whole-program value" `Quick test_peval_whole_program_value;
        ] );
      ( "absint",
        [
          Alcotest.test_case "union sibling tightening" `Quick test_absint_union_sibling_tightening;
          Alcotest.test_case "infeasible kill" `Quick test_absint_infeasible_kill;
          Alcotest.test_case "complement transfer" `Quick test_absint_complement_transfer;
          Alcotest.test_case "intersect transfer" `Quick test_absint_intersect_transfer;
          Alcotest.test_case "find reach kill" `Quick test_absint_find_reach_kill;
          Alcotest.test_case "iteration cap" `Quick test_absint_iteration_cap;
          Alcotest.test_case "mismatch admitted" `Quick test_absint_mismatch_admitted;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "idempotence and domination" `Quick test_rewrite_idempotence_and_domination;
          Alcotest.test_case "holes never equal" `Quick test_rewrite_holes_not_equal;
          Alcotest.test_case "commutativity canonical order" `Quick test_rewrite_commutativity_canonical;
          Alcotest.test_case "double complement" `Quick test_rewrite_double_complement;
          Alcotest.test_case "de morgan" `Quick test_rewrite_de_morgan;
          Alcotest.test_case "absorption" `Quick test_rewrite_absorption;
          Alcotest.test_case "distribution" `Quick test_rewrite_distribution;
          Alcotest.test_case "associativity" `Quick test_rewrite_associativity;
          Alcotest.test_case "recurses into subterms" `Quick test_rewrite_recurses;
        ] );
      ( "vocab",
        [
          Alcotest.test_case "contents" `Quick test_vocab_contents;
          Alcotest.test_case "domain-dependent" `Quick test_vocab_no_faces_no_face_preds;
        ] );
      ( "synthesizer",
        [
          Alcotest.test_case "single predicate" `Quick test_synth_is;
          Alcotest.test_case "All" `Quick test_synth_all;
          Alcotest.test_case "complement" `Quick test_synth_complement;
          Alcotest.test_case "union" `Quick test_synth_union;
          Alcotest.test_case "find" `Quick test_synth_find;
          Alcotest.test_case "empty target" `Quick test_synth_empty_target;
          Alcotest.test_case "minimality" `Quick test_synth_returns_minimal;
          Alcotest.test_case "timeout fires" `Quick test_synth_timeout_fires;
          Alcotest.test_case "ablations sound" `Quick test_ablations_sound;
          Alcotest.test_case "pruning reduces search" `Quick test_pruning_reduces_search;
          Alcotest.test_case "multiple solutions" `Quick test_synthesize_extractors_multi;
          Alcotest.test_case "top-level program" `Quick test_synthesize_program;
          Alcotest.test_case "empty spec" `Quick test_synthesize_empty_spec;
          QCheck_alcotest.to_alcotest synth_roundtrip_prop;
        ] );
    ]
