(* Soundness properties of the pruning machinery.

   - Theorem 5.8: if a partial program (with goals inferred as the
     synthesizer infers them) is rejected by goal-directed partial
     evaluation, then no completion of it evaluates to the target.
   - Completeness preservation: equivalence reduction prunes only redundant
     programs, so the full synthesizer finds solutions of exactly the same
     (minimal) size as the unpruned search. *)

module Lang = Imageeye_core.Lang
module Pred = Imageeye_core.Pred
module Func = Imageeye_core.Func
module Goal = Imageeye_core.Goal
module Partial = Imageeye_core.Partial
module Peval = Imageeye_core.Peval
module Eval = Imageeye_core.Eval
module Synthesizer = Imageeye_core.Synthesizer
module Simage = Imageeye_symbolic.Simage
open Test_support

(* All completions of a partial program where each hole is drawn from a
   fixed pool of small extractors. *)
let completion_pool =
  Lang.All :: Lang.Complement Lang.All
  :: List.concat_map (fun p -> [ Lang.Is p; Lang.Complement (Lang.Is p) ]) pool_preds

let rec completions (p : Partial.t) : Lang.extractor list =
  match p.node with
  | Partial.Hole -> completion_pool
  | Partial.All -> [ Lang.All ]
  | Partial.Is pr -> [ Lang.Is pr ]
  | Partial.Complement q -> List.map (fun e -> Lang.Complement e) (completions q)
  | Partial.Union [ a; b ] ->
      List.concat_map
        (fun ea -> List.map (fun eb -> Lang.Union [ ea; eb ]) (completions b))
        (completions a)
  | Partial.Intersect [ a; b ] ->
      List.concat_map
        (fun ea -> List.map (fun eb -> Lang.Intersect [ ea; eb ]) (completions b))
        (completions a)
  | Partial.Union _ | Partial.Intersect _ -> []
  | Partial.Find (q, pr, f) -> List.map (fun e -> Lang.Find (e, pr, f)) (completions q)
  | Partial.Filter (q, pr) -> List.map (fun e -> Lang.Filter (e, pr)) (completions q)

let theorem_5_8_prop =
  QCheck2.Test.make ~name:"theorem 5.8: pruned partial programs have no solution completion"
    ~count:300
    QCheck2.Gen.(
      let* u = universe_gen in
      let* target_src =
        oneofl
          (completion_pool
          @ [
              Lang.Find (Lang.All, Pred.Object "cat", Func.Get_left);
              Lang.Intersect [ Lang.Is (Pred.Object "cat"); Lang.Is Pred.Smiling ];
            ])
      in
      let* p = partial_gen u (Eval.extractor u target_src) in
      return (u, Eval.extractor u target_src, p))
    (fun (u, target, p) ->
      match Peval.run ~check_goals:true ~collapse:true u p with
      | Some _ -> true (* not pruned: nothing to check *)
      | None ->
          (* pruned: no completion may reach the target *)
          List.for_all
            (fun e -> not (Simage.equal (Eval.extractor u e) target))
            (completions p))

(* Pruning keeps minimality: both the full config and the no-equivalence-
   reduction config find a solution of the same size for reachable targets. *)
let minimality_prop =
  QCheck2.Test.make ~name:"equivalence reduction preserves minimal solutions" ~count:30
    QCheck2.Gen.(
      let* u = universe_gen in
      let* target_src = oneofl completion_pool in
      return (u, Eval.extractor u target_src))
    (fun (u, target) ->
      let solve config =
        match Synthesizer.synthesize_extractor ~config u target with
        | Synthesizer.Success (e, _) -> Some (Lang.size e)
        | _ -> None
      in
      let base = { Synthesizer.default_config with timeout_s = 20.0 } in
      match
        (solve base, solve { base with Synthesizer.equiv_reduction = false })
      with
      | Some a, Some b -> a = b
      | None, None -> true
      | _ -> false)

(* Goal inference never prunes the ground truth: a partial program whose
   holes are "on the path" to a real solution is never rejected.  We check
   the complete ground truth itself (annotated with goals exactly as
   expansion would annotate it) and every partial program obtained by
   carving one subtree back out into a hole. *)
let rec annotate u goal (e : Lang.extractor) : Partial.t =
  let node =
    match e with
    | Lang.All -> Partial.All
    | Lang.Is p -> Partial.Is p
    | Lang.Complement e1 ->
        Partial.Complement (annotate u (Goal.infer u Goal.For_complement goal) e1)
    | Lang.Union es ->
        let g = Goal.infer u Goal.For_union goal in
        Partial.Union (List.map (annotate u g) es)
    | Lang.Intersect es ->
        let g = Goal.infer u Goal.For_intersect goal in
        Partial.Intersect (List.map (annotate u g) es)
    | Lang.Find (e1, p, f) ->
        Partial.Find (annotate u (Goal.infer u Goal.For_find goal) e1, p, f)
    | Lang.Filter (e1, p) ->
        Partial.Filter (annotate u (Goal.infer u Goal.For_filter goal) e1, p)
  in
  Partial.make goal node

let rec carve (e : Lang.extractor) goal u : Partial.t list =
  let self = Partial.hole goal in
  let embedded = annotate u goal e in
  let sub =
    match e with
    | Lang.All | Lang.Is _ -> []
    | Lang.Complement e1 ->
        List.map
          (fun q -> Partial.make goal (Partial.Complement q))
          (carve e1 (Goal.infer u Goal.For_complement goal) u)
    | Lang.Union [ a; b ] ->
        let ga = Goal.infer u Goal.For_union goal in
        List.map
          (fun q -> Partial.make goal (Partial.Union [ q; annotate u ga b ]))
          (carve a ga u)
        @ List.map
            (fun q -> Partial.make goal (Partial.Union [ annotate u ga a; q ]))
            (carve b ga u)
    | Lang.Intersect [ a; b ] ->
        let ga = Goal.infer u Goal.For_intersect goal in
        List.map
          (fun q -> Partial.make goal (Partial.Intersect [ q; annotate u ga b ]))
          (carve a ga u)
        @ List.map
            (fun q -> Partial.make goal (Partial.Intersect [ annotate u ga a; q ]))
            (carve b ga u)
    | Lang.Union _ | Lang.Intersect _ -> []
    | Lang.Find (e1, p, f) ->
        List.map
          (fun q -> Partial.make goal (Partial.Find (q, p, f)))
          (carve e1 (Goal.infer u Goal.For_find goal) u)
    | Lang.Filter (e1, p) ->
        List.map
          (fun q -> Partial.make goal (Partial.Filter (q, p)))
          (carve e1 (Goal.infer u Goal.For_filter goal) u)
  in
  self :: embedded :: sub

let never_prunes_truth_prop =
  QCheck2.Test.make ~name:"goal inference never rejects the path to the ground truth"
    ~count:200
    QCheck2.Gen.(
      let* u = universe_gen in
      let* gt =
        oneofl
          (completion_pool
          @ [
              Lang.Find (Lang.Is (Pred.Object "cat"), Pred.Object "cat", Func.Get_right);
              Lang.Union [ Lang.Is (Pred.Object "cat"); Lang.Is Pred.Smiling ];
              Lang.Intersect [ Lang.Is Pred.Face_object; Lang.Complement (Lang.Is Pred.Smiling) ];
            ])
      in
      return (u, gt))
    (fun (u, gt) ->
      let target = Eval.extractor u gt in
      let goal = Goal.exact target in
      List.for_all
        (fun p -> Peval.run ~check_goals:true ~collapse:true u p <> None)
        (carve gt goal u))

(* ---------- Bidirectional abstract interpretation ---------- *)

module Absint = Imageeye_core.Absint

(* The engine's reach tables come from vocabulary facts; the soundest
   stand-in here is the exact maximal output: Find/Filter are monotone in
   their input, so applying them to the full universe bounds every
   application. *)
let absint_env u =
  Absint.make_env
    ~reach_find:(fun p f -> Eval.extractor u (Lang.Find (Lang.All, p, f)))
    ~reach_filter:(fun p -> Eval.extractor u (Lang.Filter (Lang.All, p)))
    u

(* The fixpoint never kills a partial program on the path to the ground
   truth, and its work per candidate is bounded by the iteration cap, on
   single- and multi-image universes alike. *)
let absint_never_kills_truth_prop =
  QCheck2.Test.make ~name:"fwd-bwd fixpoint never rejects the path to the ground truth"
    ~count:200
    QCheck2.Gen.(
      let* u = oneof [ universe_gen; multi_image_universe_gen ] in
      let* gt =
        oneofl
          (completion_pool
          @ [
              Lang.Find (Lang.Is (Pred.Object "cat"), Pred.Object "cat", Func.Get_right);
              Lang.Union [ Lang.Is (Pred.Object "cat"); Lang.Is Pred.Smiling ];
              Lang.Intersect [ Lang.Is Pred.Face_object; Lang.Complement (Lang.Is Pred.Smiling) ];
            ])
      in
      return (u, gt))
    (fun (u, gt) ->
      let target = Eval.extractor u gt in
      let goal = Goal.exact target in
      List.for_all
        (fun p ->
          match Peval.run ~check_goals:true ~collapse:true u p with
          | None -> true (* already rejected upstream of the analysis *)
          | Some form ->
              let env = absint_env u in
              Absint.analyze env p form = Absint.Feasible
              && env.Absint.iterations <= env.Absint.max_iterations)
        (carve gt goal u))

(* Theorem 5.8 extended to the fixpoint: a candidate it kills has no
   completion that reaches the target — so pruning is sound even for
   multi-solution searches. *)
let absint_kill_soundness_prop =
  QCheck2.Test.make
    ~name:"fwd-bwd infeasibility implies no completion reaches the target" ~count:300
    QCheck2.Gen.(
      let* u = oneof [ universe_gen; multi_image_universe_gen ] in
      let* target_src =
        oneofl
          (completion_pool
          @ [
              Lang.Find (Lang.All, Pred.Object "cat", Func.Get_left);
              Lang.Intersect [ Lang.Is (Pred.Object "cat"); Lang.Is Pred.Smiling ];
            ])
      in
      let* p = partial_gen u (Eval.extractor u target_src) in
      return (u, Eval.extractor u target_src, p))
    (fun (u, target, p) ->
      match Peval.run ~check_goals:true ~collapse:true u p with
      | None -> true (* rejected before the analysis: covered by theorem 5.8 *)
      | Some form -> (
          match Absint.analyze (absint_env u) p form with
          | Absint.Feasible -> true
          | Absint.Infeasible ->
              List.for_all
                (fun e -> not (Simage.equal (Eval.extractor u e) target))
                (completions p)))

let () =
  Alcotest.run "soundness"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest theorem_5_8_prop;
          QCheck_alcotest.to_alcotest minimality_prop;
          QCheck_alcotest.to_alcotest never_prunes_truth_prop;
          QCheck_alcotest.to_alcotest absint_never_kills_truth_prop;
          QCheck_alcotest.to_alcotest absint_kill_soundness_prop;
        ] );
    ]
