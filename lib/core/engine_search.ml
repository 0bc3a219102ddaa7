module Simage = Imageeye_symbolic.Simage
module Events = Imageeye_engine.Events
module Scheduler = Imageeye_engine.Scheduler

type config = {
  goal_inference : bool;
  partial_eval : bool;
  equiv_reduction : bool;
  fwd_bwd : bool;
  eval_cache : bool;
  optimality : bool;
  optimal_frontier : int;
  timeout_s : float;
  max_expansions : int;
  max_size : int;
  max_operands : int;
  age_thresholds : int list;
}

let default_config =
  {
    goal_inference = true;
    partial_eval = true;
    equiv_reduction = true;
    fwd_bwd = true;
    eval_cache = true;
    optimality = false;
    optimal_frontier = 200_000;
    timeout_s = 120.0;
    max_expansions = 2_000_000;
    max_size = 24;
    max_operands = 3;
    age_thresholds = [ 18 ];
  }

let spec_of_config config =
  {
    Prune.goal_inference = config.goal_inference;
    partial_eval = config.partial_eval;
    equiv_reduction = config.equiv_reduction;
    fwd_bwd = config.fwd_bwd;
  }

(* The named ablation axes of the fig16 experiment: one row per disabled
   technique.  Everything that builds ablation configs — the benchmark
   driver, [imageeye sweep --ablation], tests — consumes this table, so a
   new technique added here appears everywhere at once. *)
let ablations : (string * (config -> config)) list =
  [
    ("full", Fun.id);
    ("no-goal-inference", fun c -> { c with goal_inference = false });
    ("no-partial-eval", fun c -> { c with partial_eval = false });
    ("no-equiv-reduction", fun c -> { c with equiv_reduction = false });
    ("no-fwd-bwd", fun c -> { c with fwd_bwd = false });
    ("no-eval-cache", fun c -> { c with eval_cache = false });
    (* The one row that *adds* a technique instead of removing one:
       cost-directed optimal search (Optimal) on top of the full
       configuration, for quality-vs-nodes comparisons. *)
    ("optimal", fun c -> { c with optimality = true });
  ]

type stats = {
  popped : int;
  enqueued : int;
  pruned_infeasible : int;
  pruned_reducible : int;
  nodes : int;
  elapsed_s : float;
  prune_counts : (string * int) list;
}

let stats_pruned_total st = st.pruned_infeasible + st.pruned_reducible

let empty_stats =
  {
    popped = 0;
    enqueued = 0;
    pruned_infeasible = 0;
    pruned_reducible = 0;
    nodes = 0;
    elapsed_s = 0.0;
    prune_counts = [];
  }

let merge_counts a b =
  let tbl = Hashtbl.create 8 in
  let add (name, n) =
    Hashtbl.replace tbl name
      (n + Option.value (Hashtbl.find_opt tbl name) ~default:0)
  in
  List.iter add a;
  List.iter add b;
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) tbl []
  |> List.sort (fun (x, _) (y, _) -> String.compare x y)

let add_stats a b =
  {
    popped = a.popped + b.popped;
    enqueued = a.enqueued + b.enqueued;
    pruned_infeasible = a.pruned_infeasible + b.pruned_infeasible;
    pruned_reducible = a.pruned_reducible + b.pruned_reducible;
    nodes = a.nodes + b.nodes;
    elapsed_s = a.elapsed_s +. b.elapsed_s;
    prune_counts = merge_counts a.prune_counts b.prune_counts;
  }

(* The size increments of one expansion: All adds nothing to the hole it
   fills; Find with a size-2 predicate adds the most. *)
let min_delta = 0

let max_delta = 4

(* What one search instantiates holes from: the vocabulary predicates and
   the Find/Filter parameterizations of its facts, each grouped by the
   size increment its constructor adds, so an expansion builds one tier
   without looking at the others. *)
type tiers = {
  is_preds : Pred.t list array;
  finds : (Pred.t * Func.t * Simage.t) list array;
  filters : (Pred.t * Simage.t) list array;
}

let tiers_of vocab (facts : Facts.t) =
  let by_delta delta_of xs =
    Array.init (max_delta + 1) (fun delta -> List.filter (fun x -> delta_of x = delta) xs)
  in
  {
    is_preds = by_delta Pred.size (Vocab.predicates vocab);
    finds = by_delta (fun (p, _, _) -> 2 + Pred.size p) facts.Facts.find_insts;
    filters = by_delta (fun (p, _) -> 1 + Pred.size p) facts.Facts.filter_insts;
  }

(* The single-step instantiations of a hole whose goal is [goal] (the
   Expand rule of Fig. 11) whose size increment is [delta], in a fixed
   order: All, Is, Complement, the [delta]-ary Union and Intersect, Find,
   Filter.  [child_goal] annotates the new holes; [feasible] is the
   pipeline's instantiation-time filter of Find/Filter parameterizations
   that cannot satisfy the hole's goal. *)
let instantiations tiers ~max_operands ~child_goal ~feasible ~delta goal =
  let mk node = Partial.make goal node in
  let child op = Partial.hole (child_goal op goal) in
  let leaves =
    (if delta = 0 then [ mk Partial.All ] else [])
    @ List.map (fun p -> mk (Partial.Is p)) tiers.is_preds.(delta)
  in
  let complement =
    if delta = 1 then [ mk (Partial.Complement (child Goal.For_complement)) ] else []
  in
  let nary =
    if delta >= 2 && delta <= max_operands then
      [
        mk (Partial.Union (List.init delta (fun _ -> child Goal.For_union)));
        mk (Partial.Intersect (List.init delta (fun _ -> child Goal.For_intersect)));
      ]
    else []
  in
  let finds =
    List.filter_map
      (fun (p, f, reach) ->
        if feasible goal reach then Some (mk (Partial.Find (child Goal.For_find, p, f)))
        else None)
      tiers.finds.(delta)
  in
  let filters =
    List.filter_map
      (fun (p, reach) ->
        if feasible goal reach then Some (mk (Partial.Filter (child Goal.For_filter, p)))
        else None)
      tiers.filters.(delta)
  in
  leaves @ complement @ nary @ finds @ filters

(* Replace the leftmost hole of [root] with each instantiation whose size
   increment is [delta]; None when [root] is complete. *)
let expand instantiate ~delta root =
  (* A hole's goal may have been tightened by the forward-backward
     analysis when this candidate (or an ancestor candidate sharing the
     hole node) was considered; the per-hole map is cached on the
     candidate root (the only per-candidate node that is never physically
     shared).  It overrides the filled hole's inferred goal everywhere:
     instantiation feasibility, the new node's annotation, and its
     children's inferred goals — and is inherited by the derived
     candidates so the entries for their surviving holes keep applying. *)
  let rec go (p : Partial.t) =
    match p.node with
    | Partial.Hole ->
        let goal =
          match Partial.tight_for root ~hole:p with Some g -> g | None -> p.goal
        in
        Some (instantiate ~delta goal)
    | Partial.All | Partial.Is _ -> None
    (* Spine nodes above the hole are rebuilt fresh (empty memo slot);
       unchanged sibling subtrees are shared physically, which is what
       lets their memos pay off across all candidates. *)
    | Partial.Complement q ->
        Option.map (List.map (fun q' -> Partial.make p.goal (Partial.Complement q'))) (go q)
    | Partial.Union qs ->
        Option.map
          (List.map (fun qs' -> Partial.make p.goal (Partial.Union qs')))
          (go_list qs)
    | Partial.Intersect qs ->
        Option.map
          (List.map (fun qs' -> Partial.make p.goal (Partial.Intersect qs')))
          (go_list qs)
    | Partial.Find (q, pr, f) ->
        Option.map
          (List.map (fun q' -> Partial.make p.goal (Partial.Find (q', pr, f))))
          (go q)
    | Partial.Filter (q, pr) ->
        Option.map
          (List.map (fun q' -> Partial.make p.goal (Partial.Filter (q', pr))))
          (go q)
  and go_list = function
    | [] -> None
    | q :: rest -> (
        match go q with
        | Some qs' -> Some (List.map (fun q' -> q' :: rest) qs')
        | None -> Option.map (List.map (fun rest' -> q :: rest')) (go_list rest))
  in
  Option.map
    (List.map (fun c ->
         Partial.inherit_tight ~from:root c;
         c))
    (go root)

let const_solved_label = Prune.partial_eval.Prune.name ^ "(const-solved)"

(* Caller-supplied search hooks, the mechanism behind cost-directed
   optimal search (Optimal).  [admit] vets every freshly generated
   candidate before any evaluation work (a rejection is attributed to
   [cost_bound_label] in the prune counts); [on_solution] observes each
   consistent complete program as it is found and decides whether the
   search continues past it (with hooks installed, [limit] no longer
   terminates the search — the hook does); [should_stop] is polled with
   the budget checks and ends the search with [`Found_enough]. *)
type hooks = {
  admit : Partial.t -> bool;
  on_solution : Lang.extractor -> [ `Continue | `Stop ];
  should_stop : unit -> bool;
}

let cost_bound_label = "cost-bound"

let stats_of_events ev ~nodes =
  {
    popped = Events.popped ev;
    enqueued = Events.enqueued ev;
    pruned_infeasible = Events.pruned ev Prune.goal_inference.Prune.name;
    pruned_reducible =
      Events.pruned ev Prune.equiv_rewrite.Prune.name
      + Events.pruned ev Prune.equiv_dedup.Prune.name;
    nodes;
    elapsed_s = Events.elapsed_s ev;
    prune_counts = Events.counts ev;
  }

let search ~config ~limit ?hooks ?sink u i_out =
  let vocab = Bank_registry.vocab u ~age_thresholds:config.age_thresholds in
  let passes = Prune.pipeline (spec_of_config config) in
  (* The Find/Filter signature dedup evaluates parameterizations on the
     input image, so it belongs to the partial-evaluation-powered part of
     equivalence reduction and is disabled with either ablation. *)
  let facts =
    Facts.compute ~dedup:(config.equiv_reduction && config.partial_eval) u vocab
  in
  let absint =
    if Prune.wants_absint passes then begin
      (* Reach tables for the analysis, shared with the instantiation-time
         feasibility facts.  Parameterizations outside the (possibly
         deduplicated) fact lists fall back to the full universe, which is
         sound and uninformative. *)
      let find_tbl = Hashtbl.create 64 and filter_tbl = Hashtbl.create 64 in
      List.iter (fun (p, f, reach) -> Hashtbl.replace find_tbl (p, f) reach)
        facts.Facts.find_insts;
      List.iter (fun (p, reach) -> Hashtbl.replace filter_tbl p reach)
        facts.Facts.filter_insts;
      let full = Simage.full u in
      Some
        (Absint.make_env u
           ~reach_find:(fun p f ->
             Option.value (Hashtbl.find_opt find_tbl (p, f)) ~default:full)
           ~reach_filter:(fun p ->
             Option.value (Hashtbl.find_opt filter_tbl p) ~default:full))
    end
    else None
  in
  let ctx =
    {
      Prune.u;
      eval_is = facts.Facts.extension;
      goal_checks = Prune.wants_goal_checks passes;
      collapse = Prune.wants_collapse passes;
      absint;
    }
  in
  let instantiate =
    let tiers = tiers_of vocab facts in
    let child_goal =
      let empty = Simage.empty u and full = Simage.full u in
      if ctx.Prune.goal_checks then Goal.infer_within ~empty ~full
      else
        let trivial = Goal.make ~under:empty ~over:full in
        fun _ _ -> trivial
    in
    let feasible goal reach =
      List.for_all (fun (p : Prune.pass) -> p.Prune.feasible ctx ~goal ~reach) passes
    in
    instantiations tiers ~max_operands:config.max_operands ~child_goal ~feasible
  in
  let checks = List.map (fun (p : Prune.pass) -> (p, p.Prune.fresh ())) passes in
  let cache = if config.eval_cache then Some (Peval.Cache.create ()) else None in
  let ev = Events.create ?sink () in
  let nodes0 = Eval.count_local_nodes () in
  let solutions = ref [] in
  let exception Done in
  (* Process one freshly generated candidate: run the pruning pipeline,
     recognize complete solutions on the spot (partial evaluation has
     already computed every complete candidate's value, so deferring the
     check to a later pop would only re-evaluate it), or enqueue it. *)
  (* The hook gate runs before any evaluation work: a candidate the
     caller can already rule out (e.g. its cost lower bound cannot beat
     the optimal search's incumbent) costs nothing but the bound. *)
  let admitted p' =
    match hooks with
    | Some h when not (h.admit p') ->
        Events.record ev (Events.Pruned cost_bound_label);
        false
    | _ -> true
  in
  let consider ~push p' =
    if Partial.size p' <= config.max_size && admitted p' then begin
      let form =
        Peval.run ~eval_is:ctx.Prune.eval_is ?cache ~check_goals:ctx.Prune.goal_checks
          ~collapse:ctx.Prune.collapse u p'
      in
      let extractor = Partial.to_extractor p' in
      let complete = extractor <> None in
      let cand = { Prune.partial = p'; form } in
      let rec gate = function
        | [] -> None
        | ((pass : Prune.pass), check) :: rest ->
            if complete && not pass.Prune.on_complete then gate rest
            else (
              match check ctx cand with
              | Prune.Reject -> Some pass.Prune.name
              | Prune.Admit -> gate rest)
      in
      match gate checks with
      | Some pass_name -> Events.record ev (Events.Pruned pass_name)
      | None -> (
          match extractor with
          | Some e ->
              (* A complete candidate is either an answer or dead. *)
              let value =
                match form with
                | Some (Peval.Form.Const v) ->
                    Events.record ev (Events.Noted const_solved_label);
                    v
                | _ -> Eval.extractor u e
              in
              if Simage.equal value i_out then begin
                Events.record ev Events.Success;
                solutions := e :: !solutions;
                match hooks with
                | Some h -> (
                    match h.on_solution e with
                    | `Stop -> raise Done
                    | `Continue -> ())
                | None -> if List.length !solutions >= limit then raise Done
              end
          | None ->
              Events.record ev Events.Enqueued;
              push p')
    end
  in
  let problem =
    {
      Scheduler.Tiered.size = Partial.size;
      depth = Partial.depth;
      min_delta;
      max_delta;
      max_size = config.max_size;
      expand = (fun p ~delta -> expand instantiate ~delta p);
      consider;
    }
  in
  let stop () : [ `Found_enough | `Timeout | `Exhausted ] option =
    match hooks with
    | Some h when h.should_stop () -> Some `Found_enough
    | _ ->
        if Events.elapsed_s ev > config.timeout_s then Some `Timeout
        else if Events.popped ev >= config.max_expansions then Some `Exhausted
        else None
  in
  let root = Partial.hole (Goal.exact i_out) in
  let reason =
    match
      Scheduler.Tiered.run problem ~stop
        ~on_pop:(fun _ -> Events.record ev Events.Popped)
        ~roots:[ root ] ~exhausted:`Exhausted
    with
    | r -> r
    | exception Done -> `Found_enough
  in
  (* Fold the cache counters into the per-label stats so benchmarks and
     the sweep report see hit rates without a separate channel.  The
     labels share the "eval-cache(" prefix so equivalence checks between
     cached and uncached runs can strip them uniformly. *)
  (match cache with
  | Some c ->
      List.iter
        (fun (label, n) ->
          if n > 0 then Events.record ev (Events.Counted ("eval-cache(" ^ label ^ ")", n)))
        [
          ("memo-hit", c.Peval.Cache.memo_hits);
          ("value-hit", c.Peval.Cache.value_hits);
          ("value-miss", c.Peval.Cache.value_misses);
          ("evaluated", c.Peval.Cache.evaluated);
        ]
  | None -> ());
  (match absint with
  | Some env ->
      List.iter
        (fun (label, n) ->
          if n > 0 then Events.record ev (Events.Counted ("fwd-bwd(" ^ label ^ ")", n)))
        [
          ("iterations", env.Absint.iterations);
          ("tightened", env.Absint.tightened);
          ("cap-hit", env.Absint.cap_hits);
        ]
  | None -> ());
  (List.rev !solutions, reason,
   stats_of_events ev ~nodes:(Eval.count_local_nodes () - nodes0))
