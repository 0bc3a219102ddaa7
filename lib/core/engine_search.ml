module Simage = Imageeye_symbolic.Simage
module Universe = Imageeye_symbolic.Universe
module Events = Imageeye_engine.Events
module Scheduler = Imageeye_engine.Scheduler

type config = {
  goal_inference : bool;
  partial_eval : bool;
  equiv_reduction : bool;
  fwd_bwd : bool;
  absint_per_image : bool;
  absint_cardinality : bool;
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
    absint_per_image = true;
    absint_cardinality = true;
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
    ("no-per-image", fun c -> { c with absint_per_image = false });
    ("no-cardinality", fun c -> { c with absint_cardinality = false });
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

(* Precomputed facts about the vocabulary over one input image: predicate
   extensions, and the largest possible output of each Find/Filter
   instantiation (independent of the nested extractor).  These refine goal
   inference: a Find(□, p, f) whose possible outputs cannot cover the
   hole's parent under-approximation is infeasible no matter how the hole
   is filled. *)
type vocab_facts = {
  extension : Pred.t -> Simage.t;
  find_insts : (Pred.t * Func.t * Simage.t) list;
  filter_insts : (Pred.t * Simage.t) list;
}

let compute_facts ?(dedup = true) u vocab =
  let ext_tbl = Hashtbl.create 64 in
  let extension p =
    match Hashtbl.find_opt ext_tbl p with
    | Some v -> v
    | None ->
        let v = Simage.filter (fun e -> Pred.entails e p) (Simage.full u) in
        Hashtbl.add ext_tbl p v;
        v
  in
  let n = Universe.size u in
  let full = Simage.full u in
  (* Semantic signature of a Find parameterization: the per-object value of
     f_phi.  Two (p, f) pairs with equal signatures yield equal Find results
     for every nested extractor, so only one representative is kept; a pair
     whose signature is everywhere None always produces the empty image and
     is dropped outright (a smaller always-empty program, Complement(All),
     is enumerated first).  Both cuts are observational-equivalence
     reductions, so they are disabled with the rest of Section 5.5. *)
  let seen_sigs = Hashtbl.create 64 in
  let find_insts =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun f ->
            let signature = Array.init n (Eval.find_first u f p) in
            let empty = Array.for_all (( = ) None) signature in
            if dedup then
              if empty || Hashtbl.mem seen_sigs signature then None
              else begin
                Hashtbl.add seen_sigs signature ();
                Some (p, f, Eval.find_from u full p f)
              end
            else Some (p, f, Eval.find_from u full p f))
          (Vocab.functions vocab))
      (Vocab.predicates vocab)
  in
  let seen_filter_sigs = Hashtbl.create 64 in
  let filter_insts =
    List.filter_map
      (fun p ->
        let signature =
          Array.init n (fun o ->
              List.filter
                (fun inner -> Pred.entails (Universe.entity u inner) p)
                (Array.to_list (Universe.contents u o)))
        in
        let empty = Array.for_all (( = ) []) signature in
        if dedup then
          if empty || Hashtbl.mem seen_filter_sigs signature then None
          else begin
            Hashtbl.add seen_filter_sigs signature ();
            Some (p, Eval.filter_from u full p)
          end
        else Some (p, Eval.filter_from u full p))
      (Vocab.predicates vocab)
  in
  { extension; find_insts; filter_insts }

(* All single-step instantiations of a hole whose goal is [goal]
   (the Expand rule of Fig. 11).  The pipeline's instantiation-time hooks
   filter parameterizations that cannot satisfy the hole's goal. *)
let instantiations u vocab facts config (ctx : Prune.context) passes goal =
  let child op =
    Partial.hole (if ctx.Prune.goal_checks then Goal.infer u op goal else Goal.trivial u)
  in
  let mk node = Partial.make goal node in
  let preds = Vocab.predicates vocab in
  let feasible reach =
    List.for_all (fun (p : Prune.pass) -> p.Prune.feasible ctx ~goal ~reach) passes
  in
  let leaves = mk Partial.All :: List.map (fun p -> mk (Partial.Is p)) preds in
  let complement = [ mk (Partial.Complement (child Goal.For_complement)) ] in
  let holes_for op k = List.init k (fun _ -> child op) in
  let rec arities k acc = if k < 2 then acc else arities (k - 1) (k :: acc) in
  let ks = arities config.max_operands [] in
  let unions = List.map (fun k -> mk (Partial.Union (holes_for Goal.For_union k))) ks in
  let intersects =
    List.map (fun k -> mk (Partial.Intersect (holes_for Goal.For_intersect k))) ks
  in
  let finds =
    List.filter_map
      (fun (p, f, reach) ->
        if feasible reach then Some (mk (Partial.Find (child Goal.For_find, p, f)))
        else None)
      facts.find_insts
  in
  let filters =
    List.filter_map
      (fun (p, reach) ->
        if feasible reach then Some (mk (Partial.Filter (child Goal.For_filter, p)))
        else None)
      facts.filter_insts
  in
  leaves @ complement @ unions @ intersects @ finds @ filters

(* Replace the leftmost hole of [p] with each instantiation whose size
   increment is [delta]; None when [p] is complete. *)
let min_delta = 0

let max_delta = 4 (* largest instantiation is Find with a parameterized predicate *)

let expand u vocab facts config ctx passes ~delta root =
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
        Some
          (List.filter
             (fun inst -> Partial.size inst - 1 = delta)
             (instantiations u vocab facts config ctx passes goal))
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

let search ~config ~limit ?hooks ?sink ?demo_images u i_out =
  let vocab = Bank_registry.vocab u ~age_thresholds:config.age_thresholds in
  let passes = Prune.pipeline (spec_of_config config) in
  (* The Find/Filter signature dedup evaluates parameterizations on the
     input image, so it belongs to the partial-evaluation-powered part of
     equivalence reduction and is disabled with either ablation. *)
  let facts =
    compute_facts ~dedup:(config.equiv_reduction && config.partial_eval) u vocab
  in
  let absint =
    if Prune.wants_absint passes then begin
      (* Reach tables for the analysis, shared with the instantiation-time
         feasibility facts.  Parameterizations outside the (possibly
         deduplicated) fact lists fall back to the full universe, which is
         sound and uninformative. *)
      let find_tbl = Hashtbl.create 64 and filter_tbl = Hashtbl.create 64 in
      List.iter (fun (p, f, reach) -> Hashtbl.replace find_tbl (p, f) reach)
        facts.find_insts;
      List.iter (fun (p, reach) -> Hashtbl.replace filter_tbl p reach)
        facts.filter_insts;
      let full = Simage.full u in
      Some
        (Absint.make_env u ~per_image:config.absint_per_image
           ~cardinality:config.absint_cardinality
           ?demo_images
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
      eval_is = facts.extension;
      goal_checks = Prune.wants_goal_checks passes;
      collapse = Prune.wants_collapse passes;
      absint;
    }
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
      expand = (fun p ~delta -> expand u vocab facts config ctx passes ~delta p);
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
          ("card-kill", env.Absint.card_kills);
        ]
  | None -> ());
  (List.rev !solutions, reason,
   stats_of_events ev ~nodes:(Eval.count_local_nodes () - nodes0))
