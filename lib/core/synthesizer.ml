(* Thin wrappers over the layered search engine (Engine_search): the
   public entry points, the per-action decomposition of Fig. 8, and the
   optional Domain-parallel batch mode for multi-action specs. *)

module Domainpool = Imageeye_util.Domainpool

type config = Engine_search.config = {
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

let default_config = Engine_search.default_config
let ablations = Engine_search.ablations

type stats = Engine_search.stats = {
  popped : int;
  enqueued : int;
  pruned_infeasible : int;
  pruned_reducible : int;
  nodes : int;
  elapsed_s : float;
  prune_counts : (string * int) list;
}

let empty_stats = Engine_search.empty_stats
let add_stats = Engine_search.add_stats

type 'a outcome = Success of 'a * stats | Timeout of stats | Exhausted of stats

let map_outcome f = function
  | Success (x, st) -> Success (f x, st)
  | Timeout st -> Timeout st
  | Exhausted st -> Exhausted st

(* One extractor search, as [(best, found)]: the program
   {!synthesize_extractor} returns and every consistent program the search
   enumerated.  With [optimality] on, the search continues past the first
   consistent program under an incumbent cost bound (Optimal); a timeout
   with an incumbent in hand still succeeds with it, so the optimal mode
   never solves fewer tasks than first-consistent mode under the same
   budget. *)
let search_one ~config u i_out =
  if config.optimality then
    let r = Optimal.search ~config u i_out in
    match r.Optimal.best with
    | Some (e, _cost) ->
        Success ((e, r.Optimal.enumerated), r.Optimal.stats)
    | None -> (
        match r.Optimal.reason with
        | `Timeout -> Timeout r.Optimal.stats
        | `Exhausted | `Found_enough -> Exhausted r.Optimal.stats)
  else
    match Engine_search.search ~config ~limit:1 u i_out with
    | e :: _, _, st -> Success ((e, [ e ]), st)
    | [], `Timeout, st -> Timeout st
    | [], (`Exhausted | `Found_enough), st -> Exhausted st

let synthesize_extractor ?(config = default_config) u i_out =
  map_outcome fst (search_one ~config u i_out)

(* Up to [count] observationally distinct-by-syntax solutions, in the
   worklist's size-then-depth order (the first is the one
   {!synthesize_extractor} returns).  Returns however many were found when
   the budget runs out. *)
let synthesize_extractors ?(config = default_config) ~count u i_out =
  let solutions, _, st = Engine_search.search ~config ~limit:(max 1 count) u i_out in
  (solutions, st)

(* Fig. 8's per-action decomposition, the one fold every spec-level entry
   point shares: one [search_one] per demonstrated action, [pick] shaping
   each success, outcomes folded in action order with stats summed.

   The per-action searches are independent, so with a Domain pool they
   run in parallel; folding in action order makes the outcome (program
   and summed stats) identical to sequential mode.  The sequential path
   is lazy: actions after the first failure are never searched. *)
let per_action ~config ?pool (spec : Edit.Spec.t) pick =
  let u = spec.universe in
  let actions = Edit.Spec.demonstrated_actions spec in
  let solve action =
    map_outcome (pick action) (search_one ~config u (Edit.Spec.output_for_action spec action))
  in
  let rec fold acc stats_acc seq =
    match seq () with
    | Seq.Nil -> Success (List.rev acc, stats_acc)
    | Seq.Cons (Success (x, st), rest) -> fold (x :: acc) (add_stats stats_acc st) rest
    | Seq.Cons (Timeout st, _) -> Timeout (add_stats stats_acc st)
    | Seq.Cons (Exhausted st, _) -> Exhausted (add_stats stats_acc st)
  in
  fold [] empty_stats
    (match pool with
    | Some pool when Domainpool.size pool > 1 && List.length actions > 1 ->
        List.to_seq (Domainpool.map pool solve actions)
    | _ -> Seq.map solve (List.to_seq actions))

(* Cost-ranked spec-consistent candidates, one list per demonstrated
   action: in optimality mode every consistent program the search
   admitted, not just the final incumbent, deduplicated and sorted by the
   total cost order.  Callers whose real consistency check is stronger
   than the spec (the interaction loop validates against the full
   dataset) walk each list cheapest-first and keep the first program that
   survives. *)
let synthesize_ranked ?(config = default_config) spec =
  per_action ~config spec (fun action (_, found) ->
      (action, List.sort_uniq Cost.compare_extractors found))

(* Top-level Synthesize (Fig. 8): one extractor per demonstrated action. *)
let synthesize ?(config = default_config) ?pool spec =
  per_action ~config ?pool spec (fun action (e, _) -> (e, action))
