(* Cost-directed optimal synthesis: branch-and-bound over the same
   worklist search that powers first-consistent mode.

   One search runs, not two.  Until the first consistent program
   appears, the hooks are inert and the exploration is exactly the
   first-consistent search (same order, same prunes).  From
   then on the best program found so far is the incumbent, and every
   freshly generated candidate is admitted only if its admissible cost
   lower bound (Cost.lower_bound) is strictly below the incumbent's
   cost — i.e. some completion could still win.  Because the existing
   prune passes are solution-preserving (they reject only candidates no
   completion of which satisfies the spec) and the bound is admissible,
   a candidate is skipped only when it cannot both satisfy the spec and
   beat the incumbent, so the incumbent at the end is the minimum-cost
   consistent program in the explored space.

   Size dominates the cost total, so the bound confines the
   post-incumbent frontier to a thin band of size tiers above the
   incumbent; [frontier] additionally caps how many candidates are
   generated without an incumbent improvement before the search settles
   (`Found_enough), keeping the optimal pass a bounded tax over
   first-consistent mode even on tasks where that band is wide. *)

type result = {
  best : (Lang.extractor * Cost.t) option;
  first : (Lang.extractor * Cost.t) option;
  enumerated : Lang.extractor list;
  reason : [ `Found_enough | `Timeout | `Exhausted ];
  stats : Engine_search.stats;
}

let default_frontier = Engine_search.default_config.Engine_search.optimal_frontier

let search ~config ?frontier ?sink u i_out =
  let frontier =
    Option.value frontier ~default:config.Engine_search.optimal_frontier
  in
  let incumbent = ref None in
  let first = ref None in
  (* Candidates generated since the incumbent last improved; the
     counter, not a clock, so deterministic budgets stay deterministic. *)
  let since_improvement = ref 0 in
  let admit p =
    match !incumbent with
    | None -> true
    | Some (_, c) ->
        incr since_improvement;
        Cost.compare (Cost.lower_bound p) c < 0
  in
  let on_solution e =
    let c = Cost.of_extractor e in
    if !first = None then first := Some (e, c);
    (match !incumbent with
    | None ->
        incumbent := Some (e, c);
        since_improvement := 0
    | Some (_, c0) ->
        (* [admit] already rejected lower bounds >= c0 at generation
           time, so a solution reaching this point is strictly cheaper
           whenever the incumbent predates its generation; the
           comparison keeps the invariant locally obvious. *)
        if Cost.compare c c0 < 0 then begin
          incumbent := Some (e, c);
          since_improvement := 0
        end);
    `Continue
  in
  let should_stop () = !incumbent <> None && !since_improvement > frontier in
  let hooks = { Engine_search.admit; on_solution; should_stop } in
  (* With hooks installed, termination is the hooks' job, not [limit]'s. *)
  let enumerated, reason, stats =
    Engine_search.search ~config ~limit:1 ~hooks ?sink u i_out
  in
  { best = !incumbent; first = !first; enumerated; reason; stats }
