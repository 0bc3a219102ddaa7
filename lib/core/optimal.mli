(** Cost-directed optimal synthesis: return the {e minimal} consistent
    extractor under the {!Cost} order instead of the first one found.

    The ImageEye search (Fig. 9) stops at the first consistent program,
    which under noisy classifiers routinely means an overfit extractor
    (an exact [Face n] or [Word s] match that happens to fit the
    demonstrations).  Following the lattice-search line of He et al.,
    this module keeps the same worklist search running past the first
    solution under an incumbent cost bound — branch-and-bound on the
    candidate space:

    - until the first consistent program is found, exploration is
      byte-identical to first-consistent mode (the hooks are inert);
    - afterwards, a freshly generated candidate is admitted only if its
      admissible lower bound ({!Cost.lower_bound}) is strictly below
      the incumbent's cost.  The existing prune passes (goal inference,
      partial evaluation, equivalence reduction, the fwd-bwd
      analysis) stay on and are solution-preserving, so a candidate is
      skipped only when no completion can both satisfy the spec and
      beat the incumbent;
    - the search ends when the worklist drains within the cost bound,
      the budget/timeout expires, or [frontier] candidates have been
      generated without an incumbent improvement.  A timeout with an
      incumbent in hand still returns that incumbent.

    The returned program is the minimum-cost consistent program in the
    explored space; among equal-cost programs, the earliest in the
    deterministic size-then-depth enumeration order.
    ({!Cost.compare_extractors} is the fully syntactic total order tests
    use to state optimality.) *)

type result = {
  best : (Lang.extractor * Cost.t) option;
      (** the minimal consistent extractor found, with its cost; [None]
          only if no consistent program was found at all *)
  first : (Lang.extractor * Cost.t) option;
      (** the program first-consistent mode would have returned (the
          first solution the search enumerated) — kept for quality
          comparisons; [best]'s cost is [<=] [first]'s by construction *)
  enumerated : Lang.extractor list;
      (** every consistent complete program the search enumerated, in
          discovery order ([best] has minimal cost among these) *)
  reason : [ `Found_enough | `Timeout | `Exhausted ];
  stats : Engine_search.stats;
      (** incumbent-bound rejections appear under the ["cost-bound"]
          label in [prune_counts] *)
}

val default_frontier : int

val search :
  config:Engine_search.config ->
  ?frontier:int ->
  ?sink:(Imageeye_engine.Events.event -> unit) ->
  Imageeye_symbolic.Universe.t ->
  Imageeye_symbolic.Simage.t ->
  result
(** One bounded branch-and-bound search (see above).  [frontier]
    (default {!default_frontier}) caps candidates generated without an
    incumbent improvement — a deterministic counter, so deterministic
    budgets ([max_expansions]) keep deterministic results. *)
