(** The synthesis search engine: the worklist search of Fig. 9 rebuilt
    from explicit layers.

    - scheduling: the generic size-then-depth tiered worklist of
      {!Imageeye_engine.Scheduler};
    - pruning: the composable pass pipeline of {!Prune}, constructed
      from the config's ablation flags;
    - instrumentation: every enqueue/pop/prune/success is recorded by an
      {!Imageeye_engine.Events} recorder with a monotonic timer, and the
      legacy {!stats} record is derived from it.

    [Synthesizer] keeps the public entry points as thin wrappers over
    {!search}; the refactor preserves observable behavior exactly — the
    sequential engine returns the same extractors and the same
    popped/enqueued/pruned counts as the original monolithic loop. *)

type config = {
  goal_inference : bool;  (** Section 5.3 pruning *)
  partial_eval : bool;  (** collapse complete subtrees before rewriting *)
  equiv_reduction : bool;  (** Section 5.5 term rewriting *)
  fwd_bwd : bool;
      (** bidirectional abstract interpretation (on by default): iterate
          forward and backward interval propagation ({!Absint}) to a
          fixpoint on every incomplete candidate, killing candidates
          whose forward interval is disjoint from their backward goal
          and tightening every hole's goal for the next expansion; only
          effective when [goal_inference] and [partial_eval] are both on
          (it consumes their goal annotations and collapsed constants) *)
  eval_cache : bool;
      (** memoized incremental partial evaluation (on by default): node
          memo slots plus a shared form-keyed value table; does not change
          which programs are found or what the pruning passes decide, only
          how much evaluation work [consider] repeats *)
  optimality : bool;
      (** cost-directed optimal synthesis (off by default): instead of
          returning the first consistent program, keep searching past it
          under an incumbent cost bound and return the minimal
          consistent extractor under the {!Cost} order.  The engine
          itself ignores this flag — {!Synthesizer.synthesize_extractor}
          dispatches to {!Optimal.search}, which drives {!search}
          through {!hooks} *)
  optimal_frontier : int;
      (** {!Optimal.search}'s default improvement budget: candidates
          generated without an incumbent improvement before the search
          settles.  The engine itself ignores it *)
  timeout_s : float;  (** monotonic-clock budget per extractor search *)
  max_expansions : int;  (** hard cap on worklist pops *)
  max_size : int;  (** partial programs above this size are not enqueued *)
  max_operands : int;  (** maximum arity of Union/Intersect *)
  age_thresholds : int list;  (** constants for BelowAge/AboveAge *)
}

val default_config : config

val spec_of_config : config -> Prune.spec
(** The pruning-pipeline axes of a config — the one place configs turn
    into {!Prune.pipeline} construction. *)

val ablations : (string * (config -> config)) list
(** The named fig16 ablation rows (["full"], ["no-goal-inference"], ...,
    ["no-fwd-bwd"], ...): each disables one technique — except
    ["optimal"], which instead {e adds} cost-directed optimal search on
    top of the full configuration.  The benchmark driver,
    [imageeye sweep --ablation], and tests all consume this table, so
    rows stay in sync across the tooling. *)

type stats = {
  popped : int;  (** worklist entries dequeued *)
  enqueued : int;  (** partial programs added to the worklist *)
  pruned_infeasible : int;  (** rejected by goal-directed partial evaluation (⊥) *)
  pruned_reducible : int;  (** rejected by equivalence reduction *)
  nodes : int;
      (** extractor AST nodes evaluated during this search (Domain-local
          difference of {!Eval.count_local_nodes}, so Domain-parallel
          sibling searches don't contaminate it) *)
  elapsed_s : float;
  prune_counts : (string * int) list;
      (** per-pass attribution, sorted by pass name: every pruning
          pass's rejection count, plus informational counters such as
          ["partial-eval(const-solved)"] (complete candidates decided
          directly from their folded constant); when the evaluation
          cache is on — ["eval-cache(memo-hit)"], ["eval-cache(value-hit)"],
          ["eval-cache(value-miss)"] and ["eval-cache(evaluated)"]; when
          the forward-backward analysis is on — ["fwd-bwd"]
          (candidates it killed), ["fwd-bwd(iterations)"] (total
          forward-backward rounds) and ["fwd-bwd(tightened)"] (analyses
          that tightened a hole goal).  {!Prune.is_info_label}
          distinguishes the informational parenthesized counters from
          per-pass prune attributions *)
}

val stats_pruned_total : stats -> int

val empty_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum; [prune_counts] are merged by label. *)

val expand :
  (delta:int -> Goal.t -> Partial.t list) -> delta:int -> Partial.t -> Partial.t list option
(** [expand instantiate ~delta root] replaces the leftmost hole of [root]
    with each of [instantiate ~delta goal], in order, where [goal] is the
    hole's tightened goal from [root]'s tight map if it has one, its
    inferred goal otherwise; [None] when [root] is complete.  The spine
    from the root to the hole is rebuilt with empty memo slots, every
    other subtree is shared physically, and each candidate inherits
    [root]'s tight map.  {!search} is its only caller; it is exported so
    the test suite can check it against a reference implementation. *)

type hooks = {
  admit : Partial.t -> bool;
      (** vets every freshly generated candidate before any evaluation
          or pruning work; a rejection is counted under the
          ["cost-bound"] label in [prune_counts].  {!Optimal} rejects
          candidates whose admissible cost lower bound cannot beat the
          incumbent *)
  on_solution : Lang.extractor -> [ `Continue | `Stop ];
      (** observes each consistent complete program as it is found and
          decides whether the search continues past it.  With hooks
          installed, [limit] no longer terminates the search — this
          hook does (all solutions are still collected and returned) *)
  should_stop : unit -> bool;
      (** polled alongside the timeout/expansion budget checks; [true]
          ends the search with [`Found_enough].  {!Optimal} uses it to
          cap the post-incumbent frontier *)
}
(** Caller-supplied search hooks — the mechanism behind cost-directed
    optimal search ({!Optimal}). *)

val search :
  config:config ->
  limit:int ->
  ?hooks:hooks ->
  ?sink:(Imageeye_engine.Events.event -> unit) ->
  Imageeye_symbolic.Universe.t ->
  Imageeye_symbolic.Simage.t ->
  Lang.extractor list * [ `Found_enough | `Timeout | `Exhausted ] * stats
(** Core worklist search.  Collects up to [limit] distinct complete
    solutions, in size-then-depth order — the search simply continues
    past the first success, which is what powers program disambiguation
    and active learning.  [sink] observes the raw event stream.  With
    [hooks], solution-count termination is delegated to the hooks. *)
