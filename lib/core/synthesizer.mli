(** The ImageEye synthesis algorithm (Section 5).

    {!synthesize_extractor} is the SynthesizeExtractor procedure of Fig. 9:
    top-down enumerative search over partial programs, ordered by AST size
    then depth, pruning with goal-directed partial evaluation (Fig. 12) and
    equivalence reduction by term rewriting (Figs. 13-14).

    {!synthesize} is the top-level Synthesize procedure of Fig. 8: it
    splits a demonstration specification into one PBE problem per action
    and learns an extractor for each — optionally in parallel on a
    {!Imageeye_util.Domainpool}.

    These entry points are thin wrappers over the layered engine
    ({!Engine_search}: generic worklist scheduler, composable pruning
    pipeline, search-event instrumentation).  The three pruning
    techniques can be disabled independently through {!config}, which the
    engine turns into pruning-pipeline construction — that is how the
    Section 7.4 ablation study is expressed. *)

type config = Engine_search.config = {
  goal_inference : bool;  (** Section 5.3 pruning *)
  partial_eval : bool;  (** collapse complete subtrees before rewriting *)
  equiv_reduction : bool;  (** Section 5.5 term rewriting *)
  fwd_bwd : bool;
      (** bidirectional abstract interpretation (see
          {!Engine_search.config}): iterated forward-backward interval
          propagation on every incomplete candidate; solution-preserving
          (it only discards candidates no completion of which can satisfy
          the goal annotations), on by default *)
  eval_cache : bool;
      (** memoized incremental partial evaluation (see
          {!Engine_search.config}); semantics-preserving, on by default *)
  optimality : bool;
      (** cost-directed optimal synthesis (off by default):
          {!synthesize_extractor} dispatches to {!Optimal.search} and
          returns the minimal consistent extractor under the {!Cost}
          order instead of the first one found — same solved set under
          the same budget (a timeout with an incumbent still succeeds
          with it), smaller/more-general programs.
          {!synthesize_extractors} ignores it (its callers want the
          enumeration order, not one optimum) *)
  optimal_frontier : int;
      (** candidates generated without an incumbent improvement before
          the optimal search settles (default 200k); higher explores
          deeper for cheaper programs at proportional search cost *)
  timeout_s : float;  (** monotonic-clock budget per extractor search *)
  max_expansions : int;  (** hard cap on worklist pops *)
  max_size : int;  (** partial programs above this size are not enqueued *)
  max_operands : int;  (** maximum arity of Union/Intersect (paper uses
                           variadic operators; every Appendix B ground
                           truth fits within 3) *)
  age_thresholds : int list;  (** constants for BelowAge/AboveAge *)
}

val default_config : config
(** All pruning on, 120 s timeout, arity 3, age threshold 18. *)

val ablations : (string * (config -> config)) list
(** {!Engine_search.ablations}: the shared named fig16 ablation table. *)

type stats = Engine_search.stats = {
  popped : int;  (** worklist entries dequeued *)
  enqueued : int;  (** partial programs added to the worklist *)
  pruned_infeasible : int;  (** rejected by partial evaluation (⊥) *)
  pruned_reducible : int;  (** rejected by term rewriting *)
  nodes : int;  (** AST nodes evaluated (see {!Engine_search.stats}) *)
  elapsed_s : float;
  prune_counts : (string * int) list;
      (** per-pass prune attribution, sorted by pass name (see
          {!Engine_search.stats}) *)
}

val empty_stats : stats

val add_stats : stats -> stats -> stats

type 'a outcome =
  | Success of 'a * stats
  | Timeout of stats
  | Exhausted of stats
      (** the bounded search space was exhausted without a solution *)

val synthesize_extractor :
  ?config:config ->
  Imageeye_symbolic.Universe.t ->
  Imageeye_symbolic.Simage.t ->
  Lang.extractor outcome
(** [synthesize_extractor u i_out] searches for an extractor [e] with
    ⟦e⟧(Î_in) = [i_out], where Î_in is the full universe [u]. *)

val synthesize_extractors :
  ?config:config ->
  count:int ->
  Imageeye_symbolic.Universe.t ->
  Imageeye_symbolic.Simage.t ->
  Lang.extractor list * stats
(** Like {!synthesize_extractor} but keeps searching after the first
    solution, returning up to [count] syntactically distinct extractors
    that all match the examples, in the worklist's size-then-depth order.
    All returned extractors agree on the input image but may disagree on
    unseen images — the ambiguity that drives active example selection. *)

val synthesize_ranked :
  ?config:config ->
  Edit.Spec.t ->
  (Lang.action * Lang.extractor list) list outcome
(** Cost-ranked spec-consistent candidates, one non-empty list per
    demonstrated action, cheapest first under {!Cost.compare_extractors}.
    In optimality mode the list is the optimal search's whole enumerated
    solution set (every consistent extractor it admitted); otherwise it
    is the single first-consistent extractor.  Callers whose real
    consistency check is stronger than the spec — the interaction loop
    validates candidates against the full dataset — walk each list
    cheapest-first and keep the first survivor. *)

val synthesize :
  ?config:config ->
  ?pool:Imageeye_util.Domainpool.t ->
  Edit.Spec.t ->
  Lang.program outcome
(** Top-level synthesis from demonstrations: one extractor per action that
    appears in the spec.  The spec's universe should contain exactly the
    objects of the demonstrated images (build a fresh universe for them).
    Statistics are summed over the per-action searches.

    With [pool] (size >= 2) the per-action searches run on the Domain
    pool; per-action outcomes are folded in action order, so under a
    deterministic budget ([max_expansions]) the result (program and
    stats, except wall-clock) is identical to sequential mode.  A
    binding [timeout_s] can cut differently when domains contend for
    cores. *)
