(** The pruning pipeline: Sections 5.3-5.5 as first-class, composable
    passes.

    Each of the paper's pruning techniques is a {!pass} with the common
    check signature [context -> candidate -> verdict].  The engine runs
    the pipeline, in order, on every freshly expanded candidate; the
    first pass to reject wins, and the engine attributes the prune to
    that pass's [name] in the search events.  Ablations
    ([config.goal_inference] etc.) are expressed purely as pipeline
    {e construction} ({!pipeline}), and new pruners can be added without
    touching the scheduler.

    Two passes influence the shared partial-evaluation step rather than
    rejecting candidates themselves: the presence of {!goal_inference}
    turns on goal checking inside [Peval.run] (whose ⊥ outcome this
    pass then converts into a rejection), and the presence of
    {!partial_eval} turns on constant collapsing (which is what lets
    {!equiv_rewrite} fire subset-based rules and {!equiv_dedup} compare
    semantic forms).  The engine derives those two switches from the
    pipeline with {!wants_goal_checks} and {!wants_collapse}. *)

type context = {
  u : Imageeye_symbolic.Universe.t;
  eval_is : Pred.t -> Imageeye_symbolic.Simage.t;
      (** memoized predicate extension, shared with partial evaluation *)
  goal_checks : bool;  (** the pipeline contains {!goal_inference} *)
  collapse : bool;  (** the pipeline contains {!partial_eval} *)
  absint : Absint.env option;
      (** the bidirectional-analysis environment, present iff the
          pipeline contains {!fwd_bwd} ({!wants_absint}) *)
}

type candidate = {
  partial : Partial.t;
  form : Peval.Form.t option;
      (** the candidate's partially evaluated form; [None] is ⊥ (a goal
          violation found during partial evaluation) *)
}

type verdict = Admit | Reject

type check = context -> candidate -> verdict

type id = Goal_inference | Partial_eval | Equiv_rewrite | Equiv_dedup | Fwd_bwd

type pass = {
  id : id;
  name : string;  (** prune-attribution label used in events and stats *)
  on_complete : bool;
      (** whether the pass also checks complete candidates (complete
          candidates otherwise go straight to the solution check) *)
  feasible :
    context -> goal:Goal.t -> reach:Imageeye_symbolic.Simage.t -> bool;
      (** instantiation-time hook: may an operator whose largest
          possible output is [reach] fill a hole whose goal is [goal]?
          Vacuously true for every pass but {!goal_inference}. *)
  fresh : unit -> check;
      (** allocates any per-search state (e.g. the seen-forms table of
          {!equiv_dedup}) and returns the pass's checker *)
}

val goal_inference : pass
(** Section 5.3: rejects candidates whose form is ⊥, and filters
    instantiations whose largest possible output cannot cover the hole
    goal's under-approximation. *)

val partial_eval : pass
(** Section 5.4 as an enabling transformation: never rejects by itself;
    its presence switches on constant collapsing in the shared partial
    evaluation. *)

val equiv_rewrite : pass
(** Section 5.5, term rewriting: rejects candidates whose form is
    reducible (Figs. 13-14). *)

val equiv_dedup : pass
(** Section 5.5, observational-equivalence classes: keeps only the
    first (smallest, by worklist order) candidate of each partially
    evaluated form.  Stateful per search. *)

val fwd_bwd : pass
(** Bidirectional abstract interpretation ({!Absint}): reruns
    forward-then-backward interval propagation to a fixpoint on each
    incomplete candidate, rejecting it when some node's forward interval
    is disjoint from its backward goal, and recording the tightened
    leftmost-hole goal on the candidate for the next expansion. *)

type spec = {
  goal_inference : bool;
  partial_eval : bool;
  equiv_reduction : bool;
  fwd_bwd : bool;
}
(** Which techniques are enabled — the Section 7.4 ablation axes plus
    the bidirectional-analysis extension. *)

val pipeline : spec -> pass list
(** Pipeline construction.  Order matters and mirrors the paper:
    goal inference, partial evaluation, rewriting, then form dedup.
    Form dedup needs collapsed constants to be sound across different
    syntax, so it is only included when {e both} equivalence reduction
    and partial evaluation are on; {!fwd_bwd} runs last and needs goal
    annotations and collapsed constants, so it is only included when
    goal inference and partial evaluation are both on. *)

val wants_goal_checks : pass list -> bool
val wants_collapse : pass list -> bool
val wants_absint : pass list -> bool

val is_info_label : string -> bool
(** Distinguishes informational counters (["eval-cache(memo-hit)"],
    ["partial-eval(const-solved)"], ["fwd-bwd(iterations)"], ...) from
    per-pass prune attributions (["goal-inference"], ["fwd-bwd"], ...) in
    [stats.prune_counts]: informational labels carry a parenthesized
    detail suffix, attribution labels are bare pass names. *)
