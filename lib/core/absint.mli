(** Bidirectional abstract interpretation over symbolic-image intervals.

    An interval [⟨Î⁻, Î⁺⟩] stands for every symbolic image Î with
    Î⁻ ⊆ Î ⊆ Î⁺.  {!Goal.t} is exactly this domain read {e backward}
    (constraints on what a subprogram must produce), and the collapsed
    constants of partial evaluation are its exact elements read
    {e forward} (what a complete subtree does produce).  This module
    iterates the two directions to a fixpoint over one candidate:

    - {e forward}, bottom-up: complete subtrees contribute [⟨v, v⟩];
      holes contribute their current backward interval; operator nodes
      combine children by their abstract semantics (Union joins bounds,
      Intersect meets them, Complement flips them, Find/Filter are
      bounded by the precomputed reach of their parameterization, and
      output nothing when their input is surely empty).  Each node's
      forward bounds are met with its backward interval — an empty meet
      kills the candidate.
    - {e backward}, top-down: each node pushes its (refined) interval
      into its children, e.g. once [k-1] children of a [Union] are
      resolved, the last hole's goal tightens from [{under = ∅}] to
      [{under = goal.under \ ⋃ siblings.over}].

    Each transfer follows from its operator's monotonicity (Complement
    is antitone, every other operator monotone in each argument), so the
    forward bounds over-approximate every completion's value.

    {e All-hole tightening}: on a feasible fixpoint, {e every} hole whose
    final interval beats its annotation is recorded in the candidate
    root's tight map ({!Partial.set_tight}), and holes seed their
    backward intervals from the map inherited from the parent candidate
    ({!Partial.inherit_tight}) — so tightening survives expansion and
    applies to whichever hole is filled next.

    Both directions only ever shrink intervals (every update is a meet),
    so the iteration is monotone in a finite lattice and terminates; the
    [max_iterations] cap merely bounds the work per candidate and is
    sound to stop at any round.  Cap saturations are counted so they are
    visible in prune diagnostics. *)

val meet : Goal.t -> Goal.t -> Goal.t
(** Interval meet: [⟨a⁻ ∪ b⁻, a⁺ ∩ b⁺⟩]. *)

val feasible : Goal.t -> bool
(** A non-empty interval: [under ⊆ over]. *)

val default_max_iterations : int

type scratch
(** The word buffer that holds every mirror node's intervals during an
    analysis; owned by one env, reused by each analysis and grown on
    demand. *)

type env = {
  u : Imageeye_symbolic.Universe.t;
  reach_find : Pred.t -> Func.t -> Imageeye_symbolic.Simage.t;
      (** largest possible output of [Find(_, p, f)] on the input image *)
  reach_filter : Pred.t -> Imageeye_symbolic.Simage.t;
      (** largest possible output of [Filter(_, p)] *)
  max_iterations : int;
  mutable analyses : int;  (** candidates analyzed *)
  mutable iterations : int;  (** total forward-backward rounds *)
  mutable tightened : int;  (** analyses that tightened at least one hole *)
  mutable cap_hits : int;
      (** analyses stopped by [max_iterations] before the fixpoint *)
  scratch : scratch;
}
(** Per-search analysis environment: reach tables shared with the
    engine's vocabulary facts, plain (single-Domain) counters the engine
    folds into [stats.prune_counts], and the analyses' word buffer — so
    an env must not be shared between Domains. *)

val make_env :
  ?max_iterations:int ->
  ?reach_find:(Pred.t -> Func.t -> Imageeye_symbolic.Simage.t) ->
  ?reach_filter:(Pred.t -> Imageeye_symbolic.Simage.t) ->
  Imageeye_symbolic.Universe.t ->
  env
(** Reach functions default to the full universe (sound, uninformative). *)

type result = Feasible | Infeasible

val analyze : env -> Partial.t -> Form.t -> result
(** [analyze env root form] runs the fixpoint on one candidate, given its
    partially evaluated form (whose [Const] nodes supply the forward
    values — the analysis never evaluates anything itself).  [Infeasible]
    means no completion of [root] can satisfy every goal annotation, so
    the candidate is sound to discard even in multi-solution searches.
    On [Feasible], every strictly tightened hole goal is recorded via
    {!Partial.set_tight}; hole backward intervals are seeded from the
    tight map already present on [root] (inherited from the candidate it
    was expanded from).  A form whose shape cannot be mirrored (e.g.
    collapse was off) is admitted unanalyzed.  The intervals live in the
    env's word buffer and are updated in place; the only sets allocated
    are the tightened goals. *)
