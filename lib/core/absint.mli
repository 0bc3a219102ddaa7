(** Bidirectional abstract interpretation over a product domain of
    symbolic-image intervals.

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
      bounded by the precomputed reach of their parameterization).  Each
      node's forward bounds are met with its backward interval — an
      empty meet kills the candidate.
    - {e backward}, top-down: each node pushes its (refined) interval
      into its children, e.g. once [k-1] children of a [Union] are
      resolved, the last hole's goal tightens from [{under = ∅}] to
      [{under = goal.under \ ⋃ siblings.over}].

    The domain is a product of three refinements over the plain global
    interval of PR 6:

    - {e per-image planes}: the demo images partition the universe and
      every DSL operator is image-local (spatial relations and
      containment never cross images), so each node carries one interval
      per image, met independently.  A candidate dies as soon as it is
      infeasible on {e any single} demo image, and [Find]/[Filter] are
      bounded by per-image reach sets instead of their whole-universe
      union.  The bitset part is stored whole-universe (a plane is the
      whole interval met with its image's mask), so operators that
      distribute over the partition run once for every plane.
    - {e cardinality bounds}: each plane also tracks [⟨|e|min, |e|max⟩]
      with its own transfer functions ([Find] yields at most one output
      per input; a [Union] of k children supplies at most Σ|cᵢ|max
      objects; [Complement] reflects the bounds within the image mask),
      reduced against the bitset interval both ways — counting kills the
      bitsets cannot express, e.g. a Union of singleton-bounded holes
      chasing a larger goal.
    - {e all-hole tightening}: on a feasible fixpoint, {e every} hole
      whose final interval beats its annotation is recorded in the
      candidate root's tight map ({!Partial.set_tight}), and holes seed
      their backward intervals from the map inherited from the parent
      candidate ({!Partial.inherit_tight}) — so tightening survives
      expansion and applies to whichever hole is filled next.

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

val max_planes : int
(** Above this many images the analysis stops tracking one plane per
    image (per-image bookkeeping would dominate).  With [demo_images] it
    then keeps a plane per demonstrated image plus one residual plane;
    without, it falls back to a single whole-universe plane. *)

type env = {
  u : Imageeye_symbolic.Universe.t;
  reach_find : Pred.t -> Func.t -> Imageeye_symbolic.Simage.t;
      (** largest possible output of [Find(_, p, f)] on the input image *)
  reach_filter : Pred.t -> Imageeye_symbolic.Simage.t;
      (** largest possible output of [Filter(_, p)] *)
  max_iterations : int;
  cardinality : bool;  (** track [⟨|e|min, |e|max⟩] per plane *)
  masks : Imageeye_util.Bitset.t array;
      (** one object mask per plane, partitioning the universe; a single
          full mask when per-image refinement is off or the universe has
          too many images *)
  msizes : int array;  (** cardinality of each mask *)
  mutable analyses : int;  (** candidates analyzed *)
  mutable iterations : int;  (** total forward-backward rounds *)
  mutable tightened : int;  (** analyses that tightened at least one hole *)
  mutable cap_hits : int;
      (** analyses stopped by [max_iterations] before the fixpoint *)
  mutable card_kills : int;
      (** infeasibilities proved by the cardinality domain alone *)
}
(** Per-search analysis environment: reach tables shared with the
    engine's vocabulary facts, plus plain (single-Domain) counters the
    engine folds into [stats.prune_counts]. *)

val make_env :
  ?max_iterations:int ->
  ?per_image:bool ->
  ?cardinality:bool ->
  ?demo_images:int list ->
  ?reach_find:(Pred.t -> Func.t -> Imageeye_symbolic.Simage.t) ->
  ?reach_filter:(Pred.t -> Imageeye_symbolic.Simage.t) ->
  Imageeye_symbolic.Universe.t ->
  env
(** Reach functions default to the full universe (sound, uninformative);
    [per_image] and [cardinality] default to on.  With [per_image], a
    universe of 2..{!max_planes} images gets one plane per image; a
    larger universe gets one plane per image of [demo_images] (the
    demonstrated raw images of the spec, deduplicated, unknown ids
    ignored) plus a residual plane over the rest — each mask is still a
    union of whole images, so the product-domain soundness argument is
    unchanged.  A larger universe without [demo_images] keeps the single
    whole-universe plane. *)

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
    collapse was off) is admitted unanalyzed. *)
