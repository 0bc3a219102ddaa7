(** Goal annotations for partial programs (Definitions 5.3-5.4) and the
    goal-inference rules of Fig. 11.

    A goal is a pair (Î⁻, Î⁺) of symbolic images: every object of Î⁻ must
    appear in the subprogram's output, and no object outside Î⁺ may.  Goals
    are propagated from a node to its children by the abstract semantics of
    the node's DSL operator, which is what lets the synthesizer prune
    partial programs whose complete subtrees already violate them
    (Theorem 5.8). *)

type t = { under : Imageeye_symbolic.Simage.t; over : Imageeye_symbolic.Simage.t }

val make :
  under:Imageeye_symbolic.Simage.t -> over:Imageeye_symbolic.Simage.t -> t

val exact : Imageeye_symbolic.Simage.t -> t
(** The root goal (Î_out, Î_out): the output must be exactly Î_out. *)

val trivial : Imageeye_symbolic.Universe.t -> t
(** (∅, Î_in): satisfied by everything; used for Find/Filter children and
    for every child when goal inference is ablated. *)

val consistent : Imageeye_symbolic.Simage.t -> t -> bool
(** Î ~ φ of Definition 5.4: Î⁻ ⊆ Î ⊆ Î⁺. *)

(** Which DSL operator a child goal is being inferred for. *)
type operator = For_union | For_intersect | For_complement | For_find | For_filter

val infer : Imageeye_symbolic.Universe.t -> operator -> t -> t
(** ‖f‖(φ) of Fig. 11: the goal of every child of an [operator] node whose
    own goal is φ.  [Universe] supplies Î_in for the complement and
    intersect rules. *)

val infer_within :
  empty:Imageeye_symbolic.Simage.t ->
  full:Imageeye_symbolic.Simage.t ->
  operator ->
  t ->
  t
(** [infer] given the universe's empty image and Î_in, for callers that
    infer many goals over one universe and hold both already (each is an
    intern-table lookup to build). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
