(** Partial programs: extractor ASTs with holes and per-node goal
    annotations (Definition 5.1).

    The worklist of the top-down search stores these.  Holes are always
    extractor-shaped — predicates and spatial functions are filled in at
    expansion time — and every node carries the goal inferred for it when
    its parent was expanded.

    Each node additionally carries a mutable memo slot: once a complete
    subtree has been partially evaluated, its [(form, value)] is recorded
    on the node, and because expansion shares unchanged sibling subtrees
    physically across candidates, a later evaluation of any candidate
    containing the node reuses the result instead of re-evaluating the
    subtree ({!Peval} reads and writes the slot when given a cache).

    A second mutable slot, [tight], caches the result of bidirectional
    abstract interpretation ({!Absint}): a map from each hole of the
    candidate to its tightened goal, keyed by the hole node's physical
    identity (hole nodes live in subtrees that are shared {e unchanged}
    across candidates, so the pointer is a stable name for "this hole of
    this candidate").  It is written only on candidate {e root} nodes —
    which are always freshly allocated per candidate, never physically
    shared the way sibling subtrees are — so the slot cannot race
    between candidates or Domains.  Expansion copies the map onto the
    candidates it derives ({!inherit_tight}): a constraint on a hole of
    [C] constrains the same hole of every candidate refined from [C],
    letting the next analysis seed its backward intervals from it. *)

type memo = { mform : Form.t; mvalue : Imageeye_symbolic.Simage.t }

type t = {
  goal : Goal.t;
  node : node;
  mutable memo : memo option;
  mutable tight : (t * Goal.t) list;
}

and node =
  | Hole
  | All
  | Is of Pred.t
  | Complement of t
  | Union of t list
  | Intersect of t list
  | Find of t * Pred.t * Func.t
  | Filter of t * Pred.t

val make : Goal.t -> node -> t
(** A node with an empty memo slot.  All construction goes through this
    (or a [{ p with node = _ }] copy of a node that was never memoized,
    i.e. one containing a hole). *)

val hole : Goal.t -> t
(** A single-node partial program (the CreateProg of Section 5.1). *)

val memo : t -> memo option

val set_memo : t -> form:Form.t -> value:Imageeye_symbolic.Simage.t -> unit
(** Record the partial-evaluation result of a complete subtree.  Only
    {!Peval} should call this, and only after any goal check passed. *)

val tight : t -> (t * Goal.t) list
(** The candidate's per-hole tightened-goal map ([[]] when no analysis
    recorded one); keys are hole nodes compared physically. *)

val set_tight : t -> (t * Goal.t) list -> unit
(** Record the per-hole tightened goals computed by the forward-backward
    fixpoint.  Only {!Absint.analyze} should call this, and only on
    candidate root nodes (see above). *)

val tight_for : t -> hole:t -> Goal.t option
(** The tightened goal recorded on candidate root [t] for the given hole
    node, if any. *)

val inherit_tight : from:t -> t -> unit
(** Copy [from]'s tight map onto [t].  Called by expansion on each
    candidate it derives from [from]: the surviving holes are the same
    physical nodes, and a goal valid for every solving completion of
    [from] is valid for the refined candidate's completions too (they
    are a subset).  Entries for the hole the expansion filled simply
    never match again. *)

val leftmost_hole : t -> (t * (t -> t) list) option
(** The first hole in left-to-right order — the one expansion fills —
    and the spine from [t] down to it as one rebuild step per level,
    outermost first.  A step wraps the level's new child in a fresh node
    (empty memo slot) with the level's goal and its other operands as
    they are, so [List.fold_right (fun step c -> step c) path filled] is
    [t] with the hole replaced by [filled], every off-spine subtree
    shared physically. *)

val of_extractor : Goal.t -> Lang.extractor -> t
(** Embed a complete extractor, annotating every node with the same goal;
    used by tests and by the baseline bridge. *)

val is_complete : t -> bool
(** No holes anywhere. *)

val to_extractor : t -> Lang.extractor option
(** [Some e] iff complete. *)

val size : t -> int
(** AST size with each hole counted as 1 (the smallest completion of a
    hole has size 1, so this ordering enumerates programs in ascending
    order of final size). *)

val depth : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
