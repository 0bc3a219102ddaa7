(** Precomputed facts about the vocabulary over one input image.

    Every search needs the extension of each predicate (the value of
    [Is p]) and, for each Find/Filter parameterization, its largest
    possible output whatever the nested extractor produces (its {e reach}).
    Goal inference uses the reach to prune instantiations that cannot
    cover a hole's under-approximation, and the fwd-bwd analysis
    ({!Absint}) uses it to bound the forward interval of Find/Filter
    nodes. *)

type t = {
  extension : Pred.t -> Imageeye_symbolic.Simage.t;
      (** the objects entailing the predicate *)
  find_insts : (Pred.t * Func.t * Imageeye_symbolic.Simage.t) list;
      (** Find parameterizations with their reach, predicates in
          vocabulary order and functions in {!Func.all} order within a
          predicate *)
  filter_insts : (Pred.t * Imageeye_symbolic.Simage.t) list;
      (** Filter parameterizations with their reach, in vocabulary order *)
}

val compute : ?dedup:bool -> Imageeye_symbolic.Universe.t -> Vocab.t -> t
(** The facts of one universe and vocabulary.

    With [dedup] (the default), a parameterization is dropped when its
    {e signature} equals one met earlier in the list order or is
    everywhere empty.  The signature of [Find(_, p, f)] is the first
    match of [p] along [f] from every object; that of [Filter(_, p)] is
    the set of contained objects entailing [p].  Equal signatures give
    equal outputs for every nested extractor, and an empty one gives the
    empty image, which the smaller [Complement(All)] already produces, so
    both cuts are observational-equivalence reductions.

    One pass tests every object against every predicate; one walk of each
    object's related objects per function then fills the first matches of
    all predicates together.  Signatures, reach sets and extensions are
    all read off these two tables. *)
