(** Abstract syntax of the image-manipulation DSL (Fig. 3).

    A program is a set of guarded actions [E -> A]; extractors [E] select
    sets of objects from a symbolic image.  [Union] and [Intersect] are
    variadic as in the paper (the synthesizer enumerates arities 2 and 3,
    which covers every ground-truth program in Appendix B; [test_tasks]
    checks it against the default config). *)

type extractor =
  | All  (** the whole image *)
  | Is of Pred.t  (** all objects satisfying a predicate *)
  | Complement of extractor
  | Union of extractor list  (** at least two operands *)
  | Intersect of extractor list  (** at least two operands *)
  | Find of extractor * Pred.t * Func.t
      (** for each object produced by the nested extractor, the first
          object along the spatial function satisfying the predicate *)
  | Filter of extractor * Pred.t
      (** objects satisfying the predicate nested inside objects produced
          by the nested extractor *)

type action = Blur | Blackout | Sharpen | Brighten | Recolor | Crop

type program = (extractor * action) list
(** Guarded actions; at most one guard per action by construction of the
    top-level synthesis algorithm (Fig. 8). *)

val size : extractor -> int
(** AST-node count, counting parameterized predicates as 2 nodes and
    spatial functions as 1, matching Appendix B's size column. *)

val depth : extractor -> int

val program_size : program -> int
(** Sum of extractor sizes (actions are not counted, matching the paper's
    difficulty metric). *)

val all_actions : action list
(** The six actions in a fixed enumeration order. *)

val action_to_string : action -> string
val action_of_string : string -> action option

val equal_extractor : extractor -> extractor -> bool
val compare_extractor : extractor -> extractor -> int
val equal_program : program -> program -> bool

val pp_extractor : Format.formatter -> extractor -> unit
val pp_action : Format.formatter -> action -> unit
val pp_program : Format.formatter -> program -> unit

val extractor_to_string : extractor -> string
val program_to_string : program -> string
