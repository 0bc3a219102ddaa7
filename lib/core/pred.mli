(** DSL predicates φ and the entailment relation o ⊨ φ (Fig. 5).

    Each predicate mirrors one of the neural attributes of Appendix C: it
    reads the attribute it names off the entity's typed [kind], which the
    (simulated) vision models write and which is the paper's map Φ.
    [Phone_number] and [Price] are the paper's format matchers over
    recognized text. *)

type t =
  | Face_object  (** any object recognized as a human face *)
  | Face of int  (** face with a specific recognition identity *)
  | Smiling
  | Eyes_open
  | Mouth_open
  | Below_age of int  (** upper age bound strictly less than N *)
  | Above_age of int  (** lower age bound strictly greater than N *)
  | Text_object  (** any recognized text object *)
  | Word of string  (** text object with this exact body *)
  | Phone_number  (** text matching a North American phone number *)
  | Price  (** text matching a price format *)
  | Object of string  (** object classifier class, e.g. [Object "cat"] *)

val entails : Imageeye_symbolic.Entity.t -> t -> bool
(** The o ⊨ R(C) relation of Fig. 5: true iff the entity's kind carries
    the relevant attribute and it has the required value (a face predicate
    never holds of text, [Object] never of a face, and so on). *)

val size : t -> int
(** AST-node count: 1 for nullary predicates, 2 for parameterized ones
    (matches how Appendix B measures ground-truth program sizes). *)

val is_price_string : string -> bool
(** Exposed for testing: "$12.99", "12.99", "$5" are prices. *)

val is_phone_string : string -> bool
(** Exposed for testing: "512-555-0100", "(512) 555-0100". *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
