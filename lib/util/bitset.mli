(** Fixed-universe bitsets.

    Symbolic images are sets of object identifiers drawn from a dense
    universe [0 .. n-1].  The synthesizer performs an enormous number of
    set operations (union, intersection, complement, subset tests) while
    searching, and it hashes set values for observational-equivalence
    reduction, so sets are represented as packed bit vectors.

    All binary operations require both operands to share the same universe
    size and raise [Invalid_argument] otherwise. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0 .. n-1]. *)

val universe_size : t -> int

val words : t -> int array
(** The set's packed words, 63 elements to a word, element [x] at bit
    [x mod 63] of word [x / 63]; bits past the universe are clear.  A
    read-only view, not a copy: mutating the array corrupts the set and
    every value that shares it (interned sets are shared). *)

val of_words : int -> int array -> t
(** [of_words n words] is the set over universe size [n] whose packed
    words (as {!words} lays them out) are [words].  The set takes the
    array over without copying it, so the caller must not mutate it
    afterwards.  Raises [Invalid_argument] when the word count does not
    fit [n] or a bit past the universe is set. *)

val full : int -> t
(** [full n] contains every element of the universe. *)

val of_list : int -> int list -> t
(** [of_list n elts] builds a set over universe size [n]. Elements outside
    [0 .. n-1] raise [Invalid_argument]. *)

val to_list : t -> int list
(** Elements in increasing order. *)

val singleton : int -> int -> t
(** [singleton n x] is [of_list n \[x\]]. *)

val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t
val is_empty : t -> bool
val cardinal : t -> int

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t

val subset : t -> t -> bool
(** [subset a b] is [true] iff every element of [a] is in [b]. *)

val disjoint : t -> t -> bool
(** [disjoint a b] is [true] iff [a] and [b] share no element: a word-level
    AND-test, equivalent to [is_empty (inter a b)] but allocation-free. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** A total order: the packed words compared as signed integers, first
    word first. *)

val hash : t -> int
(** Reads every word; equal sets hash equally. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val filter : (int -> bool) -> t -> t
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val choose_opt : t -> int option
(** Smallest element, if any. *)

val pp : Format.formatter -> t -> unit
