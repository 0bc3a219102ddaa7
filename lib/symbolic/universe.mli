(** The object universe of a batch, with precomputed spatial indices.

    A universe fixes the set of all detected objects across the raw images
    under consideration; symbolic images ({!Simage}) are subsets of it.
    Because the DSL evaluator asks "what is to the right of object o" and
    "what contains o" millions of times during search, those relations are
    computed once per universe, restricted to objects of the same raw
    image, and stored as sorted arrays using the orderings of Fig. 7:

    - [right_of u i]: objects right of [i], ascending by left edge;
    - [left_of u i]: objects left of [i], descending by right edge;
    - [above u i]: objects above [i], descending by bottom edge;
    - [below u i]: objects below [i], ascending by top edge;
    - [parents u i]: objects whose box strictly contains [i]'s, innermost
      (smallest area) first;
    - [contents u i]: objects strictly inside [i]'s box.

    Construction costs what the universe holds: entities are grouped by
    raw image once, each relation scans only same-image peers (O(sum of
    k²) for images of k objects, not O(N²) over the batch), and the
    hash-consing table starts at [Hashtbl]'s minimum and grows with the
    sets interned, so a one-frame universe stays off the major heap. *)

type t

type interned = private {
  bits : Imageeye_util.Bitset.t;  (** the canonical (shared) bitset *)
  uid : int;  (** unique within this universe; equal sets share one uid *)
  bhash : int;  (** structural hash, precomputed once at intern time *)
}
(** A hash-consed object set over one universe: {!Simage} values carry
    these cells, so set equality is a uid comparison and hashing is O(1).
    The uid is an interning order, which can differ between runs (and
    between Domains racing to intern); it must only ever be compared for
    equality — orderings stay structural for cross-run determinism. *)

val of_entities : Entity.t list -> t
(** Entities must have ids exactly [0 .. n-1]; raises [Invalid_argument]
    otherwise. *)

val uid : t -> int
(** Identity of this universe, unique within the process; lets registries
    (e.g. the synthesizer's per-universe vocabularies) key caches
    by universe without holding a comparison order.  Creation order can
    differ between runs and Domains — only compare uids for equality. *)

val size : t -> int
val entity : t -> int -> Entity.t
val entities : t -> Entity.t list
val image_ids : t -> int list
(** Distinct raw-image ids, ascending. *)

val objects_of_image : t -> int -> int list
(** Ids of all objects detected in one raw image, ascending ([\[\]] for an
    image the universe does not hold).  Answered from the per-image index
    in O(log images). *)

val intern : t -> Imageeye_util.Bitset.t -> interned
(** The canonical cell for a bitset over this universe, creating it on
    first sight.  Thread-safe (callable from any Domain).  Raises
    [Invalid_argument] when the bitset's universe size does not match. *)

val interned_count : t -> int
(** Number of distinct object sets interned so far (instrumentation). *)

val right_of : t -> int -> int array
val left_of : t -> int -> int array
val above : t -> int -> int array
val below : t -> int -> int array
val parents : t -> int -> int array
val contents : t -> int -> int array
