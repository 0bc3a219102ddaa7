(** Consistent hashing for the router: a fixed ring of hash points
    mapping routing keys to workers.

    Each worker contributes [vnodes] points at
    [crc32 "<worker>#<i>"]; a key routes to the first point clockwise
    from [crc32 key].  Because the points depend only on the worker
    names, the mapping is {e stable}: it survives router restarts (so
    per-worker interned universes keep paying off), and adding or
    removing one worker remaps only the keys that hashed to that
    worker's arcs — every other key keeps its assignment
    (property-tested in [test_router]). *)

type t

val create : ?vnodes:int -> string list -> t
(** [create workers] builds the ring ([vnodes] points per worker,
    default 64).  Duplicate names are ignored; the empty list yields an
    empty ring. *)

val workers : t -> string list
(** Distinct workers on the ring, sorted. *)

val lookup : t -> string -> string option
(** The key's owner; [None] on an empty ring. *)

val successors : t -> string -> string list
(** Every worker, ordered by first hash point clockwise from the key:
    head is {!lookup}'s answer, the rest is the failover order the
    router walks when workers are lost. *)
