(** The per-universe vocabulary cache, shared across every search — and
    every task — over the same universe.

    {!Vocab.of_universe} walks every entity of a universe; a sweep, a
    multi-action spec and a daemon serving a recurring spec all search
    the same universe many times, so the result is memoized per
    (universe, age thresholds) and reused read-only.

    {b Domain safety.} One process-wide mutex serializes every registry
    operation.  Entries live for the process lifetime unless dropped by
    {!clear} or {!evict}. *)

module Universe = Imageeye_symbolic.Universe

val vocab : Universe.t -> age_thresholds:int list -> Vocab.t
(** The memoized [Vocab.of_universe], keyed per (universe, thresholds). *)

val clear : unit -> unit
(** Drop every registry entry (tests, memory release). *)

val evict : Universe.t -> unit
(** Drop one universe's entry — the streaming tier's O(window) cache
    calls this when a universe falls behind the cursor, so evicted
    universes become garbage instead of living for the process
    lifetime.  No-op for unregistered universes. *)

val registered : unit -> int
(** Number of universes currently holding a registry entry (tests: the
    streaming cache bound). *)
