(** The streaming tier's O(window) universe cache.

    At most [window] frame universes are live at a time: {!universe}
    interns the frame's single-scene universe (via
    {!Imageeye_vision.Batch.shared_universe_of_scenes}, so revisits —
    e.g. splicing a repaired program into the failing window — get the
    same physical universe) and evicts the oldest frames beyond the
    window, releasing their {!Imageeye_vision.Batch} intern entries and
    {!Imageeye_core.Bank_registry} vocabularies so they become garbage.  Not
    thread-safe; the streaming driver is single-threaded. *)

type t

val create : window:int -> t
(** Raises [Invalid_argument] when [window < 1]. *)

val universe : t -> int -> Imageeye_scene.Scene.t -> Imageeye_symbolic.Universe.t
(** [universe t frame scene] returns the frame's universe, building and
    interning it on first use and evicting the oldest frames down to the
    window bound. *)

val find : t -> int -> Imageeye_symbolic.Universe.t option
(** The frame's universe when still live (no build, no eviction). *)

val release : t -> int -> unit
(** Evict one frame now (no-op when not live). *)

val live : t -> int
(** Live universes — [<= window] always. *)

val peak : t -> int
(** High-water mark of {!live} over the cache's lifetime. *)

val built : t -> int
(** Universes built (cache misses) over the cache's lifetime. *)

val drop : t -> unit
(** Release every live frame (end of stream). *)
