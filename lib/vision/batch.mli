(** Building symbolic-image universes from batches of scenes.

    This is where the paper's "one symbolic image for many raw images"
    representation is constructed: detections from every scene in the
    batch are concatenated, given dense identifiers, and indexed into a
    {!Imageeye_symbolic.Universe.t}.  The demonstrated-image sub-batches
    used for synthesis and the full-dataset batches used for correctness
    checking both come through here. *)

val universe_of_scenes :
  ?noise:Noise.t -> ?seed:int -> Imageeye_scene.Scene.t list ->
  Imageeye_symbolic.Universe.t
(** [universe_of_scenes scenes] runs the detector over every scene (with
    [noise], default {!Noise.none}) and builds the combined universe.
    Entities keep their scene's [image_id]. *)

val universe_of_detections :
  Detector.detection list -> Imageeye_symbolic.Universe.t
(** Assign dense ids in list order and index. *)

val shared_universe_of_scenes :
  Imageeye_scene.Scene.t list -> Imageeye_symbolic.Universe.t
(** Like {!universe_of_scenes} with noiseless detection, but memoized on
    the scene list: equal scene lists return the {e same physical}
    universe, so per-universe synthesis caches (vocabularies, interned
    symbolic images) are shared across the tasks and interaction rounds
    of a sweep.  Thread-safe; entries live for the process lifetime (a
    restarted daemon rebuilds them from the scenes its requests carry). *)

val clear_shared : unit -> unit
(** Drop every interned entry (tests: in-process daemon restarts must
    not carry warm state in memory). *)

val release_shared : Imageeye_scene.Scene.t list -> unit
(** Drop one interned entry by its scene-list key (no-op when absent).
    The streaming tier's O(window) cache releases frames behind its
    cursor this way; a later {!shared_universe_of_scenes} on the same
    key recomputes a fresh (no longer physically equal) universe. *)

val shared_count : unit -> int
(** Number of interned entries (tests: the streaming cache bound). *)
