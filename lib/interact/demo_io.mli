(** Plain-text demonstration files: the scriptable stand-in for clicking
    objects in the paper's GUI.

    A demonstration file lists, per image, which detected objects the user
    applied which actions to:

    {v
    # comments and blank lines are ignored
    image 3
      blur 0
      blur 2
    image 7          # an image with no edits is a negative example
    image 12
      crop 1
    v}

    Object numbers are the 0-based positions of the image's detections, in
    the order printed by [imageeye objects] (which is the detector's scene
    order).  Together with {!to_spec} this completes the
    programming-by-demonstration workflow for arbitrary datasets: list the
    detected objects, write down the edits, synthesize. *)

type demo = {
  image_id : int;
  edits : (int * Imageeye_core.Lang.action) list;
      (** (object position within the image, action) *)
}

type error = { line : int; message : string }

val parse : string -> (demo list, error) result
val error_to_string : error -> string

val to_string : demo list -> string
(** Inverse of {!parse}. *)

val load : string -> (demo list, error) result

val save : demo list -> string -> unit
(** Atomic (write-temp + fsync + rename): a crash mid-write leaves any
    previous file intact. *)

val to_spec :
  ?shared:bool ->
  scenes:Imageeye_scene.Scene.t list ->
  demo list ->
  (Imageeye_core.Edit.Spec.t, string) result
(** Build the synthesis specification: a universe containing exactly the
    demonstrated images (perfect detection) and the edit the file
    describes.  Fails when a demo references an unknown image or an object
    position out of range.

    With [~shared:true] the universe is interned via
    {!Imageeye_vision.Batch.shared_universe_of_scenes}: repeated specs
    over equal demonstrated scenes share one physical universe and with
    it the synthesizer's per-universe vocabulary.  The serve daemon uses
    this so identical requests skip universe construction (entries live
    for the process lifetime — a one-shot CLI run keeps the default). *)
