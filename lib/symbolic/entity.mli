(** Detected objects: the (Φ, Δ) pairs of Definition 3.1.

    An entity is one detected object in one raw image of a batch.  Its
    attribute map Φ is the structured [kind]: a face carries the face
    attributes, text its body, a thing its class, so the detector, the
    scene generators and the predicates that read them are type-checked.
    The identifier is dense — 0 .. n-1 within a batch universe —
    and [image_id] records which raw image the object came from, the device
    the paper uses to let one symbolic image represent a whole batch. *)

type face_attrs = {
  face_id : int;  (** stable identity assigned by face recognition *)
  smiling : bool;
  eyes_open : bool;
  mouth_open : bool;
  age_low : int;  (** lower bound of the estimated age range *)
  age_high : int;
}

type kind =
  | Face of face_attrs
  | Text of string  (** recognized text body *)
  | Thing of string  (** general object class, e.g. "cat", "car" *)

type t = { id : int; image_id : int; kind : kind; bbox : Imageeye_geometry.Bbox.t }

val make : id:int -> image_id:int -> kind:kind -> bbox:Imageeye_geometry.Bbox.t -> t

val object_type : t -> string
(** The value of the [objectType] attribute. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
