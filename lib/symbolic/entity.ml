type face_attrs = {
  face_id : int;
  smiling : bool;
  eyes_open : bool;
  mouth_open : bool;
  age_low : int;
  age_high : int;
}

type kind = Face of face_attrs | Text of string | Thing of string

type t = { id : int; image_id : int; kind : kind; bbox : Imageeye_geometry.Bbox.t }

let make ~id ~image_id ~kind ~bbox = { id; image_id; kind; bbox }

let object_type t =
  match t.kind with Face _ -> "face" | Text _ -> "text" | Thing cls -> cls

let equal a b = a = b

let pp fmt t =
  Format.fprintf fmt "#%d@img%d %s %a" t.id t.image_id (object_type t)
    Imageeye_geometry.Bbox.pp t.bbox
