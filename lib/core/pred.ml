module Entity = Imageeye_symbolic.Entity

type t =
  | Face_object
  | Face of int
  | Smiling
  | Eyes_open
  | Mouth_open
  | Below_age of int
  | Above_age of int
  | Text_object
  | Word of string
  | Phone_number
  | Price
  | Object of string

let is_digit c = c >= '0' && c <= '9'

(* Prices: optional '$', digits, optional '.' and exactly two decimals. *)
let is_price_string s =
  let n = String.length s in
  if n = 0 then false
  else
    let start = if s.[0] = '$' then 1 else 0 in
    let rec digits i = if i < n && is_digit s.[i] then digits (i + 1) else i in
    let after_int = digits start in
    if after_int = start then false
    else if after_int = n then s.[0] = '$' (* bare integers only count with $ *)
    else
      s.[after_int] = '.' && n - after_int = 3 && is_digit s.[after_int + 1]
      && is_digit s.[after_int + 2]

(* North American phone numbers: 555-0100 style with optional area code,
   "XXX-XXX-XXXX" or "(XXX) XXX-XXXX" or "XXX-XXXX". *)
let is_phone_string s =
  let digit_groups =
    String.split_on_char '-' (String.concat "-" (String.split_on_char ' ' s))
  in
  let strip g =
    let g = if String.length g > 0 && g.[0] = '(' then String.sub g 1 (String.length g - 1) else g in
    if String.length g > 0 && g.[String.length g - 1] = ')' then
      String.sub g 0 (String.length g - 1)
    else g
  in
  let groups = List.filter (fun g -> g <> "") (List.map strip digit_groups) in
  let all_digits g = g <> "" && String.for_all is_digit g in
  match List.map String.length groups with
  | [ 3; 4 ] | [ 3; 3; 4 ] -> List.for_all all_digits groups
  | _ -> false

(* o ⊨ φ reads the attribute φ names off the entity's kind; an attribute
   the kind does not carry (a face predicate on text, [Object] on a face)
   is absent, and entailment fails. *)
let entails (e : Entity.t) p =
  match (p, e.Entity.kind) with
  | Face_object, Entity.Face _ -> true
  | Face n, Entity.Face f -> f.Entity.face_id = n
  | Smiling, Entity.Face f -> f.Entity.smiling
  | Eyes_open, Entity.Face f -> f.Entity.eyes_open
  | Mouth_open, Entity.Face f -> f.Entity.mouth_open
  | Below_age n, Entity.Face f -> f.Entity.age_high < n
  | Above_age n, Entity.Face f -> f.Entity.age_low > n
  | Text_object, Entity.Text _ -> true
  | Word w, Entity.Text body -> String.equal body w
  | Phone_number, Entity.Text body -> is_phone_string body
  | Price, Entity.Text body -> is_price_string body
  | Object cls, Entity.Thing c -> String.equal c cls
  | ( (Face_object | Face _ | Smiling | Eyes_open | Mouth_open | Below_age _ | Above_age _),
      (Entity.Text _ | Entity.Thing _) )
  | (Text_object | Word _ | Phone_number | Price), (Entity.Face _ | Entity.Thing _)
  | Object _, (Entity.Face _ | Entity.Text _) ->
      false

let size = function
  | Face_object | Smiling | Eyes_open | Mouth_open | Text_object | Phone_number | Price -> 1
  | Face _ | Below_age _ | Above_age _ | Word _ | Object _ -> 2

let equal a b = a = b
let compare = Stdlib.compare

let to_string = function
  | Face_object -> "FaceObject"
  | Face n -> Printf.sprintf "Face(%d)" n
  | Smiling -> "Smiling"
  | Eyes_open -> "EyesOpen"
  | Mouth_open -> "MouthOpen"
  | Below_age n -> Printf.sprintf "BelowAge(%d)" n
  | Above_age n -> Printf.sprintf "AboveAge(%d)" n
  | Text_object -> "TextObject"
  | Word w -> Printf.sprintf "Word(%S)" w
  | Phone_number -> "PhoneNumber"
  | Price -> "Price"
  | Object cls -> Printf.sprintf "Object(%s)" cls

let pp fmt t = Format.pp_print_string fmt (to_string t)
