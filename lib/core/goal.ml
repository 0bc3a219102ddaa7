module Simage = Imageeye_symbolic.Simage
module Universe = Imageeye_symbolic.Universe

type t = { under : Simage.t; over : Simage.t }

let make ~under ~over = { under; over }

let exact out = { under = out; over = out }

let trivial u = { under = Simage.empty u; over = Simage.full u }

let consistent img g = Simage.subset g.under img && Simage.subset img g.over

type operator = For_union | For_intersect | For_complement | For_find | For_filter

let infer_within ~empty ~full op g =
  match op with
  | For_union -> { under = empty; over = g.over }
  | For_intersect -> { under = g.under; over = full }
  | For_complement -> { under = Simage.diff full g.over; over = Simage.diff full g.under }
  | For_find | For_filter -> { under = empty; over = full }

let infer u op g = infer_within ~empty:(Simage.empty u) ~full:(Simage.full u) op g

let equal a b = Simage.equal a.under b.under && Simage.equal a.over b.over

let pp fmt g = Format.fprintf fmt "(%a, %a)" Simage.pp g.under Simage.pp g.over
