type memo = { mform : Form.t; mvalue : Imageeye_symbolic.Simage.t }

type t = {
  goal : Goal.t;
  node : node;
  mutable memo : memo option;
  mutable tight : (t * Goal.t) list;
}

and node =
  | Hole
  | All
  | Is of Pred.t
  | Complement of t
  | Union of t list
  | Intersect of t list
  | Find of t * Pred.t * Func.t
  | Filter of t * Pred.t

let make goal node = { goal; node; memo = None; tight = [] }

let hole goal = make goal Hole

let memo t = t.memo

let set_memo t ~form ~value = t.memo <- Some { mform = form; mvalue = value }

let tight t = t.tight

let set_tight t map = t.tight <- map

let tight_for t ~hole = List.assq_opt hole t.tight

let inherit_tight ~from t = if from.tight <> [] then t.tight <- from.tight

let rec leftmost_hole t =
  match t.node with
  | Hole -> Some (t, [])
  | All | Is _ -> None
  | Complement q -> under q (fun c -> make t.goal (Complement c))
  | Find (q, p, f) -> under q (fun c -> make t.goal (Find (c, p, f)))
  | Filter (q, p) -> under q (fun c -> make t.goal (Filter (c, p)))
  | Union qs -> among [] qs (fun qs -> make t.goal (Union qs))
  | Intersect qs -> among [] qs (fun qs -> make t.goal (Intersect qs))

and under q step =
  match leftmost_hole q with Some (h, path) -> Some (h, step :: path) | None -> None

(* [left] holds the operands before [q :: right], reversed. *)
and among left qs mk =
  match qs with
  | [] -> None
  | q :: right -> (
      match leftmost_hole q with
      | Some (h, path) -> Some (h, (fun c -> mk (List.rev_append left (c :: right))) :: path)
      | None -> among (q :: left) right mk)

let rec of_extractor goal (e : Lang.extractor) =
  let child = of_extractor goal in
  let node =
    match e with
    | Lang.All -> All
    | Lang.Is p -> Is p
    | Lang.Complement e1 -> Complement (child e1)
    | Lang.Union es -> Union (List.map child es)
    | Lang.Intersect es -> Intersect (List.map child es)
    | Lang.Find (e1, p, f) -> Find (child e1, p, f)
    | Lang.Filter (e1, p) -> Filter (child e1, p)
  in
  make goal node

let rec is_complete t =
  match t.node with
  | Hole -> false
  | All | Is _ -> true
  | Complement t1 | Find (t1, _, _) | Filter (t1, _) -> is_complete t1
  | Union ts | Intersect ts -> List.for_all is_complete ts

let rec to_extractor t =
  let open Option in
  match t.node with
  | Hole -> None
  | All -> Some Lang.All
  | Is p -> Some (Lang.Is p)
  | Complement t1 -> map (fun e -> Lang.Complement e) (to_extractor t1)
  | Union ts -> map (fun es -> Lang.Union es) (to_extractors ts)
  | Intersect ts -> map (fun es -> Lang.Intersect es) (to_extractors ts)
  | Find (t1, p, f) -> map (fun e -> Lang.Find (e, p, f)) (to_extractor t1)
  | Filter (t1, p) -> map (fun e -> Lang.Filter (e, p)) (to_extractor t1)

and to_extractors ts =
  List.fold_right
    (fun t acc ->
      match (to_extractor t, acc) with
      | Some e, Some es -> Some (e :: es)
      | _ -> None)
    ts (Some [])

let rec size t =
  match t.node with
  | Hole | All -> 1
  | Is p -> 1 + Pred.size p
  | Complement t1 -> 1 + size t1
  | Union ts | Intersect ts -> 1 + List.fold_left (fun acc t -> acc + size t) 0 ts
  | Find (t1, p, _) -> 1 + size t1 + Pred.size p + 1
  | Filter (t1, p) -> 1 + size t1 + Pred.size p

let rec depth t =
  match t.node with
  | Hole | All | Is _ -> 1
  | Complement t1 | Find (t1, _, _) | Filter (t1, _) -> 1 + depth t1
  | Union ts | Intersect ts -> 1 + List.fold_left (fun acc t -> max acc (depth t)) 0 ts

let rec pp fmt t =
  match t.node with
  | Hole -> Format.pp_print_string fmt "?"
  | All -> Format.pp_print_string fmt "All"
  | Is p -> Format.fprintf fmt "Is(%a)" Pred.pp p
  | Complement t1 -> Format.fprintf fmt "Complement(%a)" pp t1
  | Union ts -> Format.fprintf fmt "Union(%a)" pp_list ts
  | Intersect ts -> Format.fprintf fmt "Intersect(%a)" pp_list ts
  | Find (t1, p, f) -> Format.fprintf fmt "Find(%a, %a, %a)" pp t1 Pred.pp p Func.pp f
  | Filter (t1, p) -> Format.fprintf fmt "Filter(%a, %a)" pp t1 Pred.pp p

and pp_list fmt ts =
  Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") pp fmt ts

let to_string t = Format.asprintf "%a" pp t
