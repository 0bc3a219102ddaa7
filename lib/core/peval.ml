module Simage = Imageeye_symbolic.Simage
module Universe = Imageeye_symbolic.Universe
module Form = Form

module Cache = struct
  type t = {
    values : Simage.t Form.Tbl.t;
    mutable memo_hits : int;
    mutable value_hits : int;
    mutable value_misses : int;
    mutable evaluated : int;
  }

  let create () =
    {
      values = Form.Tbl.create 1024;
      memo_hits = 0;
      value_hits = 0;
      value_misses = 0;
      evaluated = 0;
    }
end

exception Inconsistent

let default_eval_is u phi = Simage.filter (fun ent -> Pred.entails ent phi) (Simage.full u)

let run ?eval_is ?cache ~check_goals ~collapse u (p : Partial.t) =
  let eval_is = match eval_is with Some f -> f | None -> default_eval_is u in
  let tick () =
    Eval.tick_node_evaluated ();
    match cache with
    | Some c -> c.Cache.evaluated <- c.Cache.evaluated + 1
    | None -> ()
  in
  (* Value cache for the operators whose semantics are worth sharing across
     candidates: keyed by the (canonical) form, so two distinct candidates
     containing the same subterm evaluate it once per search. *)
  let cached_op form compute =
    match cache with
    | None ->
        tick ();
        compute ()
    | Some c -> (
        match Form.Tbl.find_opt c.Cache.values form with
        | Some v ->
            c.Cache.value_hits <- c.Cache.value_hits + 1;
            v
        | None ->
            c.Cache.value_misses <- c.Cache.value_misses + 1;
            tick ();
            let v = compute () in
            Form.Tbl.add c.Cache.values form v;
            v)
  in
  (* Bottom-up walk returning the partially evaluated form plus, when the
     subtree is complete, its value.  With a cache, a node whose subtree was
     already evaluated during a previous [consider] of a candidate sharing
     it physically answers from its memo slot — the goal check is skipped
     because the memo is only written after the check passed and a node's
     goal annotation never changes. *)
  let rec go (p : Partial.t) : Form.t * Simage.t option =
    match cache with
    | Some c -> (
        match Partial.memo p with
        | Some m ->
            c.Cache.memo_hits <- c.Cache.memo_hits + 1;
            (m.Partial.mform, Some m.Partial.mvalue)
        | None -> eval_node p)
    | None -> eval_node p
  and eval_node (p : Partial.t) : Form.t * Simage.t option =
    let complete form value =
      if check_goals && not (Goal.consistent value p.Partial.goal) then raise Inconsistent;
      let form = if collapse then Form.Const value else form in
      (match cache with
      | Some _ -> Partial.set_memo p ~form ~value
      | None -> ());
      (form, Some value)
    in
    match p.node with
    | Partial.Hole -> (Form.Hole, None)
    | Partial.All ->
        tick ();
        complete Form.All (Simage.full u)
    | Partial.Is phi ->
        (* [eval_is] is already table-backed by the engine (Facts.compute),
           so an extra form-keyed layer would only duplicate it. *)
        tick ();
        complete (Form.Is phi) (eval_is phi)
    | Partial.Complement q -> (
        let fq, vq = go q in
        let form = Form.Complement fq in
        match vq with
        | Some v -> complete form (cached_op form (fun () -> Simage.complement v))
        | None -> (form, None))
    | Partial.Union qs -> (
        let results = List.map go qs in
        let forms = List.map fst results in
        match all_values results with
        | Some vs ->
            tick ();
            complete (Form.Union forms) (Simage.union_all u vs)
        | None -> (Form.Union forms, None))
    | Partial.Intersect qs -> (
        let results = List.map go qs in
        let forms = List.map fst results in
        match all_values results with
        | Some vs ->
            tick ();
            complete (Form.Intersect forms) (Simage.inter_all u vs)
        | None -> (Form.Intersect forms, None))
    | Partial.Find (q, phi, f) -> (
        let fq, vq = go q in
        let form = Form.Find (fq, phi, f) in
        match vq with
        | Some v -> complete form (cached_op form (fun () -> Eval.find_from u v phi f))
        | None -> (form, None))
    | Partial.Filter (q, phi) -> (
        let fq, vq = go q in
        let form = Form.Filter (fq, phi) in
        match vq with
        | Some v -> complete form (cached_op form (fun () -> Eval.filter_from u v phi))
        | None -> (form, None))
  and all_values results =
    List.fold_right
      (fun (_, v) acc ->
        match (v, acc) with Some v, Some vs -> Some (v :: vs) | _ -> None)
      results (Some [])
  in
  match go p with form, _ -> Some form | exception Inconsistent -> None

let value_of_form = function Form.Const v -> Some v | _ -> None

let value_of_complete u p =
  match Partial.to_extractor p with
  | Some e -> Some (Eval.extractor u e)
  | None -> None
