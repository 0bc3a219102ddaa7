module Simage = Imageeye_symbolic.Simage
module Universe = Imageeye_symbolic.Universe
module Bitset = Imageeye_util.Bitset

let meet (a : Goal.t) (b : Goal.t) =
  Goal.make
    ~under:(Simage.union a.Goal.under b.Goal.under)
    ~over:(Simage.inter a.Goal.over b.Goal.over)

let feasible (g : Goal.t) = Simage.subset g.Goal.under g.Goal.over

let default_max_iterations = 8

type env = {
  u : Universe.t;
  reach_find : Pred.t -> Func.t -> Simage.t;
  reach_filter : Pred.t -> Simage.t;
  max_iterations : int;
  mutable analyses : int;
  mutable iterations : int;
  mutable tightened : int;
  mutable cap_hits : int;
}

let make_env ?(max_iterations = default_max_iterations) ?reach_find ?reach_filter u =
  let full = Simage.full u in
  {
    u;
    reach_find = (match reach_find with Some f -> f | None -> fun _ _ -> full);
    reach_filter = (match reach_filter with Some f -> f | None -> fun _ -> full);
    max_iterations;
    analyses = 0;
    iterations = 0;
    tightened = 0;
    cap_hits = 0;
  }

type result = Feasible | Infeasible

(* The analysis works on an ephemeral mirror of the candidate, built in
   lockstep from its [Partial.t] (shape and goal annotations) and its
   partially evaluated [Form.t] (whose collapsed constants are the exact
   forward values of complete subtrees).  Each node holds a forward
   interval [fwd_under, fwd_over] and a backward one [bwd_under,
   bwd_over] over the whole universe.  Intervals are raw bitsets: the
   fixpoint churns through many intermediate sets per candidate, and only
   the final tightened hole goals are worth interning. *)
type node = {
  shape : shape;
  mutable fwd_under : Bitset.t;
  mutable fwd_over : Bitset.t;
  mutable bwd_under : Bitset.t;
  mutable bwd_over : Bitset.t;
}

and shape =
  | Value of Bitset.t
  | Hole of Partial.t  (** the candidate's hole, the key of its tight entry *)
  | Complement of node
  | Union of node list
  | Intersect of node list
  | Find of node * Bitset.t  (** reach of the parameterization *)
  | Filter of node * Bitset.t

exception Mismatch
exception Dead

let analyze env (root : Partial.t) (form : Form.t) =
  env.analyses <- env.analyses + 1;
  let n = Universe.size env.u in
  let empty = Bitset.create n and full = Bitset.full n in
  let inherited = Partial.tight root in
  let mk (p : Partial.t) shape =
    (* Holes seed their backward interval from the tight map a previous
       analysis recorded on an ancestor candidate: completions of this
       candidate are a subset of the ancestor's, so its hole constraints
       still hold. *)
    let gu, go =
      let g = p.Partial.goal in
      let gu = Simage.bitset g.Goal.under and go = Simage.bitset g.Goal.over in
      match p.Partial.node with
      | Partial.Hole -> (
          match List.assq_opt p inherited with
          | Some (t : Goal.t) ->
              ( Bitset.union gu (Simage.bitset t.Goal.under),
                Bitset.inter go (Simage.bitset t.Goal.over) )
          | None -> (gu, go))
      | _ -> (gu, go)
    in
    { shape; fwd_under = empty; fwd_over = full; bwd_under = gu; bwd_over = go }
  in
  let rec build (p : Partial.t) (f : Form.t) =
    match Peval.value_of_form f with
    | Some v -> mk p (Value (Simage.bitset v))
    | None -> (
        match (p.Partial.node, f) with
        | Partial.Hole, Form.Hole -> mk p (Hole p)
        | Partial.Complement q, Form.Complement fq -> mk p (Complement (build q fq))
        | Partial.Union qs, Form.Union fqs when List.length qs = List.length fqs ->
            mk p (Union (List.map2 build qs fqs))
        | Partial.Intersect qs, Form.Intersect fqs when List.length qs = List.length fqs
          ->
            mk p (Intersect (List.map2 build qs fqs))
        | Partial.Find (q, pr, fn), Form.Find (fq, _, _) ->
            mk p (Find (build q fq, Simage.bitset (env.reach_find pr fn)))
        | Partial.Filter (q, pr), Form.Filter (fq, _) ->
            mk p (Filter (build q fq, Simage.bitset (env.reach_filter pr)))
        | _ -> raise Mismatch)
  in
  (* Meet freshly computed forward bounds with the node's backward
     interval; an empty meet means no completion consistent with the goals
     can produce this node's value. *)
  let set_fwd nd u o =
    let u = if Bitset.subset nd.bwd_under u then u else Bitset.union u nd.bwd_under in
    let o = if Bitset.subset o nd.bwd_over then o else Bitset.inter o nd.bwd_over in
    if not (Bitset.subset u o) then raise Dead;
    nd.fwd_under <- u;
    nd.fwd_over <- o
  in
  let rec forward nd =
    match nd.shape with
    | Value v -> set_fwd nd v v
    | Hole _ -> set_fwd nd nd.bwd_under nd.bwd_over
    | Complement c ->
        forward c;
        set_fwd nd (Bitset.complement c.fwd_over) (Bitset.complement c.fwd_under)
    | Union cs ->
        List.iter forward cs;
        set_fwd nd
          (List.fold_left (fun acc c -> Bitset.union acc c.fwd_under) empty cs)
          (List.fold_left (fun acc c -> Bitset.union acc c.fwd_over) empty cs)
    | Intersect cs ->
        List.iter forward cs;
        set_fwd nd
          (List.fold_left (fun acc c -> Bitset.inter acc c.fwd_under) full cs)
          (List.fold_left (fun acc c -> Bitset.inter acc c.fwd_over) full cs)
    | Find (c, reach) | Filter (c, reach) ->
        forward c;
        (* Nothing comes out of a surely empty input. *)
        set_fwd nd empty (if Bitset.is_empty c.fwd_over then empty else reach)
  in
  (* Meet [under, over] into a child's backward interval; physical
     equality of the untouched bitsets doubles as the cheap change test
     driving the fixpoint. *)
  let tighten changed nd ~under ~over =
    let bu =
      if Bitset.subset under nd.bwd_under then nd.bwd_under
      else Bitset.union nd.bwd_under under
    in
    let bo =
      if Bitset.subset nd.bwd_over over then nd.bwd_over
      else Bitset.inter nd.bwd_over over
    in
    if not (bu == nd.bwd_under && bo == nd.bwd_over) then begin
      nd.bwd_under <- bu;
      nd.bwd_over <- bo;
      changed := true;
      if not (Bitset.subset bu bo) then raise Dead
    end
  in
  let rec backward changed nd =
    (* Refine this node with whatever the parent just pushed into its
       backward interval, so descendants see the tightest bounds. *)
    let gu =
      if Bitset.subset nd.bwd_under nd.fwd_under then nd.fwd_under
      else Bitset.union nd.fwd_under nd.bwd_under
    in
    let go =
      if Bitset.subset nd.fwd_over nd.bwd_over then nd.fwd_over
      else Bitset.inter nd.fwd_over nd.bwd_over
    in
    if not (Bitset.subset gu go) then raise Dead;
    nd.fwd_under <- gu;
    nd.fwd_over <- go;
    match nd.shape with
    | Value _ | Hole _ -> ()
    | Complement c ->
        tighten changed c ~under:(Bitset.complement go) ~over:(Bitset.complement gu);
        backward changed c
    | Union cs ->
        List.iter
          (fun c ->
            (* Whatever the siblings cannot possibly produce, this child
               must: under = g⁻ \ ⋃_{j≠i} overⱼ. *)
            let sib =
              List.fold_left
                (fun acc c' -> if c' == c then acc else Bitset.union acc c'.fwd_over)
                empty cs
            in
            let under = if Bitset.disjoint gu sib then gu else Bitset.diff gu sib in
            tighten changed c ~under ~over:go)
          cs;
        List.iter (backward changed) cs
    | Intersect cs ->
        List.iter
          (fun c ->
            (* Objects every sibling surely keeps but the node must drop
               can only be dropped here: over = ∁((⋂_{j≠i} underⱼ) \ g⁺). *)
            let sib =
              List.fold_left
                (fun acc c' -> if c' == c then acc else Bitset.inter acc c'.fwd_under)
                full cs
            in
            let over =
              if Bitset.subset sib go then full
              else Bitset.complement (Bitset.diff sib go)
            in
            tighten changed c ~under:gu ~over)
          cs;
        List.iter (backward changed) cs
    | Find (c, _) | Filter (c, _) ->
        (* Output constraints say nothing about which input produced a
           match; the node-level meet (tightened under vs. reach) already
           happened in [set_fwd]. *)
        backward changed c
  in
  (* Record the tightened goal of *every* hole whose final backward
     interval beats its annotation, keyed by the hole's physical node. *)
  let record_tight tree =
    let entries = ref [] in
    let rec go nd =
      match nd.shape with
      | Hole h ->
          let g = h.Partial.goal in
          if
            not
              (Bitset.equal nd.bwd_under (Simage.bitset g.Goal.under)
              && Bitset.equal nd.bwd_over (Simage.bitset g.Goal.over))
          then
            entries :=
              ( h,
                Goal.make
                  ~under:(Simage.of_bitset env.u nd.bwd_under)
                  ~over:(Simage.of_bitset env.u nd.bwd_over) )
              :: !entries
      | Value _ -> ()
      | Complement c | Find (c, _) | Filter (c, _) -> go c
      | Union cs | Intersect cs -> List.iter go cs
    in
    go tree;
    if !entries <> [] then begin
      Partial.set_tight root (List.rev !entries);
      env.tightened <- env.tightened + 1
    end
  in
  match build root form with
  | exception Mismatch -> Feasible (* shape we cannot mirror: admit, never guess *)
  | tree -> (
      try
        let rec loop i =
          env.iterations <- env.iterations + 1;
          let changed = ref false in
          forward tree;
          backward changed tree;
          if !changed then
            if i < env.max_iterations then loop (i + 1)
            else env.cap_hits <- env.cap_hits + 1
        in
        loop 1;
        record_tight tree;
        Feasible
      with Dead -> Infeasible)
