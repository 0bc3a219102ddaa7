(* The in-place forward-backward fixpoint ([Absint.analyze], intervals
   updated word by word in the env's buffer) against the allocating
   implementation it replaced, which is kept here as the reference: one
   fresh bitset per transfer, and a child's backward interval counted as
   changed when its meet is not physically the old set.  Both run on
   random candidates over universes that straddle the 63-bit words of a
   set, with and without inherited tight maps and with the iteration
   cap at 1 and at its default, and must give the same verdict, the same
   counter deltas and the same tight map. *)

module Lang = Imageeye_core.Lang
module Goal = Imageeye_core.Goal
module Partial = Imageeye_core.Partial
module Peval = Imageeye_core.Peval
module Form = Peval.Form
module Eval = Imageeye_core.Eval
module Absint = Imageeye_core.Absint
module Universe = Imageeye_symbolic.Universe
module Simage = Imageeye_symbolic.Simage
module Bitset = Imageeye_util.Bitset
open Test_support

(* ---------- Reference: the allocating analysis ---------- *)

type node = {
  shape : shape;
  mutable fwd_under : Bitset.t;
  mutable fwd_over : Bitset.t;
  mutable bwd_under : Bitset.t;
  mutable bwd_over : Bitset.t;
}

and shape =
  | Value of Bitset.t
  | Hole of Partial.t
  | Complement of node
  | Union of node list
  | Intersect of node list
  | Find of node * Bitset.t
  | Filter of node * Bitset.t

exception Mismatch
exception Dead

let reference_analyze (env : Absint.env) (root : Partial.t) (form : Form.t) =
  env.analyses <- env.analyses + 1;
  let n = Universe.size env.u in
  let empty = Bitset.create n and full = Bitset.full n in
  let inherited = Partial.tight root in
  let mk (p : Partial.t) shape =
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
        set_fwd nd empty (if Bitset.is_empty c.fwd_over then empty else reach)
  in
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
    | Find (c, _) | Filter (c, _) -> backward changed c
  in
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
  | exception Mismatch -> Absint.Feasible
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
        Absint.Feasible
      with Dead -> Absint.Infeasible)

(* ---------- Random candidates ---------- *)

let rec holes (p : Partial.t) =
  match p.Partial.node with
  | Partial.Hole -> [ p ]
  | Partial.All | Partial.Is _ -> []
  | Partial.Complement q | Partial.Find (q, _, _) | Partial.Filter (q, _) -> holes q
  | Partial.Union qs | Partial.Intersect qs -> List.concat_map holes qs

let subset_gen u =
  QCheck2.Gen.(
    list_repeat (Universe.size u) bool >|= fun keep ->
    Simage.of_ids u (List.concat (List.mapi (fun i k -> if k then [ i ] else []) keep)))

(* A target the candidate may reach (the value of a small extractor) or
   an arbitrary set. *)
let target_gen u =
  QCheck2.Gen.(
    let extractor =
      let* p = oneofl pool_preds and* q = oneofl pool_preds in
      let* f = oneofl Func.all in
      oneofl
        [
          Lang.Is p;
          Lang.Complement (Lang.Is p);
          Lang.Find (Lang.Is q, p, f);
          Lang.Filter (Lang.All, p);
          Lang.Union [ Lang.Is p; Lang.Is q ];
          Lang.Intersect [ Lang.Is p; Lang.Complement (Lang.Is q) ];
        ]
    in
    frequency [ (3, extractor >|= Eval.extractor u); (1, subset_gen u) ])

(* An inherited tight map: none, random intervals on some holes (each
   feasible on its own, though not always against the hole's goal), or
   the map the reference records on the candidate itself. *)
type seed = No_map | Random_map of (Partial.t * Goal.t) list | Self_map

let seed_gen u p =
  QCheck2.Gen.(
    let entry h =
      let* keep = bool in
      let* over = subset_gen u and* some = subset_gen u in
      let under = Simage.inter over some in
      return (if keep then Some (h, Goal.make ~under ~over) else None)
    in
    frequency
      [
        (2, return No_map);
        ( 1,
          flatten_l (List.map entry (holes p)) >|= fun es ->
          Random_map (List.filter_map Fun.id es) );
        (1, return Self_map);
      ])

let env_of u max_iterations =
  Absint.make_env ~max_iterations
    ~reach_find:(fun p f -> Eval.extractor u (Lang.Find (Lang.All, p, f)))
    ~reach_filter:(fun p -> Eval.extractor u (Lang.Filter (Lang.All, p)))
    u

let counters (env : Absint.env) =
  (env.analyses, env.iterations, env.tightened, env.cap_hits)

let same_map a b =
  List.length a = List.length b
  && List.for_all2 (fun (h, g) (h', g') -> h == h' && Goal.equal g g') a b

let pp_counters (a, i, t, c) =
  Printf.sprintf "analyses %d, iterations %d, tightened %d, cap hits %d" a i t c

let equivalence_prop (label, universe_gen) =
  QCheck2.Test.make ~name:(Printf.sprintf "%s in-place = reference" label) ~count:300
    QCheck2.Gen.(
      let* u = universe_gen in
      let* target = target_gen u in
      let* p = partial_gen ~all_shapes:true u target in
      let* seed = seed_gen u p in
      let* check_goals = bool
      and* collapse = frequency [ (5, return true); (1, return false) ] in
      let* max_iterations = oneofl [ 1; Absint.default_max_iterations ] in
      return (u, p, seed, check_goals, collapse, max_iterations))
    (fun (u, p, seed, check_goals, collapse, max_iterations) ->
      match Peval.run ~check_goals ~collapse u p with
      | None -> true
      | Some form ->
          let initial =
            match seed with
            | No_map -> []
            | Random_map m -> m
            | Self_map ->
                Partial.set_tight p [];
                ignore (reference_analyze (env_of u max_iterations) p form);
                Partial.tight p
          in
          let run analyze =
            Partial.set_tight p initial;
            let env = env_of u max_iterations in
            let verdict = analyze env p form in
            (verdict, counters env, Partial.tight p)
          in
          let rv, rc, rmap = run reference_analyze in
          let nv, nc, nmap = run Absint.analyze in
          if rv <> nv then QCheck2.Test.fail_report "verdicts differ"
          else if rc <> nc then
            QCheck2.Test.fail_reportf "counters differ: reference %s, in place %s"
              (pp_counters rc) (pp_counters nc)
          else if not (same_map rmap nmap) then
            QCheck2.Test.fail_reportf "tight maps differ (%d vs %d entries)"
              (List.length rmap) (List.length nmap)
          else true)

let universes =
  ("small", QCheck2.Gen.oneof [ universe_gen; multi_image_universe_gen ])
  :: List.map
       (fun n -> (Printf.sprintf "n=%d" n, sized_universe_gen n))
       [ 1; 62; 63; 64; 126; 127 ]

(* One env analyzes many candidates in a row, as in a search: the buffer
   it reuses and grows must not leak one candidate's intervals into the
   next. *)
let shared_env_prop =
  QCheck2.Test.make ~name:"one env over many candidates" ~count:100
    QCheck2.Gen.(
      let* u = sized_universe_gen 64 in
      let* target = target_gen u in
      let* ps = list_size (int_range 1 12) (partial_gen ~all_shapes:true u target) in
      return (u, ps))
    (fun (u, ps) ->
      let shared = env_of u Absint.default_max_iterations in
      List.for_all
        (fun p ->
          match Peval.run ~check_goals:false ~collapse:true u p with
          | None -> true
          | Some form ->
              Partial.set_tight p [];
              let expected =
                reference_analyze (env_of u Absint.default_max_iterations) p form
              in
              let rmap = Partial.tight p in
              Partial.set_tight p [];
              Absint.analyze shared p form = expected && same_map rmap (Partial.tight p))
        ps)

let () =
  Alcotest.run "absint"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          (List.map equivalence_prop universes @ [ shared_env_prop ]) );
    ]
