module Simage = Imageeye_symbolic.Simage
module Universe = Imageeye_symbolic.Universe
module Bitset = Imageeye_util.Bitset

let meet (a : Goal.t) (b : Goal.t) =
  Goal.make
    ~under:(Simage.union a.Goal.under b.Goal.under)
    ~over:(Simage.inter a.Goal.over b.Goal.over)

let feasible (g : Goal.t) = Simage.subset g.Goal.under g.Goal.over

let default_max_iterations = 8

(* Demo universes hold at most a handful of images (a session demonstrates
   on at most [max_rounds] of them), so per-image planes are cheap there.
   Past this many images the per-plane bookkeeping would dominate; fall
   back to a single whole-universe plane. *)
let max_planes = 64

type env = {
  u : Universe.t;
  reach_find : Pred.t -> Func.t -> Simage.t;
  reach_filter : Pred.t -> Simage.t;
  max_iterations : int;
  cardinality : bool;
  masks : Bitset.t array;
  msizes : int array;
  find_cache : (Pred.t * Func.t * int, Bitset.t) Hashtbl.t;
  filter_cache : (Pred.t * int, Bitset.t) Hashtbl.t;
  mutable analyses : int;
  mutable iterations : int;
  mutable tightened : int;
  mutable cap_hits : int;
  mutable card_kills : int;
}

let make_env ?(max_iterations = default_max_iterations) ?(per_image = true)
    ?(cardinality = true) ?demo_images ?reach_find ?reach_filter u =
  let full = Simage.full u in
  let n = Universe.size u in
  let masks =
    let imgs = Universe.image_ids u in
    let nimgs = List.length imgs in
    if not (per_image && nimgs > 1) then [| Bitset.full n |]
    else if nimgs <= max_planes then
      Array.of_list
        (List.map (fun img -> Bitset.of_list n (Universe.objects_of_image u img)) imgs)
    else
      (* Oversized universe (direct synthesis over a whole batch):
         per-image bookkeeping across hundreds of planes would dominate,
         but a plane per *demonstrated* image (there are at most
         [max_rounds] of those) plus one residual plane covering every
         other image keeps the pruning where the goals live.  Soundness
         is unchanged: each mask is still a union of whole images, and
         every DSL operator is image-local, so per-plane meets remain
         exact projections. *)
      match demo_images with
      | Some demos when demos <> [] && List.length demos < max_planes ->
          let demos =
            List.filter (fun img -> List.mem img imgs) (List.sort_uniq compare demos)
          in
          if demos = [] then [| Bitset.full n |]
          else begin
            let demo_masks =
              List.map (fun img -> Bitset.of_list n (Universe.objects_of_image u img)) demos
            in
            let residual =
              List.fold_left Bitset.diff (Bitset.full n) demo_masks
            in
            Array.of_list
              (demo_masks @ (if Bitset.is_empty residual then [] else [ residual ]))
          end
      | _ -> [| Bitset.full n |]
  in
  {
    u;
    reach_find = (match reach_find with Some f -> f | None -> fun _ _ -> full);
    reach_filter = (match reach_filter with Some f -> f | None -> fun _ -> full);
    max_iterations;
    cardinality;
    masks;
    msizes = Array.map Bitset.cardinal masks;
    find_cache = Hashtbl.create 64;
    filter_cache = Hashtbl.create 64;
    analyses = 0;
    iterations = 0;
    tightened = 0;
    cap_hits = 0;
    card_kills = 0;
  }

type result = Feasible | Infeasible

(* The analysis works on an ephemeral mirror of the candidate, built in
   lockstep from its [Partial.t] (shape and goal annotations) and its
   partially evaluated [Form.t] (whose collapsed constants are the exact
   forward values of complete subtrees).

   Intervals live in a *product* domain: every mirror node carries one
   plane per demo image (images partition the universe and every DSL
   operator is image-local — spatial relations and containment never
   cross images — so the concrete value of any subexpression restricted
   to an image depends only on its inputs restricted to that image).
   Each plane holds a bitset interval [fwd_under, fwd_over] /
   [bwd_under, bwd_over] relative to the image's object mask, plus a
   cardinality interval [clo, chi] on |value ∩ mask| that can express
   counting facts the bitsets cannot (a Find yields at most one output
   per input object; a Union of k singleton-bounded children covers at
   most k objects). *)
type plane = {
  mask : Bitset.t;
  msize : int;
  mutable fwd_under : Bitset.t;
  mutable fwd_over : Bitset.t;
  mutable bwd_under : Bitset.t;
  mutable bwd_over : Bitset.t;
  mutable clo : int;
  mutable chi : int;
  (* Popcount cache: [cu]/[co] are valid while [cu_for]/[co_for] is
     physically the current fwd bitset.  Bitsets are persistent, so an
     unchanged pointer means an unchanged count — and the fixpoint
     re-runs forward over every node each round, mostly without changing
     anything, so most refresh_card calls skip both popcounts. *)
  mutable cu_for : Bitset.t;
  mutable cu : int;
  mutable co_for : Bitset.t;
  mutable co : int;
}

type node = { src : Partial.t; shape : shape; planes : plane array }

and shape =
  | Value of Bitset.t
  | Hole
  | Complement of node
  | Union of node list
  | Intersect of node list
  | Find of node * Pred.t * Func.t
  | Filter of node * Pred.t

exception Mismatch
exception Dead
exception Dead_card

let analyze env (root : Partial.t) (form : Form.t) =
  env.analyses <- env.analyses + 1;
  let n = Universe.size env.u in
  let nplanes = Array.length env.masks in
  let empty = Bitset.create n in
  let restrict i b = if nplanes = 1 then b else Bitset.inter b env.masks.(i) in
  let reach_find_at pr fn i =
    let key = (pr, fn, i) in
    match Hashtbl.find_opt env.find_cache key with
    | Some b -> b
    | None ->
        let b = restrict i (Simage.bitset (env.reach_find pr fn)) in
        Hashtbl.add env.find_cache key b;
        b
  in
  let reach_filter_at pr i =
    let key = (pr, i) in
    match Hashtbl.find_opt env.filter_cache key with
    | Some b -> b
    | None ->
        let b = restrict i (Simage.bitset (env.reach_filter pr)) in
        Hashtbl.add env.filter_cache key b;
        b
  in
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
    {
      src = p;
      shape;
      planes =
        Array.init nplanes (fun i ->
            let mask = env.masks.(i) in
            {
              mask;
              msize = env.msizes.(i);
              fwd_under = empty;
              fwd_over = mask;
              bwd_under = restrict i gu;
              bwd_over = restrict i go;
              clo = 0;
              chi = env.msizes.(i);
              cu_for = empty;
              cu = 0;
              co_for = mask;
              co = env.msizes.(i);
            });
    }
  in
  let rec build (p : Partial.t) (f : Form.t) =
    match Peval.value_of_form f with
    | Some v -> mk p (Value (Simage.bitset v))
    | None -> (
        match (p.Partial.node, f) with
        | Partial.Hole, Form.Hole -> mk p Hole
        | Partial.Complement q, Form.Complement fq -> mk p (Complement (build q fq))
        | Partial.Union qs, Form.Union fqs when List.length qs = List.length fqs ->
            mk p (Union (List.map2 build qs fqs))
        | Partial.Intersect qs, Form.Intersect fqs when List.length qs = List.length fqs
          ->
            mk p (Intersect (List.map2 build qs fqs))
        | Partial.Find (q, pr, fn), Form.Find (fq, _, _) ->
            mk p (Find (build q fq, pr, fn))
        | Partial.Filter (q, pr), Form.Filter (fq, _) -> mk p (Filter (build q fq, pr))
        | _ -> raise Mismatch)
  in
  (* Meet the freshly computed forward bounds with the plane's backward
     interval; an empty meet means no completion consistent with the goals
     can produce this node's value on this image. *)
  let set_fwd pl u o =
    let u = if Bitset.subset pl.bwd_under u then u else Bitset.union u pl.bwd_under in
    let o = if Bitset.subset o pl.bwd_over then o else Bitset.inter o pl.bwd_over in
    if not (Bitset.subset u o) then raise Dead;
    (* Keep the old pointer when the recomputed set is equal: the fixpoint
       re-runs forward over every node each round, mostly reproducing the
       same sets from fresh allocations, and an unchanged pointer is what
       lets refresh_card's popcount cache hit. *)
    pl.fwd_under <-
      (if u == pl.fwd_under || Bitset.equal u pl.fwd_under then pl.fwd_under else u);
    pl.fwd_over <-
      (if o == pl.fwd_over || Bitset.equal o pl.fwd_over then pl.fwd_over else o)
  in
  (* Meet the operator's cardinality bounds [slo, shi] with the stored
     interval and the bounds the bitsets imply, then run the reduced-
     product step: a cardinality pinned to one end of the bitset interval
     forces the bitsets together. *)
  let refresh_card pl slo shi =
    if not (pl.cu_for == pl.fwd_under) then begin
      pl.cu_for <- pl.fwd_under;
      pl.cu <- Bitset.cardinal pl.fwd_under
    end;
    if not (pl.co_for == pl.fwd_over) then begin
      pl.co_for <- pl.fwd_over;
      pl.co <- Bitset.cardinal pl.fwd_over
    end;
    let cu = pl.cu and co = pl.co in
    let lo = max (max slo cu) pl.clo and hi = min (min shi co) pl.chi in
    if lo > hi then raise Dead_card;
    pl.clo <- lo;
    pl.chi <- hi;
    if hi = cu && co > cu then pl.fwd_over <- pl.fwd_under
    else if lo = co && cu < co then pl.fwd_under <- pl.fwd_over
  in
  let rec forward nd =
    match nd.shape with
    | Value v ->
        for i = 0 to nplanes - 1 do
          let pl = nd.planes.(i) in
          let v = restrict i v in
          set_fwd pl v v;
          if env.cardinality then refresh_card pl 0 pl.msize
        done
    | Hole ->
        for i = 0 to nplanes - 1 do
          let pl = nd.planes.(i) in
          set_fwd pl pl.bwd_under pl.bwd_over;
          if env.cardinality then refresh_card pl 0 pl.msize
        done
    | Complement c ->
        forward c;
        for i = 0 to nplanes - 1 do
          let pl = nd.planes.(i) and cp = c.planes.(i) in
          set_fwd pl (Bitset.diff pl.mask cp.fwd_over) (Bitset.diff pl.mask cp.fwd_under);
          if env.cardinality then refresh_card pl (pl.msize - cp.chi) (pl.msize - cp.clo)
        done
    | Union cs ->
        List.iter forward cs;
        for i = 0 to nplanes - 1 do
          let pl = nd.planes.(i) in
          set_fwd pl
            (List.fold_left (fun acc c -> Bitset.union acc c.planes.(i).fwd_under) empty cs)
            (List.fold_left (fun acc c -> Bitset.union acc c.planes.(i).fwd_over) empty cs);
          if env.cardinality then
            refresh_card pl
              (List.fold_left (fun acc c -> max acc c.planes.(i).clo) 0 cs)
              (min pl.msize (List.fold_left (fun acc c -> acc + c.planes.(i).chi) 0 cs))
        done
    | Intersect cs ->
        List.iter forward cs;
        for i = 0 to nplanes - 1 do
          let pl = nd.planes.(i) in
          set_fwd pl
            (List.fold_left (fun acc c -> Bitset.inter acc c.planes.(i).fwd_under) pl.mask cs)
            (List.fold_left (fun acc c -> Bitset.inter acc c.planes.(i).fwd_over) pl.mask cs);
          if env.cardinality then
            refresh_card pl 0
              (List.fold_left (fun acc c -> min acc c.planes.(i).chi) pl.msize cs)
        done
    | Find (c, pr, fn) ->
        forward c;
        for i = 0 to nplanes - 1 do
          let pl = nd.planes.(i) and cp = c.planes.(i) in
          let o = if Bitset.is_empty cp.fwd_over then empty else reach_find_at pr fn i in
          set_fwd pl empty o;
          (* find_from maps each input object to at most one first match,
             so |out ∩ img| ≤ |in ∩ img| — this is the bound that kills
             Union-of-Finds candidates chasing too many targets. *)
          if env.cardinality then refresh_card pl 0 cp.chi
        done
    | Filter (c, pr) ->
        forward c;
        for i = 0 to nplanes - 1 do
          let pl = nd.planes.(i) and cp = c.planes.(i) in
          let o = if Bitset.is_empty cp.fwd_over then empty else reach_filter_at pr i in
          set_fwd pl empty o;
          if env.cardinality then refresh_card pl 0 pl.msize
        done
  in
  (* Meet [under, over] into a child plane's backward interval; physical
     equality of the untouched bitsets doubles as the cheap change test
     driving the fixpoint. *)
  let tighten changed pl ~under ~over =
    let bu =
      if Bitset.subset under pl.bwd_under then pl.bwd_under
      else Bitset.union pl.bwd_under under
    in
    let bo =
      if Bitset.subset pl.bwd_over over then pl.bwd_over
      else Bitset.inter pl.bwd_over over
    in
    if not (bu == pl.bwd_under && bo == pl.bwd_over) then begin
      pl.bwd_under <- bu;
      pl.bwd_over <- bo;
      changed := true;
      if not (Bitset.subset bu bo) then raise Dead
    end
  in
  let tighten_card changed pl lo hi =
    if env.cardinality then begin
      let lo = max lo pl.clo and hi = min hi pl.chi in
      if lo > pl.clo || hi < pl.chi then begin
        pl.clo <- lo;
        pl.chi <- hi;
        changed := true;
        if lo > hi then raise Dead_card
      end
    end
  in
  let rec backward changed nd =
    (* Refine this node with whatever the parent just pushed into its
       backward intervals, so descendants see the tightest bounds. *)
    for i = 0 to nplanes - 1 do
      let pl = nd.planes.(i) in
      let gu =
        if Bitset.subset pl.bwd_under pl.fwd_under then pl.fwd_under
        else Bitset.union pl.fwd_under pl.bwd_under
      in
      let go =
        if Bitset.subset pl.fwd_over pl.bwd_over then pl.fwd_over
        else Bitset.inter pl.fwd_over pl.bwd_over
      in
      if not (Bitset.subset gu go) then raise Dead;
      pl.fwd_under <- gu;
      pl.fwd_over <- go;
      if env.cardinality then refresh_card pl 0 pl.msize
    done;
    match nd.shape with
    | Value _ | Hole -> ()
    | Complement c ->
        for i = 0 to nplanes - 1 do
          let pl = nd.planes.(i) and cp = c.planes.(i) in
          tighten changed cp
            ~under:(Bitset.diff pl.mask pl.fwd_over)
            ~over:(Bitset.diff pl.mask pl.fwd_under);
          tighten_card changed cp (pl.msize - pl.chi) (pl.msize - pl.clo)
        done;
        backward changed c
    | Union cs ->
        for i = 0 to nplanes - 1 do
          let pl = nd.planes.(i) in
          let gu = pl.fwd_under and go = pl.fwd_over in
          List.iter
            (fun c ->
              let cp = c.planes.(i) in
              (* Whatever the siblings cannot possibly produce, this child
                 must: under = g⁻ \ ⋃_{j≠i} overⱼ.  Counting-wise, the
                 siblings supply at most Σ_{j≠i} chiⱼ of the clo objects
                 the union needs, and the child contributes at most chi. *)
              let sib =
                List.fold_left
                  (fun acc c' ->
                    if c' == c then acc else Bitset.union acc c'.planes.(i).fwd_over)
                  empty cs
              in
              let under = if Bitset.disjoint gu sib then gu else Bitset.diff gu sib in
              tighten changed cp ~under ~over:go;
              let sib_chi =
                List.fold_left
                  (fun acc c' -> if c' == c then acc else acc + c'.planes.(i).chi)
                  0 cs
              in
              tighten_card changed cp (pl.clo - sib_chi) pl.chi)
            cs
        done;
        List.iter (backward changed) cs
    | Intersect cs ->
        for i = 0 to nplanes - 1 do
          let pl = nd.planes.(i) in
          let gu = pl.fwd_under and go = pl.fwd_over in
          List.iter
            (fun c ->
              let cp = c.planes.(i) in
              (* Objects every sibling surely keeps but the node must drop
                 can only be dropped here: over = mask \ ((⋂_{j≠i} underⱼ) \ g⁺).
                 Counting-wise the child keeps at least the clo objects the
                 intersection needs. *)
              let sib =
                List.fold_left
                  (fun acc c' ->
                    if c' == c then acc else Bitset.inter acc c'.planes.(i).fwd_under)
                  pl.mask cs
              in
              let over =
                if Bitset.subset sib go then pl.mask
                else Bitset.diff pl.mask (Bitset.diff sib go)
              in
              tighten changed cp ~under:gu ~over;
              tighten_card changed cp pl.clo cp.msize)
            cs
        done;
        List.iter (backward changed) cs
    | Find (c, _, _) ->
        (* Output constraints say nothing about which input produced a
           match, but each output needs a distinct input: |in| ≥ |out|. *)
        for i = 0 to nplanes - 1 do
          tighten_card changed c.planes.(i) nd.planes.(i).clo c.planes.(i).msize
        done;
        backward changed c
    | Filter (c, _) ->
        (* A non-empty filter output needs at least one input container. *)
        for i = 0 to nplanes - 1 do
          tighten_card changed c.planes.(i)
            (if nd.planes.(i).clo > 0 then 1 else 0)
            c.planes.(i).msize
        done;
        backward changed c
  in
  let holes tree =
    let acc = ref [] in
    let rec go nd =
      match nd.shape with
      | Hole -> acc := nd :: !acc
      | Value _ -> ()
      | Complement c | Find (c, _, _) | Filter (c, _) -> go c
      | Union cs | Intersect cs -> List.iter go cs
    in
    go tree;
    List.rev !acc
  in
  (* Record the tightened goal of *every* hole whose final interval beats
     its annotation, keyed by the hole's physical node.  Planes partition
     the universe, so the global interval is the per-plane union.  The
     forward fields are read, not the backward ones: for a hole, forward
     is the backward interval met with the cardinality reduction (e.g. a
     pinned singleton), which is strictly tighter and equally sound — a
     solving completion's value must respect the count bounds too. *)
  let record_tight tree =
    let entries =
      List.filter_map
        (fun h ->
          let bu =
            Array.fold_left (fun acc pl -> Bitset.union acc pl.fwd_under) empty h.planes
          in
          let bo =
            Array.fold_left (fun acc pl -> Bitset.union acc pl.fwd_over) empty h.planes
          in
          let g = h.src.Partial.goal in
          if
            Bitset.equal bu (Simage.bitset g.Goal.under)
            && Bitset.equal bo (Simage.bitset g.Goal.over)
          then None
          else
            Some
              ( h.src,
                Goal.make
                  ~under:(Simage.of_bitset env.u bu)
                  ~over:(Simage.of_bitset env.u bo) ))
        (holes tree)
    in
    if entries <> [] then begin
      Partial.set_tight root entries;
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
      with
      | Dead -> Infeasible
      | Dead_card ->
          env.card_kills <- env.card_kills + 1;
          Infeasible)
