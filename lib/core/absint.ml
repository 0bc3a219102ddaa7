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

   Intervals live in a *product* domain with one plane per demo image
   (images partition the universe and every DSL operator is image-local —
   spatial relations and containment never cross images — so the concrete
   value of any subexpression restricted to an image depends only on its
   inputs restricted to that image).  Each node holds a bitset interval
   [fwd_under, fwd_over] / [bwd_under, bwd_over] and a cardinality
   interval [clo.(i), chi.(i)] on |value ∩ mask_i| per plane, which can
   express counting facts the bitsets cannot (a Find yields at most one
   output per input object; a Union of k singleton-bounded children
   covers at most k objects).

   The bitset bounds are stored whole-universe: since the masks partition
   the universe, the plane-i interval is the whole one met with mask i,
   and union, intersection and complement act on every plane at once.
   Planes are visited one by one only where they differ: the cardinality
   transfers, the reduced-product pins, and the Find/Filter rule for an
   input that is empty on a plane. *)
type node = {
  src : Partial.t;
  shape : shape;
  mutable fwd_under : Bitset.t;
  mutable fwd_over : Bitset.t;
  mutable bwd_under : Bitset.t;
  mutable bwd_over : Bitset.t;
  clo : int array;
  chi : int array;
  (* Per-plane popcount caches: [cu]/[co] hold |fwd ∩ mask_i| while
     [cu_for]/[co_for] is physically the current fwd bitset.  Bitsets are
     persistent, so an unchanged pointer means unchanged counts — and the
     fixpoint re-runs forward over every node each round, mostly without
     changing anything, so most refreshes skip the popcounts. *)
  mutable cu_for : Bitset.t;
  cu : int array;
  mutable co_for : Bitset.t;
  co : int array;
}

and shape =
  | Value of Bitset.t
  | Hole
  | Complement of node
  | Union of node list
  | Intersect of node list
  | Find of node * Bitset.t  (** reach of the parameterization *)
  | Filter of node * Bitset.t

exception Mismatch
exception Dead
exception Dead_card

let analyze env (root : Partial.t) (form : Form.t) =
  env.analyses <- env.analyses + 1;
  let n = Universe.size env.u in
  let masks = env.masks and msizes = env.msizes in
  let nplanes = Array.length masks in
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
    {
      src = p;
      shape;
      fwd_under = empty;
      fwd_over = full;
      bwd_under = gu;
      bwd_over = go;
      clo = Array.make nplanes 0;
      chi = Array.copy msizes;
      cu_for = empty;
      cu = Array.make nplanes 0;
      co_for = full;
      co = Array.copy msizes;
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
            mk p (Find (build q fq, Simage.bitset (env.reach_find pr fn)))
        | Partial.Filter (q, pr), Form.Filter (fq, _) ->
            mk p (Filter (build q fq, Simage.bitset (env.reach_filter pr)))
        | _ -> raise Mismatch)
  in
  (* Operator cardinality bounds of the node being refreshed, one per
     plane: filled by each transfer, then read by [settle]. *)
  let slo = Array.make nplanes 0 and shi = Array.make nplanes 0 in
  let no_card_bounds () =
    Array.fill slo 0 nplanes 0;
    Array.blit msizes 0 shi 0 nplanes
  in
  let sync_counts nd =
    if not (nd.cu_for == nd.fwd_under) then begin
      nd.cu_for <- nd.fwd_under;
      for i = 0 to nplanes - 1 do
        nd.cu.(i) <- Bitset.cardinal_inter nd.fwd_under masks.(i)
      done
    end;
    if not (nd.co_for == nd.fwd_over) then begin
      nd.co_for <- nd.fwd_over;
      for i = 0 to nplanes - 1 do
        nd.co.(i) <- Bitset.cardinal_inter nd.fwd_over masks.(i)
      done
    end
  in
  (* Meet plane [i]'s operator bounds [slo.(i), shi.(i)] with the stored
     interval and the bounds the bitsets imply, then run the reduced-
     product step: a cardinality pinned to one end of the plane's bitset
     interval forces the bitsets together on that plane.  A pin keeps the
     popcount caches valid: the other planes are untouched. *)
  let refresh_card nd i =
    sync_counts nd;
    let cu = nd.cu.(i) and co = nd.co.(i) in
    let lo = max (max slo.(i) cu) nd.clo.(i) and hi = min (min shi.(i) co) nd.chi.(i) in
    if lo > hi then raise Dead_card;
    nd.clo.(i) <- lo;
    nd.chi.(i) <- hi;
    if hi = cu && co > cu then begin
      nd.fwd_over <-
        (if nplanes = 1 then nd.fwd_under
         else Bitset.splice masks.(i) ~inside:nd.fwd_under ~outside:nd.fwd_over);
      nd.co_for <- nd.fwd_over;
      nd.co.(i) <- cu
    end
    else if lo = co && cu < co then begin
      nd.fwd_under <-
        (if nplanes = 1 then nd.fwd_over
         else Bitset.splice masks.(i) ~inside:nd.fwd_over ~outside:nd.fwd_under);
      nd.cu_for <- nd.fwd_under;
      nd.cu.(i) <- co
    end
  in
  (* Plane by plane, in order: a plane whose bitset interval is empty
     kills the candidate, else its cardinality is refreshed (which may kill
     it on counting grounds).  [ok] says the whole-universe interval is
     non-empty, so no plane's is and only the counting runs; when it is
     false, some plane is empty because the masks cover the universe. *)
  let settle nd ok =
    for i = 0 to nplanes - 1 do
      if (not ok) && not (Bitset.subset_on masks.(i) nd.fwd_under nd.fwd_over) then
        raise Dead;
      if env.cardinality then refresh_card nd i
    done
  in
  (* Meet freshly computed forward bounds with the node's backward
     interval and store them; an empty meet on a plane means no
     completion consistent with the goals can produce this node's value
     on that image. *)
  let set_fwd nd u o =
    let u = if Bitset.subset nd.bwd_under u then u else Bitset.union u nd.bwd_under in
    let o = if Bitset.subset o nd.bwd_over then o else Bitset.inter o nd.bwd_over in
    (* Keep the old pointer when the recomputed set is equal: the fixpoint
       re-runs forward over every node each round, mostly reproducing the
       same sets from fresh allocations, and an unchanged pointer is what
       lets the popcount caches hit. *)
    nd.fwd_under <-
      (if u == nd.fwd_under || Bitset.equal u nd.fwd_under then nd.fwd_under else u);
    nd.fwd_over <-
      (if o == nd.fwd_over || Bitset.equal o nd.fwd_over then nd.fwd_over else o);
    settle nd (Bitset.subset u o)
  in
  (* Find/Filter output nothing on a plane where their input is surely
     empty. *)
  let gate_reach c reach =
    if Bitset.is_empty c.fwd_over then empty
    else if nplanes = 1 then reach
    else begin
      let r = ref reach in
      for i = 0 to nplanes - 1 do
        if Bitset.disjoint c.fwd_over masks.(i) && not (Bitset.disjoint !r masks.(i)) then
          r := Bitset.diff !r masks.(i)
      done;
      !r
    end
  in
  let rec forward nd =
    match nd.shape with
    | Value v ->
        no_card_bounds ();
        set_fwd nd v v
    | Hole ->
        no_card_bounds ();
        set_fwd nd nd.bwd_under nd.bwd_over
    | Complement c ->
        forward c;
        for i = 0 to nplanes - 1 do
          slo.(i) <- msizes.(i) - c.chi.(i);
          shi.(i) <- msizes.(i) - c.clo.(i)
        done;
        set_fwd nd (Bitset.complement c.fwd_over) (Bitset.complement c.fwd_under)
    | Union cs ->
        List.iter forward cs;
        for i = 0 to nplanes - 1 do
          slo.(i) <- List.fold_left (fun acc c -> max acc c.clo.(i)) 0 cs;
          shi.(i) <- min msizes.(i) (List.fold_left (fun acc c -> acc + c.chi.(i)) 0 cs)
        done;
        set_fwd nd
          (List.fold_left (fun acc c -> Bitset.union acc c.fwd_under) empty cs)
          (List.fold_left (fun acc c -> Bitset.union acc c.fwd_over) empty cs)
    | Intersect cs ->
        List.iter forward cs;
        for i = 0 to nplanes - 1 do
          slo.(i) <- 0;
          shi.(i) <- List.fold_left (fun acc c -> min acc c.chi.(i)) msizes.(i) cs
        done;
        set_fwd nd
          (List.fold_left (fun acc c -> Bitset.inter acc c.fwd_under) full cs)
          (List.fold_left (fun acc c -> Bitset.inter acc c.fwd_over) full cs)
    | Find (c, reach) ->
        forward c;
        (* find_from maps each input object to at most one first match,
           so |out ∩ img| ≤ |in ∩ img| — this is the bound that kills
           Union-of-Finds candidates chasing too many targets. *)
        for i = 0 to nplanes - 1 do
          slo.(i) <- 0;
          shi.(i) <- c.chi.(i)
        done;
        set_fwd nd empty (gate_reach c reach)
    | Filter (c, reach) ->
        forward c;
        no_card_bounds ();
        set_fwd nd empty (gate_reach c reach)
  in
  (* Meet [under, over] into a child's backward interval; physical
     equality of the untouched bitsets doubles as the cheap change test
     driving the fixpoint.  Returns whether the interval is non-empty. *)
  let tighten changed nd ~under ~over =
    let bu =
      if Bitset.subset under nd.bwd_under then nd.bwd_under
      else Bitset.union nd.bwd_under under
    in
    let bo =
      if Bitset.subset nd.bwd_over over then nd.bwd_over
      else Bitset.inter nd.bwd_over over
    in
    if bu == nd.bwd_under && bo == nd.bwd_over then true
    else begin
      nd.bwd_under <- bu;
      nd.bwd_over <- bo;
      changed := true;
      Bitset.subset bu bo
    end
  in
  (* The plane-[i] part of a [tighten] that left an empty interval
     somewhere ([ok] false). *)
  let check_tightened ok nd i =
    if (not ok) && not (Bitset.subset_on masks.(i) nd.bwd_under nd.bwd_over) then
      raise Dead
  in
  let tighten_card changed nd i lo hi =
    if env.cardinality then begin
      let lo = max lo nd.clo.(i) and hi = min hi nd.chi.(i) in
      if lo > nd.clo.(i) || hi < nd.chi.(i) then begin
        nd.clo.(i) <- lo;
        nd.chi.(i) <- hi;
        changed := true;
        if lo > hi then raise Dead_card
      end
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
    nd.fwd_under <- gu;
    nd.fwd_over <- go;
    no_card_bounds ();
    settle nd (Bitset.subset gu go);
    match nd.shape with
    | Value _ | Hole -> ()
    | Complement c ->
        let ok =
          tighten changed c ~under:(Bitset.complement nd.fwd_over)
            ~over:(Bitset.complement nd.fwd_under)
        in
        for i = 0 to nplanes - 1 do
          check_tightened ok c i;
          tighten_card changed c i (msizes.(i) - nd.chi.(i)) (msizes.(i) - nd.clo.(i))
        done;
        backward changed c
    | Union cs ->
        let gu = nd.fwd_under and go = nd.fwd_over in
        (* Whatever the siblings cannot possibly produce, this child must:
           under = g⁻ \ ⋃_{j≠i} overⱼ. *)
        let ok =
          List.fold_left
            (fun ok c ->
              let sib =
                List.fold_left
                  (fun acc c' -> if c' == c then acc else Bitset.union acc c'.fwd_over)
                  empty cs
              in
              let under = if Bitset.disjoint gu sib then gu else Bitset.diff gu sib in
              tighten changed c ~under ~over:go && ok)
            true cs
        in
        (* Counting-wise, the siblings supply at most Σ_{j≠i} chiⱼ of the
           clo objects the union needs, and the child contributes at most
           chi. *)
        for i = 0 to nplanes - 1 do
          List.iter
            (fun c ->
              check_tightened ok c i;
              let sib_chi =
                List.fold_left
                  (fun acc c' -> if c' == c then acc else acc + c'.chi.(i))
                  0 cs
              in
              tighten_card changed c i (nd.clo.(i) - sib_chi) nd.chi.(i))
            cs
        done;
        List.iter (backward changed) cs
    | Intersect cs ->
        let gu = nd.fwd_under and go = nd.fwd_over in
        (* Objects every sibling surely keeps but the node must drop can
           only be dropped here: over = ∁((⋂_{j≠i} underⱼ) \ g⁺). *)
        let ok =
          List.fold_left
            (fun ok c ->
              let sib =
                List.fold_left
                  (fun acc c' -> if c' == c then acc else Bitset.inter acc c'.fwd_under)
                  full cs
              in
              let over =
                if Bitset.subset sib go then full
                else Bitset.complement (Bitset.diff sib go)
              in
              tighten changed c ~under:gu ~over && ok)
            true cs
        in
        (* Counting-wise the child keeps at least the clo objects the
           intersection needs. *)
        for i = 0 to nplanes - 1 do
          List.iter
            (fun c ->
              check_tightened ok c i;
              tighten_card changed c i nd.clo.(i) msizes.(i))
            cs
        done;
        List.iter (backward changed) cs
    | Find (c, _) ->
        (* Output constraints say nothing about which input produced a
           match, but each output needs a distinct input: |in| ≥ |out|. *)
        for i = 0 to nplanes - 1 do
          tighten_card changed c i nd.clo.(i) msizes.(i)
        done;
        backward changed c
    | Filter (c, _) ->
        (* A non-empty filter output needs at least one input container. *)
        for i = 0 to nplanes - 1 do
          tighten_card changed c i (if nd.clo.(i) > 0 then 1 else 0) msizes.(i)
        done;
        backward changed c
  in
  let holes tree =
    let acc = ref [] in
    let rec go nd =
      match nd.shape with
      | Hole -> acc := nd :: !acc
      | Value _ -> ()
      | Complement c | Find (c, _) | Filter (c, _) -> go c
      | Union cs | Intersect cs -> List.iter go cs
    in
    go tree;
    List.rev !acc
  in
  (* Record the tightened goal of *every* hole whose final interval beats
     its annotation, keyed by the hole's physical node.  The forward
     fields are read, not the backward ones: for a hole, forward is the
     backward interval met with the cardinality reduction (e.g. a pinned
     singleton), which is strictly tighter and equally sound — a solving
     completion's value must respect the count bounds too. *)
  let record_tight tree =
    let entries =
      List.filter_map
        (fun h ->
          let g = h.src.Partial.goal in
          if
            Bitset.equal h.fwd_under (Simage.bitset g.Goal.under)
            && Bitset.equal h.fwd_over (Simage.bitset g.Goal.over)
          then None
          else
            Some
              ( h.src,
                Goal.make
                  ~under:(Simage.of_bitset env.u h.fwd_under)
                  ~over:(Simage.of_bitset env.u h.fwd_over) ))
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
