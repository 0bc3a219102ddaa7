module Simage = Imageeye_symbolic.Simage
module Universe = Imageeye_symbolic.Universe
module Bitset = Imageeye_util.Bitset

let meet (a : Goal.t) (b : Goal.t) =
  Goal.make
    ~under:(Simage.union a.Goal.under b.Goal.under)
    ~over:(Simage.inter a.Goal.over b.Goal.over)

let feasible (g : Goal.t) = Simage.subset g.Goal.under g.Goal.over

let default_max_iterations = 8

(* The words of every mirror node's four intervals, reused across the
   analyses of one search.  [full] is the full set's words, which double
   as the complement mask (the last word keeps only the bits inside the
   universe). *)
type scratch = { full : int array; mutable buf : int array; mutable used : int }

type env = {
  u : Universe.t;
  reach_find : Pred.t -> Func.t -> Simage.t;
  reach_filter : Pred.t -> Simage.t;
  max_iterations : int;
  mutable analyses : int;
  mutable iterations : int;
  mutable tightened : int;
  mutable cap_hits : int;
  scratch : scratch;
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
    scratch = { full = Bitset.words (Simage.bitset full); buf = [||]; used = 0 };
  }

type result = Feasible | Infeasible

(* The analysis works on an ephemeral mirror of the candidate, built in
   lockstep from its [Partial.t] (shape and goal annotations) and its
   partially evaluated [Form.t] (whose collapsed constants are the exact
   forward values of complete subtrees).  Each node holds a forward
   interval [fwd_under, fwd_over] and a backward one [bwd_under,
   bwd_over] over the whole universe, as four ranges of [w] words (one
   set's words) in the scratch buffer: [fwd_under] at [off], [fwd_over]
   at [off + w], [bwd_under] at [off + 2w], [bwd_over] at [off + 3w].
   Every transfer writes its result word by word into those ranges, so
   the fixpoint allocates no set; only the final tightened hole goals are
   copied out and interned.  The walks below are top-level functions with
   explicit recursion over child lists: a closure per node visit would
   allocate in the loop. *)
type node = { shape : shape; off : int }

and shape =
  | Value of int array  (** the exact value's words *)
  | Hole of Partial.t  (** the candidate's hole, the key of its tight entry *)
  | Complement of node
  | Union of node list
  | Intersect of node list
  | Find of node * int array  (** words of the parameterization's reach *)
  | Filter of node * int array

exception Mismatch
exception Dead

let words s = Bitset.words (Simage.bitset s)

(* Reserves a node's four ranges, growing the buffer on demand. *)
let reserve sc w =
  let off = sc.used in
  let need = off + (4 * w) in
  if need > Array.length sc.buf then begin
    let grown = Array.make (max need (2 * Array.length sc.buf)) 0 in
    Array.blit sc.buf 0 grown 0 off;
    sc.buf <- grown
  end;
  sc.used <- need;
  off

(* Holes seed their backward interval from the tight map a previous
   analysis recorded on an ancestor candidate: completions of this
   candidate are a subset of the ancestor's, so its hole constraints
   still hold.  The forward ranges are left as they are: [forward]
   writes every node's before anything reads them. *)
let mk sc w inherited (p : Partial.t) shape =
  let off = reserve sc w in
  let b = sc.buf and bu = off + (2 * w) and bo = off + (3 * w) in
  let g = p.Partial.goal in
  Array.blit (words g.Goal.under) 0 b bu w;
  Array.blit (words g.Goal.over) 0 b bo w;
  (match p.Partial.node with
  | Partial.Hole -> (
      match List.assq_opt p inherited with
      | Some (t : Goal.t) ->
          let tu = words t.Goal.under and t_o = words t.Goal.over in
          for i = 0 to w - 1 do
            b.(bu + i) <- b.(bu + i) lor tu.(i);
            b.(bo + i) <- b.(bo + i) land t_o.(i)
          done
      | None -> ())
  | _ -> ());
  { shape; off }

let rec build env w inherited (p : Partial.t) (f : Form.t) =
  let sc = env.scratch in
  match f with
  | Form.Const v -> mk sc w inherited p (Value (words v))
  | _ -> (
      match (p.Partial.node, f) with
      | Partial.Hole, Form.Hole -> mk sc w inherited p (Hole p)
      | Partial.Complement q, Form.Complement fq ->
          mk sc w inherited p (Complement (build env w inherited q fq))
      | Partial.Union qs, Form.Union fqs ->
          mk sc w inherited p (Union (build_all env w inherited qs fqs))
      | Partial.Intersect qs, Form.Intersect fqs ->
          mk sc w inherited p (Intersect (build_all env w inherited qs fqs))
      | Partial.Find (q, pr, fn), Form.Find (fq, _, _) ->
          let c = build env w inherited q fq in
          mk sc w inherited p (Find (c, words (env.reach_find pr fn)))
      | Partial.Filter (q, pr), Form.Filter (fq, _) ->
          let c = build env w inherited q fq in
          mk sc w inherited p (Filter (c, words (env.reach_filter pr)))
      | _ -> raise Mismatch)

and build_all env w inherited qs fqs =
  match (qs, fqs) with
  | [], [] -> []
  | q :: qs, fq :: fqs ->
      let c = build env w inherited q fq in
      c :: build_all env w inherited qs fqs
  | _ -> raise Mismatch

(* Meet word [i] of freshly computed forward bounds [u], [o] with the
   node's backward interval and store it; the result is the word's bits
   that break [under ⊆ over].  A non-zero result over any word means no
   completion consistent with the goals can produce this node's value. *)
let set_fwd_word b w nd i u o =
  let u = u lor b.(nd.off + (2 * w) + i) and o = o land b.(nd.off + (3 * w) + i) in
  b.(nd.off + i) <- u;
  b.(nd.off + w + i) <- o;
  u land lnot o

(* Word [k] of each node's range, folded with [lor] or [land] over a
   child list, skipping the child [skip] (compared physically; [nobody]
   is in no list). *)
let nobody = { shape = Value [||]; off = 0 }

let rec or_at b skip k acc = function
  | [] -> acc
  | c :: cs -> or_at b skip k (if c == skip then acc else acc lor b.(c.off + k)) cs

let rec and_at b skip k acc = function
  | [] -> acc
  | c :: cs -> and_at b skip k (if c == skip then acc else acc land b.(c.off + k)) cs

let rec is_zero b off w i = i >= w || (b.(off + i) = 0 && is_zero b off w (i + 1))

let rec forward b w full nd =
  let bad = ref 0 in
  (match nd.shape with
  | Value v ->
      for i = 0 to w - 1 do
        bad := !bad lor set_fwd_word b w nd i v.(i) v.(i)
      done
  | Hole _ ->
      for i = 0 to w - 1 do
        bad :=
          !bad lor set_fwd_word b w nd i b.(nd.off + (2 * w) + i) b.(nd.off + (3 * w) + i)
      done
  | Complement c ->
      forward b w full c;
      for i = 0 to w - 1 do
        bad :=
          !bad
          lor set_fwd_word b w nd i
                (lnot b.(c.off + w + i) land full.(i))
                (lnot b.(c.off + i) land full.(i))
      done
  | Union cs ->
      forward_all b w full cs;
      for i = 0 to w - 1 do
        bad :=
          !bad
          lor set_fwd_word b w nd i (or_at b nobody i 0 cs) (or_at b nobody (w + i) 0 cs)
      done
  | Intersect cs ->
      forward_all b w full cs;
      for i = 0 to w - 1 do
        bad :=
          !bad
          lor set_fwd_word b w nd i
                (and_at b nobody i full.(i) cs)
                (and_at b nobody (w + i) full.(i) cs)
      done
  | Find (c, reach) | Filter (c, reach) ->
      forward b w full c;
      (* Nothing comes out of a surely empty input. *)
      let surely_empty = is_zero b (c.off + w) w 0 in
      for i = 0 to w - 1 do
        bad := !bad lor set_fwd_word b w nd i 0 (if surely_empty then 0 else reach.(i))
      done);
  if !bad <> 0 then raise Dead

and forward_all b w full = function
  | [] -> ()
  | c :: cs ->
      forward b w full c;
      forward_all b w full cs

(* Meet [under, over] into word [i] of a child's backward interval; true
   when the word moved.  A moved interval is what drives the fixpoint
   into another round. *)
let tighten_word b w c i under over =
  let bu = c.off + (2 * w) + i and bo = c.off + (3 * w) + i in
  let nu = b.(bu) lor under and no = b.(bo) land over in
  let moved = nu <> b.(bu) || no <> b.(bo) in
  b.(bu) <- nu;
  b.(bo) <- no;
  moved

(* After a child's backward interval moved: an empty one is a dead
   candidate. *)
let moved_child changed b w c =
  changed := true;
  for i = 0 to w - 1 do
    if b.(c.off + (2 * w) + i) land lnot b.(c.off + (3 * w) + i) <> 0 then raise Dead
  done

let rec backward changed b w full nd =
  (* Refine this node with whatever the parent just pushed into its
     backward interval, so descendants see the tightest bounds. *)
  let bad = ref 0 in
  for i = 0 to w - 1 do
    let gu = b.(nd.off + i) lor b.(nd.off + (2 * w) + i)
    and go = b.(nd.off + w + i) land b.(nd.off + (3 * w) + i) in
    b.(nd.off + i) <- gu;
    b.(nd.off + w + i) <- go;
    bad := !bad lor (gu land lnot go)
  done;
  if !bad <> 0 then raise Dead;
  match nd.shape with
  | Value _ | Hole _ -> ()
  | Complement c ->
      let moved = ref false in
      for i = 0 to w - 1 do
        if
          tighten_word b w c i
            (lnot b.(nd.off + w + i) land full.(i))
            (lnot b.(nd.off + i) land full.(i))
        then moved := true
      done;
      if !moved then moved_child changed b w c;
      backward changed b w full c
  | Union cs ->
      tighten_union changed b w nd cs cs;
      backward_all changed b w full cs
  | Intersect cs ->
      tighten_intersect changed b w full nd cs cs;
      backward_all changed b w full cs
  | Find (c, _) | Filter (c, _) ->
      (* Output constraints say nothing about which input produced a
         match; the node-level meet (tightened under vs. reach) already
         happened in [set_fwd_word]. *)
      backward changed b w full c

and backward_all changed b w full = function
  | [] -> ()
  | c :: cs ->
      backward changed b w full c;
      backward_all changed b w full cs

(* Whatever the siblings cannot possibly produce, this child must:
   under = g⁻ \ ⋃_{j≠i} overⱼ. *)
and tighten_union changed b w nd all = function
  | [] -> ()
  | c :: cs ->
      let moved = ref false in
      for i = 0 to w - 1 do
        let sib = or_at b c (w + i) 0 all in
        if tighten_word b w c i (b.(nd.off + i) land lnot sib) b.(nd.off + w + i) then
          moved := true
      done;
      if !moved then moved_child changed b w c;
      tighten_union changed b w nd all cs

(* Objects every sibling surely keeps but the node must drop can only be
   dropped here: over = ∁((⋂_{j≠i} underⱼ) \ g⁺). *)
and tighten_intersect changed b w full nd all = function
  | [] -> ()
  | c :: cs ->
      let moved = ref false in
      for i = 0 to w - 1 do
        let sib = and_at b c i full.(i) all in
        let over = lnot (sib land lnot b.(nd.off + w + i)) land full.(i) in
        if tighten_word b w c i b.(nd.off + i) over then moved := true
      done;
      if !moved then moved_child changed b w c;
      tighten_intersect changed b w full nd all cs

let rec range_equal b off v w i =
  i >= w || (b.(off + i) = v.(i) && range_equal b off v w (i + 1))

(* The tightened goal of *every* hole whose final backward interval beats
   its annotation, keyed by the hole's physical node, prepended in
   left-to-right order.  Only these goals leave the buffer: their words
   are copied into fresh sets and interned. *)
let rec tight_entries env b w acc nd =
  match nd.shape with
  | Hole h ->
      let g = h.Partial.goal in
      let bu = nd.off + (2 * w) and bo = nd.off + (3 * w) in
      if
        range_equal b bu (words g.Goal.under) w 0
        && range_equal b bo (words g.Goal.over) w 0
      then acc
      else
        let n = Universe.size env.u in
        let set off = Simage.of_bitset env.u (Bitset.of_words n (Array.sub b off w)) in
        (h, Goal.make ~under:(set bu) ~over:(set bo)) :: acc
  | Value _ -> acc
  | Complement c | Find (c, _) | Filter (c, _) -> tight_entries env b w acc c
  | Union cs | Intersect cs -> tight_entries_all env b w acc cs

and tight_entries_all env b w acc = function
  | [] -> acc
  | c :: cs -> tight_entries_all env b w (tight_entries env b w acc c) cs

let record_tight env root b w tree =
  match tight_entries env b w [] tree with
  | [] -> ()
  | entries ->
      Partial.set_tight root (List.rev entries);
      env.tightened <- env.tightened + 1

let rec fixpoint env changed b w full tree i =
  env.iterations <- env.iterations + 1;
  changed := false;
  forward b w full tree;
  backward changed b w full tree;
  if !changed then
    if i < env.max_iterations then fixpoint env changed b w full tree (i + 1)
    else env.cap_hits <- env.cap_hits + 1

let analyze env (root : Partial.t) (form : Form.t) =
  env.analyses <- env.analyses + 1;
  let sc = env.scratch in
  let full = sc.full in
  let w = Array.length full in
  sc.used <- 0;
  match build env w (Partial.tight root) root form with
  | exception Mismatch -> Feasible (* shape we cannot mirror: admit, never guess *)
  | tree -> (
      let b = sc.buf in
      match fixpoint env (ref false) b w full tree 1 with
      | exception Dead -> Infeasible
      | () ->
          record_tight env root b w tree;
          Feasible)
