module Bbox = Imageeye_geometry.Bbox
module Bitset = Imageeye_util.Bitset

module BitsetTbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

type interned = { bits : Bitset.t; uid : int; bhash : int }

type t = {
  uid : int;
  entities : Entity.t array;
  (* The per-image index: distinct raw-image ids, ascending, and for each
     the ids of its objects, ascending. *)
  image_ids : int array;
  image_objects : int list array;
  right_of : int array array;
  left_of : int array array;
  above : int array array;
  below : int array array;
  parents : int array array;
  contents : int array array;
  (* Hash-consing of the object sets (symbolic images) over this universe:
     each distinct bitset is interned once, so set equality is an integer
     comparison and hashes are precomputed.  Shared by every Domain
     searching over the universe, hence the mutex. *)
  intern_tbl : interned BitsetTbl.t;
  intern_mutex : Mutex.t;
  mutable intern_next : int;
}

(* Position of [img] in the ascending [image_ids], or -1. *)
let find_image image_ids img =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = Int.compare img image_ids.(mid) in
      if c = 0 then mid else if c < 0 then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length image_ids)

let index_images (entities : Entity.t array) =
  let image_ids =
    Array.of_list
      (List.sort_uniq Int.compare
         (Array.fold_left (fun acc (e : Entity.t) -> e.image_id :: acc) [] entities))
  in
  let image_objects = Array.make (Array.length image_ids) [] in
  (* Consed from the highest id down, so each image's ids are ascending. *)
  for i = Array.length entities - 1 downto 0 do
    let k = find_image image_ids entities.(i).image_id in
    image_objects.(k) <- i :: image_objects.(k)
  done;
  (image_ids, image_objects)

(* Universe identity for registries that key caches by universe (e.g. the
   synthesizer's per-universe vocabularies).  Like interned uids, creation
   order can differ between runs; only compare for equality. *)
let next_uid = Atomic.make 0

let of_entities ents =
  let entities = Array.of_list ents in
  Array.iteri
    (fun i (e : Entity.t) ->
      if e.id <> i then
        invalid_arg
          (Printf.sprintf "Universe.of_entities: entity at position %d has id %d" i e.id))
    entities;
  let image_ids, image_objects = index_images entities in
  let n = Array.length entities in
  let right_of = Array.make n [||] and left_of = Array.make n [||] in
  let above = Array.make n [||] and below = Array.make n [||] in
  let parents = Array.make n [||] and contents = Array.make n [||] in
  (* Related ids sorted by a box key, ties broken on id for determinism. *)
  let sorted key ascending ids =
    let cmp a b =
      let c = Int.compare (key entities.(a).Entity.bbox) (key entities.(b).Entity.bbox) in
      let c = if c = 0 then Int.compare a b else c in
      if ascending then c else -c
    in
    Array.of_list (List.sort cmp ids)
  in
  (* Spatial relations hold only within one raw image, so each object is
     tested against the peers of its own image, all six relations in one
     scan. *)
  Array.iter
    (fun peers ->
      List.iter
        (fun i ->
          let o = entities.(i).bbox in
          let r = ref [] and l = ref [] and a = ref [] and b = ref [] in
          let p = ref [] and c = ref [] in
          List.iter
            (fun j ->
              if j <> i then begin
                let o' = entities.(j).bbox in
                if Bbox.is_right_of o' o then r := j :: !r;
                if Bbox.is_left_of o' o then l := j :: !l;
                if Bbox.is_above o' o then a := j :: !a;
                if Bbox.is_below o' o then b := j :: !b;
                if Bbox.strictly_contains ~outer:o' ~inner:o then p := j :: !p;
                if Bbox.strictly_contains ~outer:o ~inner:o' then c := j :: !c
              end)
            peers;
          (* The orderings of Fig. 7: o' is right of o when o'.left >
             o.right, closest first; parents innermost (smallest area)
             first. *)
          right_of.(i) <- sorted (fun b -> b.Bbox.left) true !r;
          left_of.(i) <- sorted (fun b -> b.Bbox.right) false !l;
          above.(i) <- sorted (fun b -> b.Bbox.bottom) false !a;
          below.(i) <- sorted (fun b -> b.Bbox.top) true !b;
          parents.(i) <- sorted Bbox.area true !p;
          contents.(i) <- sorted (fun b -> b.Bbox.left) true !c)
        peers)
    image_objects;
  {
    uid = Atomic.fetch_and_add next_uid 1;
    entities;
    image_ids;
    image_objects;
    right_of;
    left_of;
    above;
    below;
    parents;
    contents;
    (* Hashtbl's minimum size: the table doubles as sets are interned, so
       a one-frame universe stays off the major heap and a search-sized
       one grows to what its interned sets need. *)
    intern_tbl = BitsetTbl.create 16;
    intern_mutex = Mutex.create ();
    intern_next = 0;
  }

let intern t bits =
  if Bitset.universe_size bits <> Array.length t.entities then
    invalid_arg "Universe.intern: bitset size does not match the universe";
  Mutex.lock t.intern_mutex;
  let cell =
    match BitsetTbl.find_opt t.intern_tbl bits with
    | Some cell -> cell
    | None ->
        (* The hash is structural (word-array based), so it is identical
           across runs; uids are only ever compared for equality. *)
        let cell = { bits; uid = t.intern_next; bhash = Bitset.hash bits } in
        t.intern_next <- t.intern_next + 1;
        BitsetTbl.add t.intern_tbl bits cell;
        cell
  in
  Mutex.unlock t.intern_mutex;
  cell

let interned_count t =
  Mutex.lock t.intern_mutex;
  let n = t.intern_next in
  Mutex.unlock t.intern_mutex;
  n

let uid t = t.uid
let size t = Array.length t.entities
let entity t i = t.entities.(i)
let entities t = Array.to_list t.entities
let image_ids t = Array.to_list t.image_ids

let objects_of_image t img =
  match find_image t.image_ids img with -1 -> [] | k -> t.image_objects.(k)

let right_of t i = t.right_of.(i)
let left_of t i = t.left_of.(i)
let above t i = t.above.(i)
let below t i = t.below.(i)
let parents t i = t.parents.(i)
let contents t i = t.contents.(i)
