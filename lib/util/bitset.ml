type t = { size : int; words : int array }

let bits_per_word = 63 (* OCaml ints are 63-bit on 64-bit platforms *)

let nwords n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  { size = n; words = Array.make (max 1 (nwords n)) 0 }

let universe_size t = t.size

let words t = t.words

let check_elt t x =
  if x < 0 || x >= t.size then
    invalid_arg (Printf.sprintf "Bitset: element %d outside universe [0,%d)" x t.size)

let check_same a b =
  if a.size <> b.size then
    invalid_arg
      (Printf.sprintf "Bitset: universe mismatch (%d vs %d)" a.size b.size)

(* Mask of valid bits in the last word, so [complement] and [full] never set
   bits beyond the universe. *)
let last_mask t =
  let rem = t.size mod bits_per_word in
  if rem = 0 then -1 else (1 lsl rem) - 1

let full n =
  let t = create n in
  let w = Array.length t.words in
  Array.fill t.words 0 w (-1);
  if n > 0 then t.words.(w - 1) <- t.words.(w - 1) land last_mask t
  else t.words.(0) <- 0;
  t

let of_words n words =
  if n < 0 then invalid_arg "Bitset.of_words: negative size";
  let t = { size = n; words } in
  let w = Array.length words in
  if w <> max 1 (nwords n) then
    invalid_arg "Bitset.of_words: word count does not match the universe";
  let valid = if n > 0 then last_mask t else 0 in
  if words.(w - 1) land lnot valid <> 0 then
    invalid_arg "Bitset.of_words: bits outside the universe";
  t

let mem t x =
  check_elt t x;
  t.words.(x / bits_per_word) land (1 lsl (x mod bits_per_word)) <> 0

let add t x =
  check_elt t x;
  let words = Array.copy t.words in
  words.(x / bits_per_word) <- words.(x / bits_per_word) lor (1 lsl (x mod bits_per_word));
  { t with words }

let remove t x =
  check_elt t x;
  let words = Array.copy t.words in
  words.(x / bits_per_word) <-
    words.(x / bits_per_word) land lnot (1 lsl (x mod bits_per_word));
  { t with words }

let of_list n elts =
  let t = create n in
  List.iter
    (fun x ->
      check_elt t x;
      t.words.(x / bits_per_word) <-
        t.words.(x / bits_per_word) lor (1 lsl (x mod bits_per_word)))
    elts;
  t

let singleton n x = of_list n [ x ]

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* 16-bit-chunk table: Kernighan's loop is O(set bits) per word, which
   dense sets (the abstract interpreter's reach sets, full-image masks)
   turn into a hotspot; four lookups are O(1) regardless of density. *)
let popcount16 =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  let t = Bytes.create 65536 in
  for i = 0 to 65535 do
    Bytes.unsafe_set t i (Char.unsafe_chr (go i 0))
  done;
  t

let popcount w =
  (* [w lsr 48] of a 63-bit word is at most 0x7fff, so every index is in
     range and the four chunks cover all 63 bits. *)
  Char.code (Bytes.unsafe_get popcount16 (w land 0xffff))
  + Char.code (Bytes.unsafe_get popcount16 ((w lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get popcount16 ((w lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get popcount16 (w lsr 48))

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let map2 f a b =
  check_same a b;
  let words = Array.mapi (fun i w -> f w b.words.(i)) a.words in
  { size = a.size; words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let complement t =
  let words = Array.map lnot t.words in
  let r = { size = t.size; words } in
  let w = Array.length words in
  if t.size > 0 then words.(w - 1) <- words.(w - 1) land last_mask t
  else words.(0) <- 0;
  r

let subset a b =
  check_same a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)) in
  go 0

let disjoint a b =
  check_same a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land b.words.(i) = 0 && go (i + 1)) in
  go 0

(* Index of the first word where [a] and [b] differ, or their word count:
   a loop with no closure, since [equal] runs on every intern-table
   lookup and [compare] whenever two distinct constants meet in a form
   comparison.  [compare] keeps the order polymorphic compare gave the
   word arrays: signed, word by word. *)
let first_difference a b =
  check_same a b;
  let n = Array.length a.words in
  let i = ref 0 in
  while !i < n && a.words.(!i) = b.words.(!i) do
    incr i
  done;
  !i

let equal a b = first_difference a b = Array.length a.words

let compare a b =
  let i = first_difference a b in
  if i = Array.length a.words then 0 else Int.compare a.words.(i) b.words.(i)

(* [Hashtbl.hash] reads at most 10 words of the array, so on its own it
   would give every set over a universe larger than 630 objects that
   differs only past object 630 one hash (and one intern-table bucket).
   The remaining words are folded in after it, which keeps the value of
   every set of at most 10 words unchanged. *)
let hash t =
  let n = Array.length t.words in
  let h = ref (Hashtbl.hash t.words) in
  for i = 10 to n - 1 do
    h := Hashtbl.seeded_hash !h t.words.(i)
  done;
  !h

let iter f t =
  for x = 0 to t.size - 1 do
    if t.words.(x / bits_per_word) land (1 lsl (x mod bits_per_word)) <> 0 then f x
  done

let fold f t init =
  let acc = ref init in
  iter (fun x -> acc := f x !acc) t;
  !acc

let to_list t = List.rev (fold (fun x acc -> x :: acc) t [])

let filter p t =
  let r = create t.size in
  iter
    (fun x ->
      if p x then
        r.words.(x / bits_per_word) <-
          r.words.(x / bits_per_word) lor (1 lsl (x mod bits_per_word)))
    t;
  r

let for_all p t = fold (fun x acc -> acc && p x) t true
let exists p t = fold (fun x acc -> acc || p x) t false

let choose_opt t =
  let exception Found of int in
  try
    iter (fun x -> raise (Found x)) t;
    None
  with Found x -> Some x

let pp fmt t =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       Format.pp_print_int)
    (to_list t)
