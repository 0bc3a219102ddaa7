module Simage = Imageeye_symbolic.Simage
open Peval.Form

(* Structural equality that never equates terms containing holes: two holes
   may be completed differently, so they match no rewrite rule. *)
let rec same a b =
  match (a, b) with
  | Hole, _ | _, Hole -> false
  | Const x, Const y -> Simage.equal x y
  | All, All -> true
  | Is p, Is q -> Pred.equal p q
  | Complement x, Complement y -> same x y
  | Union xs, Union ys | Intersect xs, Intersect ys -> same_list xs ys
  | Find (x, p, f), Find (y, q, g) -> Pred.equal p q && Func.equal f g && same x y
  | Filter (x, p), Filter (y, q) -> Pred.equal p q && same x y
  | _ -> false

and same_list xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> same x y && same_list xs ys
  | _ -> false

let rec mem_same a = function [] -> false | m :: ms -> same a m || mem_same a ms

let rec share ms ms' = match ms with [] -> false | m :: ms -> mem_same m ms' || share ms ms'

(* The members of an operand of the dual operator ([Intersect] inside a
   [Union], and vice versa); [] for any other operand. *)
let dual_members ~union = function
  | Intersect ms when union -> ms
  | Union ms when not union -> ms
  | _ -> []

(* The rules between two distinct operands [a] and [b], in both orders:
   - domination among constants (Example 5.11): for Union, an operand that
     is a subset of another is redundant; for Intersect, a superset is;
   - idempotence: identical hole-free operands (the syntactic-mode
     analogue of domination);
   - absorption: one operand occurs inside the other, an operand of the
     dual operator, e.g. Union(A, Intersect(A, B));
   - distribution: both are operands of the dual operator with a common
     member, e.g. Union(Intersect(A, B), Intersect(A, C)). *)
let pair_matches ~union a b =
  (match (a, b) with
  | Const va, Const vb -> Simage.subset va vb || Simage.subset vb va
  | _ -> false)
  || same a b
  ||
  let ma = dual_members ~union a and mb = dual_members ~union b in
  mem_same a mb || mem_same b ma || share ma mb

let rec against ~union a = function
  | [] -> false
  | b :: bs -> pair_matches ~union a b || against ~union a bs

let rec any_pair ~union = function
  | [] -> false
  | a :: rest -> against ~union a rest || any_pair ~union rest

(* Associativity: a directly nested operand of the same operator (the
   flattened form is smaller). *)
let rec nested ~union = function
  | [] -> false
  | (Union _ :: _) when union -> true
  | (Intersect _ :: _) when not union -> true
  | _ :: xs -> nested ~union xs

(* Commutativity: only the canonical operand order is kept. *)
let rec sorted_operands = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> compare a b <= 0 && sorted_operands rest

(* De Morgan: every operand is a complement. *)
let rec all_complements = function
  | [] -> true
  | Complement _ :: xs -> all_complements xs
  | _ -> false

let operands_match ~union xs =
  nested ~union xs
  || (not (sorted_operands xs))
  || all_complements xs
  || any_pair ~union xs

let rule_matches = function
  | Complement (Complement _) -> true
  | Union xs -> operands_match ~union:true xs
  | Intersect xs -> operands_match ~union:false xs
  | Hole | Const _ | All | Is _ | Complement _ | Find _ | Filter _ -> false

(* The Rec rule of Fig. 14: a term is reducible if any subterm matches a
   rewrite rule. *)
let rec reducible t =
  rule_matches t
  ||
  match t with
  | Hole | Const _ | All | Is _ -> false
  | Complement t1 | Find (t1, _, _) | Filter (t1, _) -> reducible t1
  | Union ts | Intersect ts -> List.exists reducible ts
