module Simage = Imageeye_symbolic.Simage
module Universe = Imageeye_symbolic.Universe
module Bitset = Imageeye_util.Bitset

type t = {
  extension : Pred.t -> Simage.t;
  find_insts : (Pred.t * Func.t * Simage.t) list;
  filter_insts : (Pred.t * Simage.t) list;
}

(* Find signatures are per-object first matches, -1 for none.  The hash
   reads every element: [Hashtbl.hash] stops after 10, which would put
   every signature without a match among the first 10 objects in one
   bucket. *)
module Sig_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash a = Array.fold_left (fun h x -> (h * 65599) + x) 0 a land max_int
end)

module Bitset_tbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

let compute ?(dedup = true) u vocab =
  let n = Universe.size u in
  let preds = Array.of_list (Vocab.predicates vocab) in
  let funcs = Array.of_list (Vocab.functions vocab) in
  let np = Array.length preds in
  (* The entailment table, read both ways: the predicates each object
     entails (ascending index) and the extension of each predicate. *)
  let holds = Array.make n [||] in
  let ext_ids = Array.make np [] in
  for o = n - 1 downto 0 do
    let e = Universe.entity u o in
    let entailed = ref [] in
    for pi = np - 1 downto 0 do
      if Pred.entails e preds.(pi) then begin
        entailed := pi :: !entailed;
        ext_ids.(pi) <- o :: ext_ids.(pi)
      end
    done;
    holds.(o) <- Array.of_list !entailed
  done;
  let ext_bits = Array.map (Bitset.of_list n) ext_ids in
  let ext_tbl = Hashtbl.create (2 * np) in
  Array.iteri (fun pi p -> Hashtbl.replace ext_tbl p (Simage.of_bitset u ext_bits.(pi))) preds;
  let extension p =
    match Hashtbl.find_opt ext_tbl p with
    | Some v -> v
    | None ->
        let v = Simage.filter (fun e -> Pred.entails e p) (Simage.full u) in
        Hashtbl.add ext_tbl p v;
        v
  in
  (* [first.(fi).(pi).(o)]: the first object along function [fi] from [o]
     that entails predicate [pi], or -1.  Each object's related objects are
     walked once per function, filling every predicate they entail; a
     predicate never matched along [fi] keeps the shared empty row. *)
  let no_match = [||] in
  let first =
    Array.map
      (fun f ->
        let rows = Array.make np no_match in
        for o = 0 to n - 1 do
          Array.iter
            (fun c ->
              Array.iter
                (fun pi ->
                  let row =
                    if rows.(pi) == no_match then begin
                      let row = Array.make n (-1) in
                      rows.(pi) <- row;
                      row
                    end
                    else rows.(pi)
                  in
                  if row.(o) < 0 then row.(o) <- c)
                holds.(c))
            (Func.apply u f o)
        done;
        rows)
      funcs
  in
  let find_reach row =
    Simage.of_ids u (Array.fold_left (fun acc c -> if c >= 0 then c :: acc else acc) [] row)
  in
  let seen = Sig_tbl.create 64 in
  let find_insts = ref [] in
  Array.iteri
    (fun pi p ->
      Array.iteri
        (fun fi f ->
          let row = first.(fi).(pi) in
          let keep =
            if not dedup then true
            else if row == no_match || Sig_tbl.mem seen row then false
            else begin
              Sig_tbl.add seen row ();
              true
            end
          in
          if keep then find_insts := (p, f, find_reach row) :: !find_insts)
        funcs)
    preds;
  (* A Filter outputs contained objects only, and the contained objects a
     predicate keeps are exactly its signature, so the signature is the
     reach: [ext(p)] met with the contained objects. *)
  let contained =
    let ids = ref [] in
    for o = 0 to n - 1 do
      Array.iter (fun c -> ids := c :: !ids) (Universe.contents u o)
    done;
    Bitset.of_list n !ids
  in
  let seen_filter = Bitset_tbl.create 64 in
  let filter_insts = ref [] in
  Array.iteri
    (fun pi p ->
      let reach = Bitset.inter ext_bits.(pi) contained in
      let keep =
        if not dedup then true
        else if Bitset.is_empty reach || Bitset_tbl.mem seen_filter reach then false
        else begin
          Bitset_tbl.add seen_filter reach ();
          true
        end
      in
      if keep then filter_insts := (p, Simage.of_bitset u reach) :: !filter_insts)
    preds;
  { extension; find_insts = List.rev !find_insts; filter_insts = List.rev !filter_insts }
