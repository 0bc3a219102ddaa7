(* Tests for imageeye_util: deterministic RNG, bitsets, the statistics
   toolkit and atomic file writes. *)

module Rng = Imageeye_util.Rng
module Bitset = Imageeye_util.Bitset
module Stats = Imageeye_util.Stats
module Tablefmt = Imageeye_util.Tablefmt
module Fileio = Imageeye_util.Fileio

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "non-positive bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_bernoulli_frequency () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "close to 0.3" true (freq > 0.27 && freq < 0.33)

let test_rng_split_independence () =
  let parent = Rng.create 21 in
  let child = Rng.split parent in
  (* Splitting advances the parent; the two streams should not coincide. *)
  let coincide = ref 0 in
  for _ = 1 to 50 do
    if Rng.bits64 parent = Rng.bits64 child then incr coincide
  done;
  Alcotest.(check bool) "independent streams" true (!coincide = 0)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let arr = Array.init 30 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 30 Fun.id) sorted

let test_rng_sample () =
  let rng = Rng.create 17 in
  let sample = Rng.sample_without_replacement rng 5 [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check int) "size" 5 (List.length sample);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare sample));
  let all = Rng.sample_without_replacement rng 100 [ 1; 2; 3 ] in
  Alcotest.(check int) "clamped to population" 3 (List.length all)

(* ---------- Bitset ---------- *)

let test_bitset_empty_full () =
  let e = Bitset.create 100 and f = Bitset.full 100 in
  Alcotest.(check bool) "empty is empty" true (Bitset.is_empty e);
  Alcotest.(check int) "empty cardinal" 0 (Bitset.cardinal e);
  Alcotest.(check int) "full cardinal" 100 (Bitset.cardinal f);
  Alcotest.(check bool) "full contains 0" true (Bitset.mem f 0);
  Alcotest.(check bool) "full contains 99" true (Bitset.mem f 99)

let test_bitset_word_boundaries () =
  (* Sizes around the 63-bit word boundary. *)
  List.iter
    (fun n ->
      let f = Bitset.full n in
      Alcotest.(check int) (Printf.sprintf "full %d" n) n (Bitset.cardinal f);
      let c = Bitset.complement f in
      Alcotest.(check bool) (Printf.sprintf "complement of full %d empty" n) true
        (Bitset.is_empty c))
    [ 1; 62; 63; 64; 126; 127; 200 ]

let test_bitset_add_remove () =
  let s = Bitset.of_list 50 [ 3; 7; 49 ] in
  Alcotest.(check (list int)) "elements" [ 3; 7; 49 ] (Bitset.to_list s);
  let s2 = Bitset.add s 10 in
  Alcotest.(check (list int)) "added" [ 3; 7; 10; 49 ] (Bitset.to_list s2);
  Alcotest.(check (list int)) "original unchanged" [ 3; 7; 49 ] (Bitset.to_list s);
  let s3 = Bitset.remove s2 7 in
  Alcotest.(check (list int)) "removed" [ 3; 10; 49 ] (Bitset.to_list s3)

let test_bitset_out_of_range () =
  let s = Bitset.create 10 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Bitset.add s 10);
       false
     with Invalid_argument _ -> true)

let test_bitset_mismatched_universe () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Bitset.union a b);
       false
     with Invalid_argument _ -> true)

let test_bitset_set_ops () =
  let a = Bitset.of_list 70 [ 1; 5; 64; 69 ] in
  let b = Bitset.of_list 70 [ 5; 6; 64 ] in
  Alcotest.(check (list int)) "union" [ 1; 5; 6; 64; 69 ] (Bitset.to_list (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 5; 64 ] (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 69 ] (Bitset.to_list (Bitset.diff a b));
  Alcotest.(check bool) "subset" true (Bitset.subset (Bitset.inter a b) a);
  Alcotest.(check bool) "not subset" false (Bitset.subset a b)

let test_bitset_complement_involution () =
  let a = Bitset.of_list 65 [ 0; 32; 63; 64 ] in
  Alcotest.(check bool) "involution" true
    (Bitset.equal a (Bitset.complement (Bitset.complement a)))

let test_bitset_disjoint () =
  let a = Bitset.of_list 70 [ 1; 5; 64; 69 ] in
  let b = Bitset.of_list 70 [ 5; 6; 64 ] in
  let c = Bitset.of_list 70 [ 0; 6; 68 ] in
  Alcotest.(check bool) "overlapping" false (Bitset.disjoint a b);
  Alcotest.(check bool) "disjoint" true (Bitset.disjoint a c);
  Alcotest.(check bool) "empty vs full" true (Bitset.disjoint (Bitset.create 70) (Bitset.full 70));
  Alcotest.(check bool) "mismatched widths" true
    (try
       ignore (Bitset.disjoint a (Bitset.create 71));
       false
     with Invalid_argument _ -> true)

let test_bitset_choose () =
  Alcotest.(check (option int)) "empty" None (Bitset.choose_opt (Bitset.create 5));
  Alcotest.(check (option int)) "smallest" (Some 2)
    (Bitset.choose_opt (Bitset.of_list 5 [ 4; 2; 3 ]))

(* The hash reads every word: sets over a 1000-object universe that differ
   only at object 700 (word 11) hash apart, and sets of at most 10 words
   keep the value [Hashtbl.hash] gave their word array, so intern tables
   over search-sized universes lay out as before. *)
let test_bitset_hash_every_word () =
  let a = Bitset.of_list 1000 [ 1 ] and b = Bitset.of_list 1000 [ 1; 700 ] in
  Alcotest.(check bool) "differ past word 10" true (Bitset.hash a <> Bitset.hash b);
  List.iter
    (fun (n, xs, h) ->
      Alcotest.(check int) (Printf.sprintf "%d-object set" n) h (Bitset.hash (Bitset.of_list n xs)))
    [
      (0, [], 554989322);
      (5, [ 0; 4 ], 351476946);
      (63, [ 62 ], 546228405);
      (130, [ 0; 5; 64; 129 ], 86032300);
      (630, [ 1; 300; 629 ], 753979914);
      (630, [], 16355250);
    ]

(* qcheck properties over bitsets *)

let bitset_gen n =
  QCheck2.Gen.(
    list_size (int_bound (n - 1)) (int_bound (n - 1)) >|= fun xs -> Bitset.of_list n xs)

let qcheck_props =
  let n = 130 in
  let gen = bitset_gen n in
  let pair = QCheck2.Gen.pair gen gen in
  [
    QCheck2.Test.make ~name:"union commutative" ~count:200 pair (fun (a, b) ->
        Bitset.equal (Bitset.union a b) (Bitset.union b a));
    QCheck2.Test.make ~name:"inter commutative" ~count:200 pair (fun (a, b) ->
        Bitset.equal (Bitset.inter a b) (Bitset.inter b a));
    QCheck2.Test.make ~name:"de morgan" ~count:200 pair (fun (a, b) ->
        Bitset.equal
          (Bitset.complement (Bitset.union a b))
          (Bitset.inter (Bitset.complement a) (Bitset.complement b)));
    QCheck2.Test.make ~name:"diff = inter complement" ~count:200 pair (fun (a, b) ->
        Bitset.equal (Bitset.diff a b) (Bitset.inter a (Bitset.complement b)));
    QCheck2.Test.make ~name:"cardinal of union" ~count:200 pair (fun (a, b) ->
        Bitset.cardinal (Bitset.union a b) + Bitset.cardinal (Bitset.inter a b)
        = Bitset.cardinal a + Bitset.cardinal b);
    QCheck2.Test.make ~name:"to_list sorted & mem-consistent" ~count:200 gen (fun a ->
        let l = Bitset.to_list a in
        l = List.sort_uniq compare l && List.for_all (Bitset.mem a) l);
    QCheck2.Test.make ~name:"hash respects equality" ~count:200 pair (fun (a, b) ->
        (not (Bitset.equal a b)) || Bitset.hash a = Bitset.hash b);
    QCheck2.Test.make ~name:"disjoint = empty inter" ~count:200 pair (fun (a, b) ->
        Bitset.disjoint a b = Bitset.is_empty (Bitset.inter a b));
  ]

(* [equal], [compare] and the word view against a reference that
   rebuilds the packed words from [to_list] and compares the arrays
   polymorphically (the order [compare] has always had: signed, word by
   word), at universe sizes on both sides of each 63-bit word boundary.
   [b] is [a], [a] with one element toggled, or an unrelated set, so
   equal and nearly equal pairs both occur. *)
let reference_words n a =
  let words = Array.make (max 1 ((n + 62) / 63)) 0 in
  List.iter
    (fun x -> words.(x / 63) <- words.(x / 63) lor (1 lsl (x mod 63)))
    (Bitset.to_list a);
  words

let word_order_props =
  List.map
    (fun n ->
      let gen =
        QCheck2.Gen.(
          let* a = bitset_gen n in
          let* x = int_bound (n - 1) in
          let toggled = if Bitset.mem a x then Bitset.remove a x else Bitset.add a x in
          let* b = oneof [ return a; return toggled; bitset_gen n ] in
          return (a, b))
      in
      let sign c = Int.compare c 0 in
      QCheck2.Test.make
        ~name:(Printf.sprintf "n=%d equal/compare/words vs reference" n)
        ~count:300 gen
        (fun (a, b) ->
          let ra = reference_words n a and rb = reference_words n b in
          Bitset.equal a b = (ra = rb)
          && sign (Bitset.compare a b) = sign (Stdlib.compare ra rb)
          && sign (Bitset.compare b a) = sign (Stdlib.compare rb ra)
          && Bitset.words a = ra
          && Bitset.equal (Bitset.of_words n (Array.copy (Bitset.words a))) a))
    [ 62; 63; 64; 126; 127 ]

let test_bitset_of_words_checks () =
  Alcotest.(check (list int)) "round trip" [ 0; 62; 63; 99 ]
    (Bitset.to_list (Bitset.of_words 100 [| 1 lor (1 lsl 62); 1 lor (1 lsl 36) |]));
  Alcotest.check_raises "bit past the universe"
    (Invalid_argument "Bitset.of_words: bits outside the universe") (fun () ->
      ignore (Bitset.of_words 100 [| 0; 1 lsl 37 |]));
  Alcotest.check_raises "word count"
    (Invalid_argument "Bitset.of_words: word count does not match the universe") (fun () ->
      ignore (Bitset.of_words 64 [| 0 |]))

(* ---------- Stats ---------- *)

let feq = Alcotest.float 1e-9

let test_stats_mean () =
  Alcotest.(check feq) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check feq) "empty" 0.0 (Stats.mean [])

let test_stats_median () =
  Alcotest.(check feq) "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check feq) "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check feq) "empty" 0.0 (Stats.median [])

let test_stats_stddev () =
  Alcotest.(check feq) "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check (Alcotest.float 1e-6)) "known" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_cumulative () =
  Alcotest.(check (list feq)) "sums" [ 1.0; 3.0; 6.0 ] (Stats.cumulative [ 1.0; 2.0; 3.0 ])

let test_stats_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  Alcotest.(check feq) "p0" 10.0 (Stats.percentile 0.0 xs);
  Alcotest.(check feq) "p100" 40.0 (Stats.percentile 100.0 xs);
  Alcotest.(check feq) "p50" 25.0 (Stats.percentile 50.0 xs)

let test_stats_histogram () =
  let buckets = [ (0.0, 10.0); (10.0, 20.0) ] in
  Alcotest.(check (list int)) "counts" [ 2; 1 ]
    (Stats.histogram ~buckets [ 1.0; 9.9; 10.0; 20.0 ])

(* ---------- Tablefmt ---------- *)

let test_table_render () =
  let s = Tablefmt.render ~header:[ "a"; "bb" ] ~rows:[ [ "111"; "2" ] ] in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  Alcotest.(check bool) "has separator" true (String.contains s '-');
  (* rows shorter than header get padded *)
  let s2 = Tablefmt.render ~header:[ "a"; "b" ] ~rows:[ [ "x" ] ] in
  Alcotest.(check bool) "padded" true (String.length s2 > 0)

let test_bar_chart () =
  let chart =
    Tablefmt.bar_chart ~title:"demo" ~labels:[ "a"; "b" ]
      ~series:[ ("x", [ 2; 4 ]); ("y", [ 1; 0 ]) ]
  in
  Alcotest.(check bool) "title present" true (String.length chart > 4);
  (* the largest value scales to the full bar width, smaller ones shorter *)
  let count_hashes line = String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 line in
  let lines = String.split_on_char '\n' chart in
  let bars = List.filter (fun l -> count_hashes l > 0) lines in
  Alcotest.(check int) "three non-zero bars" 3 (List.length bars);
  let max_bar = List.fold_left (fun m l -> max m (count_hashes l)) 0 bars in
  Alcotest.(check int) "max scaled to width" 40 max_bar

let test_fmt_float () =
  Alcotest.(check string) "one decimal" "1.5" (Tablefmt.fmt_float 1.49999999);
  Alcotest.(check string) "two decimals" "1.23" (Tablefmt.fmt_float ~decimals:2 1.234)

(* ---------- Fileio ---------- *)

let temp_dir () =
  let path = Filename.temp_file "imageeye-fileio" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let test_write_atomic_basic () =
  let dir = temp_dir () in
  let path = Filename.concat dir "out.txt" in
  Fileio.write_atomic_string path "first";
  Alcotest.(check string) "written" "first" (read_file path);
  Fileio.write_atomic_string path "second";
  Alcotest.(check string) "replaced" "second" (read_file path);
  Alcotest.(check (list string)) "no temp litter" [ "out.txt" ]
    (Array.to_list (Sys.readdir dir));
  rm_rf dir

(* A write killed partway (the writer raises mid-stream) must leave the
   original file byte-identical and no temporary behind. *)
let test_write_atomic_interrupted () =
  let dir = temp_dir () in
  let path = Filename.concat dir "out.txt" in
  Fileio.write_atomic_string path "precious original";
  (match
     Fileio.write_atomic path (fun oc ->
         output_string oc "half a replace";
         raise Exit)
   with
  | () -> Alcotest.fail "interrupted write reported success"
  | exception Exit -> ());
  Alcotest.(check string) "original intact" "precious original" (read_file path);
  Alcotest.(check (list string)) "no temp litter" [ "out.txt" ]
    (Array.to_list (Sys.readdir dir));
  rm_rf dir

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "different seeds" `Quick test_rng_different_seeds;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli frequency" `Quick test_rng_bernoulli_frequency;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_rng_sample;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "empty and full" `Quick test_bitset_empty_full;
          Alcotest.test_case "word boundaries" `Quick test_bitset_word_boundaries;
          Alcotest.test_case "add remove" `Quick test_bitset_add_remove;
          Alcotest.test_case "out of range" `Quick test_bitset_out_of_range;
          Alcotest.test_case "mismatched universes" `Quick test_bitset_mismatched_universe;
          Alcotest.test_case "set operations" `Quick test_bitset_set_ops;
          Alcotest.test_case "complement involution" `Quick test_bitset_complement_involution;
          Alcotest.test_case "disjoint" `Quick test_bitset_disjoint;
          Alcotest.test_case "choose" `Quick test_bitset_choose;
          Alcotest.test_case "hash reads every word" `Quick test_bitset_hash_every_word;
          Alcotest.test_case "of_words checks its words" `Quick test_bitset_of_words_checks;
        ]
        @ List.map QCheck_alcotest.to_alcotest (qcheck_props @ word_order_props) );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "cumulative" `Quick test_stats_cumulative;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
        ] );
      ( "fileio",
        [
          Alcotest.test_case "atomic write" `Quick test_write_atomic_basic;
          Alcotest.test_case "interrupted write keeps original" `Quick
            test_write_atomic_interrupted;
        ] );
    ]
