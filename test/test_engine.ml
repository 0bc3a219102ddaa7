(* Tests for the layered search engine: the generic worklist scheduler
   (size-then-depth order, FIFO ties, tiered expansion), the composable
   pruning pipeline (independent pass toggling with per-pass attribution
   in [stats.prune_counts]), the event recorder, hole expansion against
   the implementation it replaced, and the Domain pool (submission-order
   results, exception propagation). *)

module Scheduler = Imageeye_engine.Scheduler
module Events = Imageeye_engine.Events
module Clock = Imageeye_util.Clock
module Domainpool = Imageeye_util.Domainpool
module Runner = Imageeye_tasks.Runner
module Synthesizer = Imageeye_core.Synthesizer
module Simage = Imageeye_symbolic.Simage
open Test_support

(* ---------- Scheduler: the plain worklist ---------- *)

let test_scheduler_size_then_depth () =
  let q = Scheduler.create () in
  Scheduler.push q (2, 0) "shallow-but-big";
  Scheduler.push q (1, 5) "small-deep";
  Scheduler.push q (1, 2) "small-first";
  Scheduler.push q (1, 2) "small-second";
  Scheduler.push q (3, 0) "biggest";
  Alcotest.(check int) "length" 5 (Scheduler.length q);
  let rec drain acc =
    match Scheduler.pop q with
    | None -> List.rev acc
    | Some (_, x) -> drain (x :: acc)
  in
  Alcotest.(check (list string)) "size first, then depth, then FIFO"
    [ "small-first"; "small-second"; "small-deep"; "shallow-but-big"; "biggest" ]
    (drain []);
  Alcotest.(check int) "drained" 0 (Scheduler.length q)

(* The worklist against a model: a list in push order whose next entry is
   the first of a stable sort by (size, depth).  Pops are interleaved
   with pushes, so many pushes land below the last popped priority, and
   [length] is checked after every operation.  [None] is a pop. *)
let scheduler_model_prop =
  QCheck2.Test.make ~name:"push/pop = stable sort by priority" ~count:500
    ~print:QCheck2.Print.(list (option (pair int int)))
    QCheck2.Gen.(
      list_size (int_bound 120)
        (frequency
           [ (3, map Option.some (pair (int_bound 6) (int_bound 6))); (2, return None) ]))
    (fun ops ->
      let q = Scheduler.create () in
      let model = ref [] in
      List.iteri
        (fun id op ->
          (match op with
          | Some prio ->
              Scheduler.push q prio id;
              model := !model @ [ (prio, id) ]
          | None ->
              let expected =
                match List.stable_sort (fun (a, _) (b, _) -> compare a b) !model with
                | [] -> None
                | first :: _ -> Some first
              in
              let got = Scheduler.pop q in
              if got <> expected then
                QCheck2.Test.fail_reportf "op %d: popped %s, expected %s" id
                  (match got with Some (_, x) -> string_of_int x | None -> "nothing")
                  (match expected with Some (_, x) -> string_of_int x | None -> "nothing");
              model := List.filter (fun e -> Some e <> expected) !model);
          if Scheduler.length q <> List.length !model then
            QCheck2.Test.fail_reportf "op %d: length %d, expected %d" id
              (Scheduler.length q) (List.length !model))
        ops;
      true)

(* A toy expansion problem over strings: every expansion appends one
   character, so size = depth = length.  With max_size 2 the driver must
   pop the whole bounded space in size order, FIFO within a size. *)
let string_problem ~max_size =
  {
    Scheduler.Tiered.size = String.length;
    depth = String.length;
    min_delta = 1;
    max_delta = 1;
    max_size;
    expand =
      (fun s ~delta:_ ->
        if String.length s >= max_size then None else Some [ s ^ "a"; s ^ "b" ]);
    consider = (fun ~push x -> push x);
  }

let test_tiered_exploration_order () =
  let popped = ref [] in
  let r =
    Scheduler.Tiered.run (string_problem ~max_size:2)
      ~stop:(fun () -> None)
      ~on_pop:(fun s -> popped := s :: !popped)
      ~roots:[ "" ] ~exhausted:"exhausted"
  in
  Alcotest.(check string) "ran dry" "exhausted" r;
  Alcotest.(check (list string)) "breadth-first by size"
    [ ""; "a"; "b"; "aa"; "ab"; "ba"; "bb" ]
    (List.rev !popped)

let test_tiered_stop_consulted () =
  let popped = ref 0 in
  let r =
    Scheduler.Tiered.run (string_problem ~max_size:4)
      ~stop:(fun () -> if !popped >= 3 then Some "stopped" else None)
      ~on_pop:(fun _ -> incr popped)
      ~roots:[ "" ] ~exhausted:"exhausted"
  in
  Alcotest.(check string) "budget check fired" "stopped" r;
  Alcotest.(check int) "no pops after stop" 3 !popped

let test_tiered_pruning_in_consider () =
  (* A consider that rejects every 'b' prunes whole subtrees. *)
  let popped = ref [] in
  let problem =
    {
      (string_problem ~max_size:2) with
      Scheduler.Tiered.consider =
        (fun ~push x -> if not (String.contains x 'b') then push x);
    }
  in
  let _ =
    Scheduler.Tiered.run problem
      ~stop:(fun () -> None)
      ~on_pop:(fun s -> popped := s :: !popped)
      ~roots:[ "" ] ~exhausted:()
  in
  Alcotest.(check (list string)) "pruned subtrees never popped" [ ""; "a"; "aa" ]
    (List.rev !popped)

(* ---------- Events ---------- *)

let test_events_counters () =
  let seen = ref [] in
  let r = Events.create ~sink:(fun ev -> seen := ev :: !seen) () in
  Events.record r Events.Enqueued;
  Events.record r Events.Enqueued;
  Events.record r Events.Popped;
  Events.record r (Events.Pruned "goal-inference");
  Events.record r (Events.Pruned "goal-inference");
  Events.record r (Events.Pruned "equiv-rewrite");
  Events.record r (Events.Noted "partial-eval(const-solved)");
  Events.record r Events.Success;
  Alcotest.(check int) "enqueued" 2 (Events.enqueued r);
  Alcotest.(check int) "popped" 1 (Events.popped r);
  Alcotest.(check int) "successes" 1 (Events.successes r);
  Alcotest.(check int) "per-label" 2 (Events.pruned r "goal-inference");
  Alcotest.(check int) "absent label" 0 (Events.pruned r "nonexistent");
  Alcotest.(check (list (pair string int)))
    "counts sorted by label"
    [ ("equiv-rewrite", 1); ("goal-inference", 2); ("partial-eval(const-solved)", 1) ]
    (Events.counts r);
  Alcotest.(check int) "sink saw every event" 8 (List.length !seen);
  Alcotest.(check bool) "monotonic elapsed" true (Events.elapsed_s r >= 0.0)

let test_events_bulk_counter () =
  let r = Events.create () in
  Events.record r (Events.Counted ("eval-cache(memo-hit)", 41));
  Events.record r (Events.Counted ("eval-cache(memo-hit)", 1));
  Events.record r (Events.Noted "eval-cache(memo-hit)");
  Alcotest.(check (list (pair string int)))
    "bulk counter adds n at once"
    [ ("eval-cache(memo-hit)", 43) ]
    (Events.counts r)

let test_clock_monotonic () =
  let c = Clock.counter () in
  let a = Clock.elapsed_s c in
  let b = Clock.elapsed_s c in
  Alcotest.(check bool) "non-negative" true (a >= 0.0);
  Alcotest.(check bool) "non-decreasing" true (b >= a)

(* ---------- Pruning pipeline: independent toggling, attribution ---------- *)

let stats_of = function
  | Synthesizer.Success (_, s) | Synthesizer.Timeout s | Synthesizer.Exhausted s -> s

let solved = function Synthesizer.Success _ -> true | _ -> false

let run_with tweak =
  (* The Fig. 4 task (select the middle cat) has no one-predicate
     solution, so the search explores enough of the space to exercise
     every pruning pass. *)
  let u = three_cats_universe () in
  let i_out = Simage.of_ids u [ 1 ] in
  let config = tweak { Synthesizer.default_config with timeout_s = 60.0 } in
  Synthesizer.synthesize_extractor ~config u i_out

let count stats label =
  match List.assoc_opt label stats.Synthesizer.prune_counts with
  | Some n -> n
  | None -> 0

let test_full_pipeline_attribution () =
  let r = run_with Fun.id in
  Alcotest.(check bool) "solves" true (solved r);
  let s = stats_of r in
  Alcotest.(check int) "legacy infeasible counter = goal-inference pass"
    s.Synthesizer.pruned_infeasible
    (count s "goal-inference");
  Alcotest.(check int) "legacy reducible counter = equivalence passes"
    s.Synthesizer.pruned_reducible
    (count s "equiv-rewrite" + count s "equiv-dedup");
  Alcotest.(check bool) "goal inference fired" true (count s "goal-inference" > 0);
  Alcotest.(check bool) "rewriting fired" true (count s "equiv-rewrite" > 0)

let test_toggle_goal_inference () =
  let r = run_with (fun c -> { c with Synthesizer.goal_inference = false }) in
  let s = stats_of r in
  Alcotest.(check int) "no infeasibility pruning" 0 s.Synthesizer.pruned_infeasible;
  Alcotest.(check bool) "pass absent from attribution" true
    (not (List.mem_assoc "goal-inference" s.Synthesizer.prune_counts));
  Alcotest.(check bool) "other passes unaffected" true (count s "equiv-rewrite" > 0)

let test_toggle_equiv_reduction () =
  let r = run_with (fun c -> { c with Synthesizer.equiv_reduction = false }) in
  let s = stats_of r in
  Alcotest.(check int) "no reducibility pruning" 0 s.Synthesizer.pruned_reducible;
  Alcotest.(check bool) "rewrite pass absent" true
    (not (List.mem_assoc "equiv-rewrite" s.Synthesizer.prune_counts));
  Alcotest.(check bool) "dedup pass absent" true
    (not (List.mem_assoc "equiv-dedup" s.Synthesizer.prune_counts));
  Alcotest.(check bool) "goal inference unaffected" true (count s "goal-inference" > 0)

let test_toggle_partial_eval () =
  let r = run_with (fun c -> { c with Synthesizer.partial_eval = false }) in
  let s = stats_of r in
  (* Form-level dedup needs folded forms, so it is only in the pipeline
     when partial evaluation is on. *)
  Alcotest.(check bool) "dedup pass absent" true
    (not (List.mem_assoc "equiv-dedup" s.Synthesizer.prune_counts));
  Alcotest.(check bool) "const fast path absent" true
    (not (List.mem_assoc "partial-eval(const-solved)" s.Synthesizer.prune_counts))

let test_toggle_fwd_bwd () =
  (* On by default: the analysis runs and reports its round/tightening
     counters.  Off: the pass and its counters vanish from attribution. *)
  let s_on = stats_of (run_with Fun.id) in
  Alcotest.(check bool) "analysis ran" true (count s_on "fwd-bwd(iterations)" > 0);
  let s_off = stats_of (run_with (fun c -> { c with Synthesizer.fwd_bwd = false })) in
  List.iter
    (fun label ->
      Alcotest.(check bool) (label ^ " absent") true
        (not (List.mem_assoc label s_off.Synthesizer.prune_counts)))
    [ "fwd-bwd"; "fwd-bwd(iterations)"; "fwd-bwd(tightened)" ];
  (* The analysis consumes goal annotations and collapsed constants, so
     it drops out of the pipeline with either prerequisite. *)
  let s_no_goals =
    stats_of (run_with (fun c -> { c with Synthesizer.goal_inference = false }))
  in
  Alcotest.(check bool) "inert without goal inference" true
    (not (List.mem_assoc "fwd-bwd(iterations)" s_no_goals.Synthesizer.prune_counts))

let test_info_label () =
  let module Prune = Imageeye_core.Prune in
  Alcotest.(check bool) "counter" true (Prune.is_info_label "fwd-bwd(iterations)");
  Alcotest.(check bool) "cache counter" true (Prune.is_info_label "eval-cache(memo-hit)");
  Alcotest.(check bool) "pass label" false (Prune.is_info_label "fwd-bwd");
  Alcotest.(check bool) "pass label" false (Prune.is_info_label "goal-inference")

let test_ablations_search_more () =
  (* Every ablation row must still solve the task, at no fewer pops.
     The rows come from the shared fig16 table, so the benchmark driver,
     the CLI and this test stay in sync. *)
  let full = stats_of (run_with Fun.id) in
  List.iter
    (fun (name, tweak) ->
      let r = run_with tweak in
      Alcotest.(check bool) (name ^ " still solves") true (solved r);
      Alcotest.(check bool)
        (name ^ " explores at least as much")
        true
        ((stats_of r).Synthesizer.popped >= full.Synthesizer.popped))
    (List.filter (fun (name, _) -> name <> "full") Synthesizer.ablations)

(* ---------- Domainpool ---------- *)

let test_pool_rejects_zero () =
  Alcotest.check_raises "need a worker" (Invalid_argument
    "Domainpool.create: need at least one worker") (fun () ->
      ignore (Domainpool.create 0))

let test_pool_map_order () =
  let pool = Domainpool.create 3 in
  Fun.protect
    ~finally:(fun () -> Domainpool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "size" 3 (Domainpool.size pool);
      let xs = List.init 40 Fun.id in
      Alcotest.(check (list int)) "submission order"
        (List.map (fun x -> x * x) xs)
        (Domainpool.map pool (fun x -> x * x) xs);
      (* Later submissions finish first; results must still be ordered. *)
      let ys = List.init 12 Fun.id in
      Alcotest.(check (list int)) "order despite uneven runtimes" ys
        (Domainpool.map pool
           (fun i ->
             Unix.sleepf (float_of_int (12 - i) *. 0.002);
             i)
           ys);
      Alcotest.(check (list int)) "empty batch" [] (Domainpool.map pool (fun x -> x) []))

let test_pool_exception_propagation () =
  let pool = Domainpool.create 2 in
  Fun.protect
    ~finally:(fun () -> Domainpool.shutdown pool)
    (fun () ->
      Alcotest.check_raises "earliest failure wins" (Failure "boom 3") (fun () ->
          ignore
            (Domainpool.map pool
               (fun i -> if i >= 3 then failwith (Printf.sprintf "boom %d" i) else i)
               (List.init 8 Fun.id)));
      (* The pool survives a failed batch. *)
      Alcotest.(check (list int)) "pool still usable" [ 0; 1; 2 ]
        (Domainpool.map pool Fun.id [ 0; 1; 2 ]))

let test_pool_survives_raising_submit () =
  let pool = Domainpool.create 2 in
  (* A directly submitted job that raises must not silently kill its
     worker (regression: the worker's loop had no guard, so the pool
     shrank by one domain per raising job). *)
  Domainpool.submit pool (fun () -> failwith "late boom");
  let xs = List.init 20 Fun.id in
  Alcotest.(check (list int)) "both workers still serve" (List.map succ xs)
    (Domainpool.map pool succ xs);
  (* The failure is not swallowed either: shutdown surfaces it... *)
  Alcotest.check_raises "shutdown re-raises the job's exception"
    (Failure "late boom") (fun () -> Domainpool.shutdown pool);
  (* ...exactly once, so a second shutdown stays a no-op. *)
  Domainpool.shutdown pool

let test_pool_first_failure_wins () =
  let pool = Domainpool.create 1 in
  (* A single worker forces the two raising jobs to run in submission
     order, so "first failure" is deterministic here.  The second job
     raises *after* the first failure is already recorded: its exception
     is dropped by design (first-failure-wins), and the worker keeps
     serving. *)
  Domainpool.submit pool (fun () -> failwith "first boom");
  Domainpool.submit pool (fun () -> failwith "second boom");
  Alcotest.(check (list int)) "worker survives both raising jobs" [ 1; 2; 3 ]
    (Domainpool.map pool Fun.id [ 1; 2; 3 ]);
  Alcotest.(check int) "drained queue" 0 (Domainpool.pending pool);
  Alcotest.check_raises "shutdown re-raises the first exception only"
    (Failure "first boom") (fun () -> Domainpool.shutdown pool);
  (* Idempotent after a raising shutdown: the later exception does not
     resurface on repeated calls. *)
  Domainpool.shutdown pool;
  Domainpool.shutdown pool

let test_pool_pending_gauge () =
  let pool = Domainpool.create 1 in
  Fun.protect
    ~finally:(fun () -> Domainpool.shutdown pool)
    (fun () ->
      let release = Mutex.create () in
      Mutex.lock release;
      (* Park the only worker so later submissions provably queue. *)
      Domainpool.submit pool (fun () ->
          Mutex.lock release;
          Mutex.unlock release);
      let deadline = Imageeye_util.Clock.counter () in
      while Domainpool.pending pool > 0 && Imageeye_util.Clock.elapsed_s deadline < 5.0 do
        Domain.cpu_relax ()
      done;
      Domainpool.submit pool ignore;
      Domainpool.submit pool ignore;
      Alcotest.(check int) "two jobs parked behind the running one" 2
        (Domainpool.pending pool);
      Mutex.unlock release)

let test_pool_with_pool () =
  Alcotest.(check bool) "jobs=1 stays sequential" true
    (Domainpool.with_pool ~jobs:1 (fun p -> p = None));
  Alcotest.(check (list int)) "jobs=2 spawns a pool"
    [ 2; 4; 6 ]
    (Domainpool.with_pool ~jobs:2 (function
      | None -> Alcotest.fail "expected a pool"
      | Some pool -> Domainpool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_runner_matches_sequential () =
  let xs = List.init 25 Fun.id in
  let f x = (x * 7) mod 13 in
  Alcotest.(check (list int)) "parallel = sequential" (List.map f xs)
    (Runner.map ~jobs:3 f xs);
  Alcotest.(check (list int)) "jobs=1 path" (List.map f xs) (Runner.map ~jobs:1 f xs)

(* ---------- Expansion ---------- *)

(* The expansion the one-walk version replaced, kept as the oracle: it
   rebuilt each spine level through nested option and list maps. *)
let reference_expand instantiate ~delta root =
  let rec go (p : Partial.t) =
    match p.node with
    | Partial.Hole ->
        let goal =
          match Partial.tight_for root ~hole:p with Some g -> g | None -> p.goal
        in
        Some (instantiate ~delta goal)
    | Partial.All | Partial.Is _ -> None
    | Partial.Complement q ->
        Option.map (List.map (fun q' -> Partial.make p.goal (Partial.Complement q'))) (go q)
    | Partial.Union qs ->
        Option.map
          (List.map (fun qs' -> Partial.make p.goal (Partial.Union qs')))
          (go_list qs)
    | Partial.Intersect qs ->
        Option.map
          (List.map (fun qs' -> Partial.make p.goal (Partial.Intersect qs')))
          (go_list qs)
    | Partial.Find (q, pr, f) ->
        Option.map
          (List.map (fun q' -> Partial.make p.goal (Partial.Find (q', pr, f))))
          (go q)
    | Partial.Filter (q, pr) ->
        Option.map
          (List.map (fun q' -> Partial.make p.goal (Partial.Filter (q', pr))))
          (go q)
  and go_list = function
    | [] -> None
    | q :: rest -> (
        match go q with
        | Some qs' -> Some (List.map (fun q' -> q' :: rest) qs')
        | None -> Option.map (List.map (fun rest' -> q :: rest')) (go_list rest))
  in
  Option.map
    (List.map (fun c ->
         Partial.inherit_tight ~from:root c;
         c))
    (go root)

(* A stand-in for the grammar: [delta + 1] fresh instantiations of every
   shape, annotated with the goal they were asked for. *)
let stub_instantiate ~delta goal =
  let hole () = Partial.hole goal in
  List.filteri
    (fun i _ -> i <= delta)
    [
      Partial.make goal Partial.All;
      Partial.make goal (Partial.Complement (hole ()));
      Partial.make goal (Partial.Union [ hole (); hole () ]);
      Partial.make goal (Partial.Find (hole (), Pred.Smiling, Func.Get_left));
      Partial.make goal (Partial.Filter (hole (), Pred.Face_object));
    ]

(* Same shape, parameters and (physical) goals everywhere. *)
let rec same_candidate (a : Partial.t) (b : Partial.t) =
  a.goal == b.goal
  &&
  match (a.node, b.node) with
  | Partial.Hole, Partial.Hole | Partial.All, Partial.All -> true
  | Partial.Is p, Partial.Is q -> Pred.equal p q
  | Partial.Complement x, Partial.Complement y -> same_candidate x y
  | Partial.Union xs, Partial.Union ys | Partial.Intersect xs, Partial.Intersect ys ->
      List.length xs = List.length ys && List.for_all2 same_candidate xs ys
  | Partial.Find (x, p, f), Partial.Find (y, q, g) ->
      Pred.equal p q && Func.equal f g && same_candidate x y
  | Partial.Filter (x, p), Partial.Filter (y, q) -> Pred.equal p q && same_candidate x y
  | _ -> false

(* Off the spine from [root] to its leftmost hole, [cand] holds [root]'s
   own subtrees, physically. *)
let rec shares_off_spine (root : Partial.t) (cand : Partial.t) =
  match (root.node, cand.node) with
  | Partial.Hole, _ -> true
  | Partial.Complement r, Partial.Complement c
  | Partial.Find (r, _, _), Partial.Find (c, _, _)
  | Partial.Filter (r, _), Partial.Filter (c, _) ->
      shares_off_spine r c
  | Partial.Union rs, Partial.Union cs | Partial.Intersect rs, Partial.Intersect cs ->
      let rec operands on_spine rs cs =
        match (rs, cs) with
        | [], [] -> true
        | r :: rs, c :: cs ->
            if (not on_spine) && not (Partial.is_complete r) then shares_off_spine r c && operands true rs cs
            else r == c && operands on_spine rs cs
        | _ -> false
      in
      operands false rs cs
  | _ -> false

let expand_reference_prop =
  QCheck2.Test.make ~name:"expand = nested reference" ~count:500
    QCheck2.Gen.(
      let* u = oneof [ universe_gen; multi_image_universe_gen ] in
      let* target = list_size (int_range 0 3) (int_bound (Imageeye_symbolic.Universe.size u - 1)) in
      let target = Simage.of_ids u target in
      let* p = partial_gen ~all_shapes:true u target in
      let* delta = int_range 0 4 and* tighten = int_range 0 2 in
      return (u, p, delta, tighten))
    (fun (u, root, delta, tighten) ->
      (* Tight entries for the leftmost hole and for a hole that is not
         filled, or none. *)
      let tight_goal = Goal.make ~under:(Simage.empty u) ~over:(Simage.full u) in
      let other = Partial.hole tight_goal in
      (match Option.map fst (Partial.leftmost_hole root) with
      | Some h when tighten = 1 -> Partial.set_tight root [ (h, tight_goal) ]
      | Some h when tighten = 2 -> Partial.set_tight root [ (other, tight_goal); (h, tight_goal) ]
      | _ -> ());
      match
        ( Imageeye_core.Engine_search.expand stub_instantiate ~delta root,
          reference_expand stub_instantiate ~delta root )
      with
      | None, None -> Partial.is_complete root
      | Some got, Some want ->
          List.length got = List.length want
          && List.for_all2 same_candidate got want
          && List.for_all (shares_off_spine root) got
          && List.for_all (fun c -> Partial.tight c == Partial.tight root) got
      | Some _, None | None, Some _ -> false)

let () =
  Alcotest.run "engine"
    [
      ( "scheduler",
        [
          Alcotest.test_case "size-then-depth with FIFO ties" `Quick
            test_scheduler_size_then_depth;
          Alcotest.test_case "tiered exploration order" `Quick
            test_tiered_exploration_order;
          Alcotest.test_case "stop consulted before dequeue" `Quick
            test_tiered_stop_consulted;
          Alcotest.test_case "consider gates the worklist" `Quick
            test_tiered_pruning_in_consider;
          QCheck_alcotest.to_alcotest scheduler_model_prop;
        ] );
      ( "events",
        [
          Alcotest.test_case "counters and attribution" `Quick test_events_counters;
          Alcotest.test_case "bulk counters" `Quick test_events_bulk_counter;
          Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
        ] );
      ( "pruning-pipeline",
        [
          Alcotest.test_case "full pipeline attribution" `Quick
            test_full_pipeline_attribution;
          Alcotest.test_case "toggle goal inference" `Quick test_toggle_goal_inference;
          Alcotest.test_case "toggle equivalence reduction" `Quick
            test_toggle_equiv_reduction;
          Alcotest.test_case "toggle partial evaluation" `Quick
            test_toggle_partial_eval;
          Alcotest.test_case "toggle fwd-bwd analysis" `Quick test_toggle_fwd_bwd;
          Alcotest.test_case "info labels" `Quick test_info_label;
          Alcotest.test_case "ablations solve with more search" `Quick
            test_ablations_search_more;
        ] );
      ("expansion", [ QCheck_alcotest.to_alcotest expand_reference_prop ]);
      ( "domainpool",
        [
          Alcotest.test_case "rejects zero workers" `Quick test_pool_rejects_zero;
          Alcotest.test_case "ordered map" `Quick test_pool_map_order;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "survives a raising submitted job" `Quick
            test_pool_survives_raising_submit;
          Alcotest.test_case "first failure wins, shutdown idempotent" `Quick
            test_pool_first_failure_wins;
          Alcotest.test_case "pending queue-depth gauge" `Quick
            test_pool_pending_gauge;
          Alcotest.test_case "with_pool" `Quick test_pool_with_pool;
          Alcotest.test_case "runner matches sequential" `Quick
            test_runner_matches_sequential;
        ] );
    ]
