(* Equivalence regression for the engine refactor: the public entry
   points ([Synthesizer.synthesize], now thin wrappers) and the layered
   engine ([Engine_search] composed by hand) must produce byte-identical
   programs and search statistics on the full curated benchmark suite,
   and the Domain-pool batch mode must match sequential mode exactly.

   The budget is deterministic — a large wall-clock timeout and a hard
   expansion cap — so every run ends in Success or Exhausted, never
   Timeout, and the counters are reproducible. *)

module Lang = Imageeye_core.Lang
module Synthesizer = Imageeye_core.Synthesizer
module Engine_search = Imageeye_core.Engine_search
module Edit = Imageeye_core.Edit
module Universe = Imageeye_symbolic.Universe
module Dataset = Imageeye_scene.Dataset
module Batch = Imageeye_vision.Batch
module Task = Imageeye_tasks.Task
module Benchmarks = Imageeye_tasks.Benchmarks
module Domainpool = Imageeye_util.Domainpool
module Eval = Imageeye_core.Eval

let config =
  {
    Synthesizer.default_config with
    timeout_s = 600.0;
    (* hit only on a pathologically slow machine *)
    max_expansions = 4_000;
  }

let dataset_size = function
  | Dataset.Wedding -> 6
  | Dataset.Receipts -> 4
  | Dataset.Objects -> 10

let environments = Hashtbl.create 4

let environment ~n_images domain =
  match Hashtbl.find_opt environments (domain, n_images) with
  | Some e -> e
  | None ->
      let dataset = Dataset.generate ~n_images ~seed:42 domain in
      let u = Batch.universe_of_scenes dataset.scenes in
      let e = (dataset, u) in
      Hashtbl.add environments (domain, n_images) e;
      e

let edit_on_image u edit img =
  let ids = Universe.objects_of_image u img in
  Edit.of_list
    (List.filter (fun (id, _) -> List.mem id ids) (Edit.bindings edit))

(* One demonstration: the ground-truth edit on the first image where it
   is non-empty (what a user would draw in round one).  A few tasks
   target rare objects ("the car with number 319") that a small dataset
   does not contain; those fall back to the paper-sized dataset. *)
let spec_at ~n_images task =
  let dataset, u = environment ~n_images task.Task.domain in
  let full_edit = Edit.induced_by_program u task.Task.ground_truth in
  let demo =
    List.find_map
      (fun (s : Imageeye_scene.Scene.t) ->
        let e = edit_on_image u full_edit s.image_id in
        if Edit.is_empty e then None else Some (s.image_id, e))
      dataset.scenes
  in
  match demo with
  | Some (img, e) -> Some (Edit.Spec.make u [ (img, e) ])
  | None -> None

let spec_for task =
  match spec_at ~n_images:(dataset_size task.Task.domain) task with
  | Some spec -> Some spec
  | None ->
      spec_at ~n_images:(Dataset.default_image_count task.Task.domain) task

(* Everything observable about an outcome except wall-clock time. *)
let stats_sig (s : Synthesizer.stats) =
  Printf.sprintf "popped=%d enqueued=%d infeasible=%d reducible=%d nodes=%d {%s}"
    s.popped s.enqueued s.pruned_infeasible s.pruned_reducible s.nodes
    (String.concat ", "
       (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) s.prune_counts))

let outcome_sig = function
  | Synthesizer.Success (p, s) ->
      Printf.sprintf "success %s | %s" (Lang.program_to_string p) (stats_sig s)
  | Synthesizer.Timeout s -> "timeout | " ^ stats_sig s
  | Synthesizer.Exhausted s -> "exhausted | " ^ stats_sig s

(* The evaluation cache reports its own hit/miss counters through
   [prune_counts] and saves node evaluations; stripping both leaves
   exactly what must be byte-identical between cached and uncached runs
   (programs, worklist traffic, per-pass prune attribution). *)
let strip_cache_counts (s : Synthesizer.stats) =
  {
    s with
    Synthesizer.nodes = 0;
    prune_counts =
      List.filter
        (fun (l, _) ->
          not (String.length l >= 11 && String.sub l 0 11 = "eval-cache("))
        s.prune_counts;
  }

let map_stats f = function
  | Synthesizer.Success (p, s) -> Synthesizer.Success (p, f s)
  | Synthesizer.Timeout s -> Synthesizer.Timeout (f s)
  | Synthesizer.Exhausted s -> Synthesizer.Exhausted (f s)

(* Fig. 8 rebuilt directly on the layered engine, bypassing the
   Synthesizer wrappers: one Engine_search.search per demonstrated
   action, folded in action order. *)
let engine_synthesize spec =
  let u = spec.Edit.Spec.universe in
  let rec go acc stats_acc = function
    | [] -> Synthesizer.Success (List.rev acc, stats_acc)
    | action :: rest -> (
        match
          Engine_search.search ~config ~limit:1 u (Edit.Spec.output_for_action spec action)
        with
        | e :: _, _, st ->
            go ((e, action) :: acc) (Synthesizer.add_stats stats_acc st) rest
        | [], `Timeout, st -> Synthesizer.Timeout (Synthesizer.add_stats stats_acc st)
        | [], (`Exhausted | `Found_enough), st ->
            Synthesizer.Exhausted (Synthesizer.add_stats stats_acc st))
  in
  go [] Synthesizer.empty_stats (Edit.Spec.demonstrated_actions spec)

let check_task ~pool task =
  match spec_for task with
  | None ->
      Alcotest.failf "task %d: ground truth edits no image of the test dataset"
        task.Task.id
  | Some spec ->
      (* A search carries no state into the next one over the same
         universe: a repeat must match the first run byte-for-byte,
         program and every statistic but wall time. *)
      let first = Synthesizer.synthesize ~config spec in
      let n0 = Eval.count_nodes_evaluated () in
      let wrapper = Synthesizer.synthesize ~config spec in
      let cached_nodes = Eval.count_nodes_evaluated () - n0 in
      (match wrapper with
      | Synthesizer.Timeout _ ->
          Alcotest.failf "task %d: budget is supposed to be deterministic" task.Task.id
      | _ -> ());
      Alcotest.(check string)
        (Printf.sprintf "task %d: repeated search = first search" task.Task.id)
        (outcome_sig first) (outcome_sig wrapper);
      Alcotest.(check string)
        (Printf.sprintf "task %d: wrapper = layered engine" task.Task.id)
        (outcome_sig wrapper)
        (outcome_sig (engine_synthesize spec));
      Alcotest.(check string)
        (Printf.sprintf "task %d: pool = sequential" task.Task.id)
        (outcome_sig wrapper)
        (outcome_sig (Synthesizer.synthesize ~config ~pool spec));
      (* The memoized incremental evaluator is a pure optimization: with
         the cache counters stripped, a cache-off run is byte-identical. *)
      let n1 = Eval.count_nodes_evaluated () in
      let uncached =
        Synthesizer.synthesize
          ~config:{ config with Synthesizer.eval_cache = false }
          spec
      in
      let uncached_nodes = Eval.count_nodes_evaluated () - n1 in
      Alcotest.(check string)
        (Printf.sprintf "task %d: eval cache preserves behavior" task.Task.id)
        (outcome_sig (map_stats strip_cache_counts wrapper))
        (outcome_sig (map_stats strip_cache_counts uncached));
      Alcotest.(check bool)
        (Printf.sprintf "task %d: cache never evaluates more nodes (%d vs %d)"
           task.Task.id cached_nodes uncached_nodes)
        true
        (cached_nodes <= uncached_nodes);
      (* The forward-backward fixpoint only discards candidates with no
         solving completion and only tightens hole goals soundly, so it is
         solution-preserving: with it off the search must return the
         byte-identical program — while popping and evaluating at least
         as much (the analysis itself never evaluates extractor nodes;
         [stats.nodes] is per-search and cache-deterministic). *)
      let no_fb =
        Synthesizer.synthesize ~config:{ config with Synthesizer.fwd_bwd = false } spec
      in
      match (wrapper, no_fb) with
      | Synthesizer.Success (p, s_on), Synthesizer.Success (q, s_off) ->
          Alcotest.(check string)
            (Printf.sprintf "task %d: fwd-bwd on/off programs identical" task.Task.id)
            (Lang.program_to_string p) (Lang.program_to_string q);
          Alcotest.(check bool)
            (Printf.sprintf "task %d: fwd-bwd never evaluates more nodes (%d vs %d)"
               task.Task.id s_on.Synthesizer.nodes s_off.Synthesizer.nodes)
            true
            (s_on.Synthesizer.nodes <= s_off.Synthesizer.nodes);
          Alcotest.(check bool)
            (Printf.sprintf "task %d: fwd-bwd never pops more (%d vs %d)" task.Task.id
               s_on.Synthesizer.popped s_off.Synthesizer.popped)
            true
            (s_on.Synthesizer.popped <= s_off.Synthesizer.popped)
      | Synthesizer.Exhausted _, Synthesizer.Exhausted _ -> ()
      | _ -> Alcotest.failf "task %d: fwd-bwd changed solvability" task.Task.id

let suite_case domain =
  Alcotest.test_case (Dataset.domain_name domain) `Slow (fun () ->
      Domainpool.with_pool ~jobs:2 (function
        | None -> Alcotest.fail "expected a pool"
        | Some pool -> List.iter (check_task ~pool) (Benchmarks.for_domain domain)))

let () =
  Alcotest.run "engine-equivalence"
    (List.map (fun d -> (Dataset.domain_name d, [ suite_case d ])) Dataset.all_domains)
