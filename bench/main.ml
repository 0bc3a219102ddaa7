(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 7) plus a Bechamel microbenchmark suite.

   Usage:  main.exe [table1] [table2] [fig15] [fig16] [rq5] [micro]
                    [--json <path>] [--append <path>]
   With no section arguments, all sections run in paper order.
   [--json <path>] additionally writes the table-2 sweep trajectory
   (per-task solved/time/nodes/prune-counts plus aggregates, schema of
   [Imageeye_interact.Sweep_json]) to <path>, running the sweep if no
   chosen section already did.
   [--append <path>] appends one per-commit perf-history JSONL row
   (commit, mode, solved, nodes, prune_counts, per-task solved/nodes)
   to <path> and exits non-zero on per-task node regressions (>5% plus
   a small absolute slack) against the previous row of the same mode,
   comparing only tasks solved in both rows (solved tasks have
   deterministic node counts); rows predating the per-task format fall
   back to the old global >5% total-nodes gate.

   Environment knobs:
     IMAGEEYE_QUICK=1           smaller datasets and timeouts (for CI)
     IMAGEEYE_SEED=<int>        dataset seed (default 42)
     IMAGEEYE_TIMEOUT=<sec>     per-round synthesis timeout (default 120)
     IMAGEEYE_EUS_TIMEOUT=<sec> EUSolver per-round timeout (default 30)
     IMAGEEYE_ABL_TIMEOUT=<sec> ablation per-round timeout (default 10)
     IMAGEEYE_JOBS=<n>          Domain-pool size for task sweeps (default 1;
                                per-task log lines may interleave, and a
                                binding wall-clock timeout can cut
                                differently under core contention)
     IMAGEEYE_FWD_BWD=0         disable bidirectional abstract
                                interpretation in every non-ablation
                                config (the BENCH_PR6.json baseline)
     IMAGEEYE_OPTIMAL=1         cost-directed optimal synthesis in every
                                non-ablation config: return the
                                minimal-cost consistent program instead
                                of the first one found (the
                                BENCH_PR9.json on-mode; off is its
                                baseline)
     IMAGEEYE_ABLATION=<name>   restrict fig16 to one named ablation row
                                (unknown names list the table, exit 2)
     IMAGEEYE_JSON_BASELINE=<p> embed the JSON document at <p> (a previous
                                --json output) verbatim as a "baseline"
                                field of the emitted trajectory
     IMAGEEYE_JSON_CI_MIN_SOLVED=<n>
                                emit <n> as "ci_min_solved" (the solved
                                floor CI enforces on quick-mode sweeps)
     IMAGEEYE_JSON_CI_MAX_NODES=<n>
                                emit <n> as "ci_max_nodes" (the
                                total-nodes ceiling CI enforces on
                                quick-mode sweeps) *)

module Lang = Imageeye_core.Lang
module Cost = Imageeye_core.Cost
module Synthesizer = Imageeye_core.Synthesizer
module Eusolver = Imageeye_baseline.Eusolver
module Dataset = Imageeye_scene.Dataset
module Scene = Imageeye_scene.Scene
module Task = Imageeye_tasks.Task
module Benchmarks = Imageeye_tasks.Benchmarks
module Session = Imageeye_interact.Session
module Accuracy = Imageeye_interact.Accuracy
module Noise = Imageeye_vision.Noise
module Stats = Imageeye_util.Stats
module Tablefmt = Imageeye_util.Tablefmt
module Clock = Imageeye_util.Clock
module Runner = Imageeye_tasks.Runner

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n -> n
      | None ->
          Printf.eprintf "error: %s must be an integer, got %S\n%!" name v;
          exit 2)

let env_float name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
      match float_of_string_opt (String.trim v) with
      | Some f -> f
      | None ->
          Printf.eprintf "error: %s must be a number, got %S\n%!" name v;
          exit 2)

let env_bool name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
      match String.trim v with
      | "0" -> false
      | "1" -> true
      | _ ->
          Printf.eprintf "error: %s must be 0 or 1, got %S\n%!" name v;
          exit 2)

let quick = Sys.getenv_opt "IMAGEEYE_QUICK" = Some "1"
let seed = env_int "IMAGEEYE_SEED" 42
let jobs = env_int "IMAGEEYE_JOBS" 1
let timeout = env_float "IMAGEEYE_TIMEOUT" (if quick then 20.0 else 120.0)
let eus_timeout = env_float "IMAGEEYE_EUS_TIMEOUT" (if quick then 10.0 else 30.0)
let abl_timeout = env_float "IMAGEEYE_ABL_TIMEOUT" (if quick then 5.0 else 10.0)
let fwd_bwd = env_bool "IMAGEEYE_FWD_BWD" true
let optimal = env_bool "IMAGEEYE_OPTIMAL" false

(* Every non-ablation section starts from this, so a single env knob gives
   the before/after pair for the committed BENCH_PR6.json. *)
let base_config = { Synthesizer.default_config with fwd_bwd; optimality = optimal }

let dataset_size domain =
  if quick then
    match domain with Dataset.Wedding -> 40 | Dataset.Receipts -> 12 | Dataset.Objects -> 120
  else Dataset.default_image_count domain

let datasets =
  lazy
    (List.map
       (fun d -> (d, Dataset.generate ~n_images:(dataset_size d) ~seed d))
       Dataset.all_domains)

let dataset_for domain = List.assoc domain (Lazy.force datasets)

(* One perfect-detection batch universe per dataset, shared by every
   session over it. *)
let universes = Hashtbl.create 4

let universe_for domain =
  match Hashtbl.find_opt universes domain with
  | Some u -> u
  | None ->
      let u = Imageeye_vision.Batch.universe_of_scenes (dataset_for domain).scenes in
      Hashtbl.add universes domain u;
      u

(* Datasets and batch universes are lazily built and cached in structures
   that are not domain-safe; force them all before fanning out. *)
let prefetch () =
  if jobs > 1 then List.iter (fun d -> ignore (universe_for d)) Dataset.all_domains

let say fmt = Printf.printf (fmt ^^ "\n%!")

let heading title =
  say "";
  say "==================================================================";
  say "%s" title;
  say "=================================================================="

(* ------------------------------------------------------------------ *)
(* Table 1: dataset statistics                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  heading "Table 1: statistics about images and tasks for each domain";
  let rows =
    List.map
      (fun domain ->
        let ds = dataset_for domain in
        let tasks = Benchmarks.for_domain domain in
        let sizes = List.map (fun t -> float_of_int (Task.size t)) tasks in
        [
          Dataset.domain_name domain;
          string_of_int (List.length ds.scenes);
          Tablefmt.fmt_float (Dataset.average_object_count ds);
          string_of_int (List.length tasks);
          Tablefmt.fmt_float (Stats.mean sizes);
        ])
      Dataset.all_domains
  in
  say "%s"
    (Tablefmt.render
       ~header:[ "Dataset"; "# Images"; "Avg. # Objects"; "# Tasks"; "Avg. Program Size" ]
       ~rows);
  say "(paper: Wedding 121/10/16/9.4, Receipts 38/59/13/7.8, Objects 608/3/21/8.3)"

(* ------------------------------------------------------------------ *)
(* Table 2: main results — shared session runs                         *)
(* ------------------------------------------------------------------ *)

let run_sessions ?(config = { base_config with timeout_s = timeout }) () =
  prefetch ();
  let nodes0 = Imageeye_core.Eval.count_nodes_evaluated () in
  let results =
    Runner.map ~jobs
      (fun task ->
        let dataset = dataset_for task.Task.domain in
        let t0 = Clock.counter () in
        let r =
          Session.run ~config ~batch_universe:(universe_for task.Task.domain) ~dataset task
        in
        say "  task %2d (%s, size %2d): %s rounds=%d last=%.2fs wall=%.1fs" task.Task.id
          (Dataset.domain_name task.Task.domain)
          (Task.size task)
          (if r.Session.solved then "solved " else "FAILED ")
          r.Session.examples_used r.Session.last_round_time (Clock.elapsed_s t0);
        r)
      Benchmarks.all
  in
  say "  nodes evaluated over the sweep: %d"
    (Imageeye_core.Eval.count_nodes_evaluated () - nodes0);
  results

let imageeye_results = lazy (run_sessions ())

(* Per-pass prune attribution: sum [stats.prune_counts] over every
   synthesis round of every session. *)
let prune_attribution results =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun (rd : Session.round) ->
          match rd.synth_stats with
          | None -> ()
          | Some s ->
              List.iter
                (fun (label, n) ->
                  let cell =
                    match Hashtbl.find_opt acc label with
                    | Some cell -> cell
                    | None ->
                        let cell = ref 0 in
                        Hashtbl.add acc label cell;
                        cell
                  in
                  cell := !cell + n)
                s.Synthesizer.prune_counts)
        r.Session.rounds)
    results;
  Hashtbl.fold (fun label cell rows -> (label, !cell) :: rows) acc []
  |> List.sort compare

(* The eval-cache counters live in [prune_counts] alongside the per-pass
   attribution but are a different kind of number (work saved, not
   candidates rejected), so they get their own summary line. *)
let cache_summary counts =
  let get label =
    Option.value ~default:0 (List.assoc_opt ("eval-cache(" ^ label ^ ")") counts)
  in
  let memo = get "memo-hit" in
  let vhit = get "value-hit" in
  let vmiss = get "value-miss" in
  let evaluated = get "evaluated" in
  let visited = memo + vhit + evaluated in
  if visited > 0 then begin
    say "";
    say "evaluation cache: %d node visits — %d memo hits, %d value-table hits,"
      visited memo vhit;
    say "  %d evaluated (%d value-table misses); hit rate %.1f%%" evaluated vmiss
      (100.0 *. float_of_int (memo + vhit) /. float_of_int visited)
  end

(* Same for the complete candidates decided directly from their folded
   constant: an outcome, not a rejection. *)
let const_summary counts =
  match List.assoc_opt "partial-eval(const-solved)" counts with
  | Some const when const > 0 ->
      say "";
      say "partial evaluation: %d complete candidates decided from their folded constant"
        const
  | _ -> ()

(* The forward-backward analysis likewise reports its volume of work
   (rounds run, hole goals tightened) next to its kill count. *)
let absint_summary counts =
  let get label = Option.value ~default:0 (List.assoc_opt label counts) in
  let iterations = get "fwd-bwd(iterations)" in
  if iterations > 0 then begin
    say "";
    say "fwd-bwd analysis: %d rounds, %d hole goals tightened, %d candidates killed"
      iterations
      (get "fwd-bwd(tightened)")
      (get "fwd-bwd")
  end

let prune_table results =
  match prune_attribution results with
  | [] -> ()
  | all_counts ->
      let info_counts, counts =
        List.partition (fun (l, _) -> Imageeye_core.Prune.is_info_label l) all_counts
      in
      cache_summary info_counts;
      const_summary info_counts;
      absint_summary (info_counts @ counts);
      let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
      say "";
      say "prune attribution (candidates rejected per pass):";
      say "%s"
        (Tablefmt.render
           ~header:[ "pass"; "pruned"; "share (%)" ]
           ~rows:
             (List.map
                (fun (label, n) ->
                  [
                    label;
                    string_of_int n;
                    Tablefmt.fmt_float (100.0 *. float_of_int n /. float_of_int (max 1 total));
                  ])
                counts))

let table2 () =
  heading "Table 2: summary of results for ImageEye";
  let results = Lazy.force imageeye_results in
  let row_for name filter =
    let rs = List.filter filter results in
    let solved = List.filter (fun r -> r.Session.solved) rs in
    let times = List.map (fun r -> r.Session.last_round_time) solved in
    let examples = List.map (fun r -> float_of_int r.Session.examples_used) solved in
    [
      name;
      Printf.sprintf "%d/%d" (List.length solved) (List.length rs);
      Printf.sprintf "%s ± %s" (Tablefmt.fmt_float (Stats.mean times))
        (Tablefmt.fmt_float (Stats.confidence95 times));
      Tablefmt.fmt_float (Stats.median times);
      Printf.sprintf "%s ± %s"
        (Tablefmt.fmt_float (Stats.mean examples))
        (Tablefmt.fmt_float ~decimals:2 (Stats.confidence95 examples));
    ]
  in
  let rows =
    List.map
      (fun d -> row_for (Dataset.domain_name d) (fun r -> r.Session.task.Task.domain = d))
      Dataset.all_domains
    @ [ row_for "Total" (fun _ -> true) ]
  in
  say "%s"
    (Tablefmt.render
       ~header:
         [ "Dataset"; "# solved"; "Avg. Synth Time (s)"; "Med. Synth Time (s)"; "Avg. # Examples" ]
       ~rows);
  say "(paper: Wedding 14/16, Receipts 13/13, Objects 21/21; total 48/50,";
  say " avg 12.8s, median 1.2s, avg ~3.8 examples)";
  List.iter
    (fun r ->
      if not r.Session.solved then
        say "  failure: task %d (%s) — %s" r.Session.task.Task.id
          r.Session.task.Task.description
          (match r.Session.failure with
          | Some Session.Synth_failed -> "synthesis timed out / exhausted"
          | Some Session.Rounds_exhausted -> "needed more than the round limit"
          | Some Session.No_useful_image -> "no useful demonstration image"
          | None -> "?"))
    results;
  prune_table results

(* ------------------------------------------------------------------ *)
(* Figure 15: ImageEye vs EUSolver by task difficulty                  *)
(* ------------------------------------------------------------------ *)

let size_buckets = [ (4, 5); (6, 6); (7, 7); (8, 9); (10, 12); (13, 16) ]

let bucket_label (lo, hi) = if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi

let fig15 () =
  heading "Figure 15: ImageEye vs EUSolver (tasks solved per AST-size bucket)";
  prefetch ();
  let eus_results =
    Runner.map ~jobs
      (fun task ->
        let dataset = dataset_for task.Task.domain in
        let t0 = Clock.counter () in
        let r =
          Session.run_with
            ~engine:(Session.eusolver_engine ~timeout_s:eus_timeout)
            ~batch_universe:(universe_for task.Task.domain) ~dataset task
        in
        say "  eusolver task %2d (size %2d): %s rounds=%d wall=%.1fs" task.Task.id
          (Task.size task)
          (if r.Session.solved then "solved " else "FAILED ")
          r.Session.examples_used (Clock.elapsed_s t0);
        r)
      Benchmarks.all
  in
  let ie_results = Lazy.force imageeye_results in
  let count results (lo, hi) =
    List.length
      (List.filter
         (fun r ->
           let s = Task.size r.Session.task in
           r.Session.solved && s >= lo && s <= hi)
         results)
  in
  let labels = List.map bucket_label size_buckets in
  let ie = List.map (count ie_results) size_buckets in
  let eus = List.map (count eus_results) size_buckets in
  say "%s"
    (Tablefmt.bar_chart ~title:"tasks solved (per ground-truth AST size bucket)" ~labels
       ~series:[ ("ImageEye", ie); ("EUSolver", eus) ]);
  let total results = List.length (List.filter (fun r -> r.Session.solved) results) in
  say "totals: ImageEye %d/50, EUSolver %d/50 (paper: 48 vs 34; gap grows with size)"
    (total ie_results) (total eus_results)

(* ------------------------------------------------------------------ *)
(* Figure 16: ablation study (cactus plot)                             *)
(* ------------------------------------------------------------------ *)

(* The rows come from the engine's shared named-ablation table
   ([Synthesizer.ablations]), so a technique added there appears here, in
   [imageeye sweep --ablation], and in the tests without further wiring.
   Beyond the three paper ablations, the table carries: no-fwd-bwd
   (bidirectional abstract interpretation; solution-preserving, so the
   solved set must match [full] and the separation is in nodes),
   and no-eval-cache (the memoized incremental evaluator; semantics-
   preserving).

   IMAGEEYE_ABLATION=<name> restricts fig16 to one named row (CI runs a
   few rows without paying for the whole table); an unknown name lists
   the table and exits non-zero instead of silently running nothing. *)
let ablations =
  match Sys.getenv_opt "IMAGEEYE_ABLATION" with
  | None | Some "" -> Synthesizer.ablations
  | Some name -> (
      match List.assoc_opt name Synthesizer.ablations with
      | Some tweak -> [ (name, tweak) ]
      | None ->
          Printf.eprintf "error: unknown ablation %S; available: %s\n%!" name
            (String.concat ", " (List.map fst Synthesizer.ablations));
          exit 2)

let fig16 () =
  heading "Figure 16: ablation study (cumulative synthesis time vs benchmarks solved)";
  let base = { base_config with timeout_s = abl_timeout } in
  let per_config =
    List.map
      (fun (name, tweak) ->
        say "  running ablation: %s (timeout %.0fs)" name abl_timeout;
        let results = run_sessions ~config:(tweak base) () in
        say "  ablation %s:" name;
        prune_table results;
        let solved_times =
          List.filter_map
            (fun r ->
              if r.Session.solved then
                Some (List.fold_left (fun acc (rd : Session.round) -> acc +. rd.synth_time) 0.0 r.Session.rounds)
              else None)
            results
        in
        (name, List.sort Float.compare solved_times))
      ablations
  in
  say "";
  say "cactus data: cumulative time (s) after solving N benchmarks";
  let checkpoints = [ 10; 20; 30; 35; 40; 45; 48; 50 ] in
  let header = "config" :: List.map string_of_int checkpoints in
  let rows =
    List.map
      (fun (name, times) ->
        let cumulative = Stats.cumulative times in
        let at n =
          if List.length cumulative >= n then
            Tablefmt.fmt_float (List.nth cumulative (n - 1))
          else "-"
        in
        name :: List.map at checkpoints)
      per_config
  in
  say "%s" (Tablefmt.render ~header ~rows);
  say "";
  say "%s"
    (Tablefmt.bar_chart ~title:"benchmarks solved within the per-round timeout"
       ~labels:[ "solved" ]
       ~series:(List.map (fun (name, times) -> (name, [ List.length times ])) per_config));
  say "(paper: disabling goal inference loses 4 tasks, partial evaluation 8, equivalence reduction 16)"

(* ------------------------------------------------------------------ *)
(* RQ5: reliability of the underlying neural models                    *)
(* ------------------------------------------------------------------ *)

let rq5 () =
  heading "RQ5: accuracy of synthesized programs under an imperfect detector";
  let results = Lazy.force imageeye_results in
  let samples = if quick then 8 else 20 in
  let per_domain =
    List.map
      (fun domain ->
        let ds = dataset_for domain in
        let domain_results =
          List.filter (fun r -> r.Session.task.Task.domain = domain) results
        in
        let reports =
          List.map
            (fun r ->
              (* Evaluate the synthesized program when available, otherwise
                 the ground truth (both are semantically correct; RQ5
                 measures the neural models, not the synthesizer). *)
              let prog =
                match r.Session.program with
                | Some p -> p
                | None -> r.Session.task.Task.ground_truth
              in
              Accuracy.evaluate ~noise:Noise.default_imperfect
                ~seed:(seed + r.Session.task.Task.id) ~samples prog ds)
            domain_results
        in
        let sampled = List.fold_left (fun a r -> a + r.Accuracy.sampled) 0 reports in
        let correct = List.fold_left (fun a r -> a + r.Accuracy.correct) 0 reports in
        (domain, sampled, correct))
      Dataset.all_domains
  in
  let rows =
    List.map
      (fun (domain, sampled, correct) ->
        [
          Dataset.domain_name domain;
          string_of_int sampled;
          string_of_int correct;
          Tablefmt.fmt_float (100.0 *. float_of_int correct /. float_of_int (max 1 sampled));
        ])
      per_domain
  in
  let total_s = List.fold_left (fun a (_, s, _) -> a + s) 0 per_domain in
  let total_c = List.fold_left (fun a (_, _, c) -> a + c) 0 per_domain in
  say "%s"
    (Tablefmt.render
       ~header:[ "Dataset"; "sampled images"; "intended output"; "accuracy (%)" ]
       ~rows:
         (rows
         @ [
             [
               "Total";
               string_of_int total_s;
               string_of_int total_c;
               Tablefmt.fmt_float
                 (100.0 *. float_of_int total_c /. float_of_int (max 1 total_s));
             ];
           ]));
  say "(paper: intended output on 87%% of sampled test images)";
  (* The overfitting signature optimal synthesis targets: programs that
     pin an exact identity (Face n / Word s) fit the demonstrations but
     break when the classifier confuses identities on unseen images. *)
  let overfit =
    List.length
      (List.filter
         (fun r ->
           match r.Session.program with
           | Some p -> (Cost.of_program p).Cost.generality > 0
           | None -> false)
         results)
  in
  say "overfit extractors: %d synthesized program(s) use exact-identity predicates%s"
    overfit
    (if optimal then " (optimal mode)" else "")

(* ------------------------------------------------------------------ *)
(* Stress: randomly generated tasks beyond the curated 50              *)
(* ------------------------------------------------------------------ *)

let stress () =
  heading "Stress: randomly generated tasks (extension; not in the paper)";
  let per_domain = if quick then 4 else 10 in
  let config = { base_config with timeout_s = abl_timeout *. 2.0 } in
  let rows =
    List.map
      (fun domain ->
        let dataset = dataset_for domain in
        let batch = universe_for domain in
        let tasks =
          Imageeye_tasks.Random_tasks.generate ~seed:(seed + 17) ~count:per_domain ~dataset
        in
        let results =
          Runner.map ~jobs
            (fun task ->
              let r = Session.run ~config ~batch_universe:batch ~dataset task in
              say "  random task %d (%s, size %d): %s rounds=%d" task.Task.id
                (Dataset.domain_name domain) (Task.size task)
                (if r.Session.solved then "solved" else "FAILED")
                r.Session.examples_used;
              r)
            tasks
        in
        let solved = List.filter (fun r -> r.Session.solved) results in
        let rounds = List.map (fun r -> float_of_int r.Session.examples_used) solved in
        [
          Dataset.domain_name domain;
          Printf.sprintf "%d/%d" (List.length solved) (List.length results);
          Tablefmt.fmt_float (Stats.mean rounds);
        ])
      Dataset.all_domains
  in
  say "%s"
    (Tablefmt.render ~header:[ "Dataset"; "# solved"; "Avg. # Examples" ] ~rows);
  say "(sanity check that the synthesizer is not overfit to the curated benchmark suite)"

(* ------------------------------------------------------------------ *)
(* Streaming axis (extension): mega-corpus apply + warm repair         *)
(* ------------------------------------------------------------------ *)

(* The last streaming run, embedded into the --json meta so CI can track
   throughput and the warm-vs-cold repair gap alongside the sweep. *)
let stream_result : Imageeye_corpus.Stream.report option ref = ref None

let stream () =
  heading "Streaming: mega-corpus apply with mid-stream warm repair (extension)";
  let module Stream = Imageeye_corpus.Stream in
  let frames = if quick then 10_000 else 100_000 in
  let task = Benchmarks.by_id 35 in
  let corpus = Imageeye_corpus.Corpus.make ~domain:task.Task.domain ~seed ~frames in
  let config =
    {
      Stream.default_config with
      bootstrap_frames = 6;
      synth_timeout_s = abl_timeout *. 2.0;
    }
  in
  match Stream.run ~config ~corpus task with
  | Error msg -> say "  bootstrap FAILED: %s" msg
  | Ok r ->
      stream_result := Some r;
      say "  task %d over %d frames (window %d): %.0f images/s, %d edits, peak RSS %s"
        task.Task.id r.Stream.frames_done r.Stream.window r.Stream.images_per_s
        r.Stream.edits
        (match r.Stream.peak_rss_kb with
        | Some kb -> Printf.sprintf "%.1f MB" (float_of_int kb /. 1024.0)
        | None -> "n/a");
      say "  universes: peak live %d (bound %d), built %d" r.Stream.peak_live_universes
        r.Stream.window r.Stream.universes_built;
      let rows =
        List.map
          (fun (rep : Stream.repair) ->
            [
              string_of_int rep.at_frame;
              string_of_int rep.nodes_warm;
              (match rep.nodes_cold with Some n -> string_of_int n | None -> "-");
              Printf.sprintf "%.3f" rep.warm_time_s;
              (match rep.cold_time_s with
              | Some t -> Printf.sprintf "%.3f" t
              | None -> "-");
              (match rep.nodes_cold with
              | Some cold when cold > 0 ->
                  Printf.sprintf "%.1fx"
                    (float_of_int cold /. float_of_int (max 1 rep.nodes_warm))
              | _ -> "-");
            ])
          r.Stream.repairs
      in
      if rows = [] then say "  no mid-stream repairs (stream agreed with ground truth)"
      else
        say "%s"
          (Tablefmt.render
             ~header:
               [ "Repair@frame"; "Warm nodes"; "Cold nodes"; "Warm s"; "Cold s"; "Cold/Warm" ]
             ~rows)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per table/figure            *)
(* ------------------------------------------------------------------ *)

let micro () =
  heading "Bechamel microbenchmarks (one per experiment)";
  let open Bechamel in
  let wedding_small = Dataset.generate ~n_images:6 ~seed Dataset.Wedding in
  let objects_small = Dataset.generate ~n_images:20 ~seed Dataset.Objects in
  let task1 = Benchmarks.by_id 1 in
  let task30 = Benchmarks.by_id 30 in
  let u = Imageeye_vision.Batch.universe_of_scenes wedding_small.scenes in
  let gt_edit = Imageeye_core.Edit.induced_by_program u task1.Task.ground_truth in
  let spec = Imageeye_core.Edit.Spec.make u [ (0, gt_edit) ] in
  let cfg = { base_config with timeout_s = 5.0 } in
  let tests =
    [
      Test.make ~name:"table1/dataset-generation"
        (Staged.stage (fun () -> ignore (Dataset.generate ~n_images:8 ~seed Dataset.Wedding)));
      Test.make ~name:"table2/synthesize-task1"
        (Staged.stage (fun () -> ignore (Synthesizer.synthesize ~config:cfg spec)));
      Test.make ~name:"fig15/eusolver-task1"
        (Staged.stage (fun () ->
             ignore
               (Eusolver.synthesize
                  ~config:{ Eusolver.default_config with timeout_s = 5.0 }
                  spec)));
      Test.make ~name:"fig16/ablation-no-equiv-task1"
        (Staged.stage (fun () ->
             ignore
               (Synthesizer.synthesize
                  ~config:{ cfg with Synthesizer.equiv_reduction = false }
                  spec)));
      Test.make ~name:"rq5/noisy-detection"
        (Staged.stage (fun () ->
             ignore
               (Imageeye_vision.Batch.universe_of_scenes ~noise:Noise.default_imperfect
                  ~seed objects_small.scenes)));
      Test.make ~name:"core/apply-program-to-raster"
        (Staged.stage (fun () ->
             let scene = List.hd objects_small.scenes in
             let img = Imageeye_scene.Render.scene scene in
             let su = Imageeye_vision.Batch.universe_of_scenes [ scene ] in
             ignore (Imageeye_core.Apply.program su img task30.Task.ground_truth)));
      (* Component throughput: the primitives the search spends its time in. *)
      Test.make ~name:"component/eval-extractor"
        (Staged.stage (fun () ->
             ignore
               (Imageeye_core.Eval.extractor u
                  (fst (List.hd task1.Task.ground_truth)))));
      Test.make ~name:"component/universe-build"
        (Staged.stage (fun () ->
             ignore (Imageeye_vision.Batch.universe_of_scenes wedding_small.scenes)));
      Test.make ~name:"component/bitset-ops"
        (Staged.stage
           (let a = Imageeye_util.Bitset.of_list 512 (List.init 200 (fun i -> i * 2)) in
            let b = Imageeye_util.Bitset.of_list 512 (List.init 200 (fun i -> i * 2 + 1)) in
            fun () ->
              ignore
                (Imageeye_util.Bitset.subset
                   (Imageeye_util.Bitset.inter a b)
                   (Imageeye_util.Bitset.union a b))));
      Test.make ~name:"component/pqueue-push-pop"
        (Staged.stage (fun () ->
             (* The search's own worklist: 256 pushes over 17 sizes, then a
                full drain. *)
             let module Scheduler = Imageeye_engine.Scheduler in
             let q = Scheduler.create () in
             for i = 0 to 255 do
               Scheduler.push q (i mod 17, i land 7) i
             done;
             while Scheduler.pop q <> None do
               ()
             done));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg_bench = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg_bench instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with Some [ e ] -> e | _ -> nan
          in
          say "  %-36s %14.1f ns/run" name estimate)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)

(* Trajectory emission (--json): aggregates plus per-task rows for the
   table-2 sweep, with optional baseline embedding and CI solved floor
   from the environment (see the header comment). *)
let json_meta () =
  let open Imageeye_util.Jsonout in
  let read_all path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  [
    ("bench", Str "imageeye-table2-sweep");
    ("mode", Str (if quick then "quick" else "full"));
    ("seed", Int seed);
    ("jobs", Int jobs);
    ("timeout_s", Float timeout);
    ("fwd_bwd", Bool fwd_bwd);
    ("optimal", Bool optimal);
  ]
  @ (match !stream_result with
    | None -> []
    | Some r ->
        let module Stream = Imageeye_corpus.Stream in
        [
          ( "streaming",
            Obj
              [
                ("frames", Int r.Stream.frames_done);
                ("window", Int r.Stream.window);
                ("images_per_s", Float r.Stream.images_per_s);
                ("edits", Int r.Stream.edits);
                ("peak_live_universes", Int r.Stream.peak_live_universes);
                ("repairs", Int (List.length r.Stream.repairs));
                ( "nodes_warm",
                  Int
                    (List.fold_left
                       (fun acc (rep : Stream.repair) -> acc + rep.nodes_warm)
                       0 r.Stream.repairs) );
                ( "nodes_cold",
                  Int
                    (List.fold_left
                       (fun acc (rep : Stream.repair) ->
                         acc + Option.value rep.nodes_cold ~default:0)
                       0 r.Stream.repairs) );
              ] );
        ])
  @ (match Sys.getenv_opt "IMAGEEYE_JSON_CI_MIN_SOLVED" with
    | Some v when String.trim v <> "" -> [ ("ci_min_solved", Int (int_of_string (String.trim v))) ]
    | _ -> [])
  @ (match Sys.getenv_opt "IMAGEEYE_JSON_CI_MAX_NODES" with
    | Some v when String.trim v <> "" -> [ ("ci_max_nodes", Int (int_of_string (String.trim v))) ]
    | _ -> [])
  @
  match Sys.getenv_opt "IMAGEEYE_JSON_BASELINE" with
  | Some path when Sys.file_exists path -> [ ("baseline", Raw (read_all path)) ]
  | Some path ->
      Printf.eprintf "error: IMAGEEYE_JSON_BASELINE file %S not found\n%!" path;
      exit 2
  | None -> []

let write_json path =
  let results = Lazy.force imageeye_results in
  Imageeye_interact.Sweep_json.write ~meta:(json_meta ()) path results;
  say "wrote sweep trajectory to %s" path

(* --append <path>: per-commit perf history.  One JSONL row per run
   (commit, mode, solved, nodes, per-pass prune counts), appended via an
   atomic whole-file rewrite; exits non-zero when total nodes regress
   more than 5% against the previous row of the same mode, so CI on main
   turns the committed one-off BENCH_*.json files into a trajectory no
   commit can silently bend. *)
let git_commit () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some sha when String.trim sha <> "" -> String.trim sha
  | _ -> (
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, String.trim line) with
      | Unix.WEXITED 0, sha when sha <> "" -> sha
      | _ -> "unknown")

(* Per-task regression thresholds: a task solved in both rows has a
   deterministic node count (the search that found its program is
   budget-bounded, not wall-clock-bounded), so any growth is a real
   change.  The gate allows 5% plus a small absolute slack, so a tiny
   task is not flagged over a handful of nodes, and fails loudly listing
   every offending task.  Unsolved tasks are
   timeout-shaped and excluded; the old global >5% gate still covers
   history rows predating the per-task format. *)
let task_threshold = 1.05

let task_slack = 500

let append_history path =
  let module J = Imageeye_util.Jsonout in
  let results = Lazy.force imageeye_results in
  let solved = List.length (List.filter (fun r -> r.Session.solved) results) in
  let task_nodes r =
    List.fold_left
      (fun acc (rd : Session.round) ->
        match rd.synth_stats with
        | Some (s : Synthesizer.stats) -> acc + s.nodes
        | None -> acc)
      0 r.Session.rounds
  in
  let task_name r =
    Printf.sprintf "%02d-%s" r.Session.task.Task.id
      (Dataset.domain_name r.Session.task.Task.domain)
  in
  let nodes = List.fold_left (fun acc r -> acc + task_nodes r) 0 results in
  let mode = if quick then "quick" else "full" in
  let previous =
    if not (Sys.file_exists path) then None
    else
      let ic = open_in_bin path in
      let lines =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let acc = ref [] in
            (try
               while true do
                 let l = String.trim (input_line ic) in
                 if l <> "" then acc := l :: !acc
               done
             with End_of_file -> ());
            !acc)
      in
      (* Last row of the same mode: quick CI rows and full sweep rows have
         incomparable node totals. *)
      List.find_map
        (fun line ->
          match Imageeye_util.Jsonin.parse line with
          | Ok row
            when Imageeye_util.Jsonin.(
                   Option.bind (member "mode" row) to_string_opt)
                 = Some mode ->
              Some row
          | _ -> None)
        lines
  in
  let row =
    J.Obj
      [
        ("ts", Imageeye_report.Trend.ts_field (Unix.gettimeofday ()));
        ("commit", J.Str (git_commit ()));
        ("mode", J.Str mode);
        ("solved", J.Int solved);
        ("total", J.Int (List.length results));
        ("nodes", J.Int nodes);
        ( "prune_counts",
          J.Obj (List.map (fun (l, n) -> (l, J.Int n)) (prune_attribution results)) );
        ( "tasks",
          J.Obj
            (List.map
               (fun r ->
                 ( task_name r,
                   J.Obj
                     [
                       ("solved", J.Bool r.Session.solved);
                       ("nodes", J.Int (task_nodes r));
                     ] ))
               results) );
      ]
  in
  let existing =
    if Sys.file_exists path then (
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))
    else ""
  in
  Imageeye_util.Fileio.write_atomic_string path (existing ^ J.to_line row ^ "\n");
  say "appended perf-history row to %s (mode=%s solved=%d nodes=%d)" path mode
    solved nodes;
  let prev_int row key = Imageeye_util.Jsonin.(Option.bind (member key row) to_int_opt) in
  match previous with
  | None -> say "no previous %s row; baseline recorded" mode
  | Some prev_row -> (
      match Imageeye_util.Jsonin.member "tasks" prev_row with
      | Some (J.Obj prev_tasks) ->
          let compared = ref 0 in
          let regressions =
            List.filter_map
              (fun r ->
                if not r.Session.solved then None
                else
                  match List.assoc_opt (task_name r) prev_tasks with
                  | Some (J.Obj _ as prev_task)
                    when Imageeye_util.Jsonin.(
                           Option.bind (member "solved" prev_task) to_bool_opt)
                         = Some true -> (
                      match prev_int prev_task "nodes" with
                      | Some prev_nodes ->
                          incr compared;
                          let cur = task_nodes r in
                          if
                            float_of_int cur
                            > (task_threshold *. float_of_int prev_nodes)
                              +. float_of_int task_slack
                          then Some (task_name r, prev_nodes, cur)
                          else None
                      | None -> None)
                  | _ -> None)
              results
          in
          if regressions <> [] then begin
            List.iter
              (fun (name, prev_nodes, cur) ->
                Printf.eprintf
                  "error: task %s nodes regressed beyond %.0f%%+%d vs previous %s row: %d -> %d (+%.1f%%)\n%!"
                  name
                  (100.0 *. (task_threshold -. 1.0))
                  task_slack mode prev_nodes cur
                  (100.0
                  *. (float_of_int (cur - prev_nodes) /. float_of_int (max 1 prev_nodes))))
              regressions;
            exit 1
          end
          else
            say "per-task nodes within thresholds vs previous %s row (%d task(s) compared)"
              mode !compared
      | _ -> (
          (* Row predates the per-task format: global total-nodes gate. *)
          match prev_int prev_row "nodes" with
          | Some prev when prev > 0 && float_of_int nodes > 1.05 *. float_of_int prev ->
              Printf.eprintf
                "error: nodes regressed >5%% vs previous %s row: %d -> %d (+%.1f%%)\n%!"
                mode prev nodes
                (100.0 *. (float_of_int (nodes - prev) /. float_of_int prev));
              exit 1
          | Some prev ->
              say "nodes vs previous %s row: %d -> %d (within 5%%)" mode prev nodes
          | None -> say "no previous %s row; baseline recorded" mode))

let () =
  let sections, json_path, append_path =
    let rec split acc json append = function
      | [] -> (List.rev acc, json, append)
      | [ "--json" ] ->
          Printf.eprintf "error: --json needs a path argument\n%!";
          exit 2
      | [ "--append" ] ->
          Printf.eprintf "error: --append needs a path argument\n%!";
          exit 2
      | "--json" :: path :: rest -> split acc (Some path) append rest
      | "--append" :: path :: rest -> split acc json (Some path) rest
      | s :: rest -> split (s :: acc) json append rest
    in
    match Array.to_list Sys.argv with
    | [] -> ([], None, None)
    | _ :: rest -> split [] None None rest
  in
  let all =
    [
      ("table1", table1);
      ("table2", table2);
      ("fig15", fig15);
      ("fig16", fig16);
      ("rq5", rq5);
      ("stress", stress);
      ("stream", stream);
      ("micro", micro);
    ]
  in
  let chosen =
    match sections with
    | [] -> all
    | names ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n all with
            | Some f -> Some (n, f)
            | None ->
                say "unknown section %S (known: %s)" n (String.concat ", " (List.map fst all));
                None)
          names
  in
  say "ImageEye experiment harness (%s mode, seed %d, timeout %.0fs%s)"
    (if quick then "quick" else "full")
    seed timeout
    (if fwd_bwd then "" else ", fwd-bwd OFF");
  List.iter (fun (_, f) -> f ()) chosen;
  Option.iter write_json json_path;
  Option.iter append_history append_path
