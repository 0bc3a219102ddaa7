(* The imageeye command-line interface.

   Subcommands:
     generate   make a synthetic dataset (scene metadata + rendered PPMs)
     objects    list the detected objects of a dataset directory
     synthesize learn a program from a demonstration file
     explain    why a program selects / skips an object
     tasks      list the 50 benchmark tasks
     show       print one benchmark task and its ground-truth program
     learn      run the demonstration loop for a benchmark task
     sweep      run the demonstration loop over many tasks, optionally in parallel
     apply      apply a DSL program file to a dataset directory
     accuracy   measure a task's RQ5 accuracy under the imperfect detector
     report     learn a task and write an HTML before/after gallery
     trend      render PERF_HISTORY.jsonl as a static HTML trend page
     parse      validate and pretty-print a DSL program file
     stream     pipeline a program across a generated mega-corpus (O(window) memory)
     serve      run the persistent synthesis daemon (NDJSON over a socket)
     client     send one request to a running daemon
     loadgen    closed-loop load generator against a running daemon *)

open Cmdliner
module Lang = Imageeye_core.Lang
module Parser = Imageeye_core.Parser
module Synthesizer = Imageeye_core.Synthesizer
module Apply = Imageeye_core.Apply
module Dataset = Imageeye_scene.Dataset
module Scene = Imageeye_scene.Scene
module Scene_io = Imageeye_scene.Scene_io
module Render = Imageeye_scene.Render
module Batch = Imageeye_vision.Batch
module Session = Imageeye_interact.Session
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task
module Ppm = Imageeye_raster.Ppm

let domain_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "wedding" -> Ok Dataset.Wedding
    | "receipts" -> Ok Dataset.Receipts
    | "objects" -> Ok Dataset.Objects
    | other -> Error (`Msg (Printf.sprintf "unknown domain %S (wedding|receipts|objects)" other))
  in
  let print fmt d = Format.pp_print_string fmt (String.lowercase_ascii (Dataset.domain_name d)) in
  Arg.conv (parse, print)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Dataset generation seed.")

(* mkdir -p: an output path like results/run3/edited should just work. *)
let ensure_dir = Imageeye_util.Fileio.ensure_dir

let save_text path text =
  ensure_dir (Filename.dirname path);
  Imageeye_util.Fileio.write_atomic_string path text

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_program path =
  match Parser.program (read_file path) with
  | Ok p -> p
  | Error e -> failwith (Printf.sprintf "%s: %s" path (Parser.error_to_string e))

(* ---------- generate ---------- *)

let generate domain count seed out render =
  let count = Option.value count ~default:(Dataset.default_image_count domain) in
  let dataset = Dataset.generate ~n_images:count ~seed domain in
  ensure_dir out;
  Scene_io.save_dataset dataset ~dir:out;
  if render then
    List.iter
      (fun (s : Scene.t) ->
        Ppm.write (Render.scene s) (Filename.concat out (Printf.sprintf "%04d.ppm" s.image_id)))
      dataset.scenes;
  Printf.printf "wrote %d %s scene(s)%s to %s\n" count (Dataset.domain_name dataset.domain)
    (if render then " and rendered PPMs" else "")
    out

let generate_cmd =
  let domain =
    Arg.(required & pos 0 (some domain_conv) None & info [] ~docv:"DOMAIN")
  in
  let count =
    Arg.(value & opt (some int) None & info [ "n"; "count" ] ~docv:"N"
           ~doc:"Number of images (default: the paper's count for the domain).")
  in
  let out = Arg.(value & opt string "dataset" & info [ "o"; "out" ] ~docv:"DIR") in
  let render =
    Arg.(value & flag & info [ "render" ] ~doc:"Also write rendered PPM images.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic dataset for a domain.")
    Term.(const generate $ domain $ count $ seed_arg $ out $ render)

(* ---------- tasks / show ---------- *)

let list_tasks () =
  List.iter
    (fun t ->
      Printf.printf "%2d  %-8s size %2d  %s\n" t.Task.id
        (Dataset.domain_name t.Task.domain) (Task.size t) t.Task.description)
    Benchmarks.all

let tasks_cmd =
  Cmd.v (Cmd.info "tasks" ~doc:"List the 50 benchmark tasks of Appendix B.")
    Term.(const list_tasks $ const ())

let task_id_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"TASK-ID")

(* A benchmark task by id.  An unknown id is a usage error: it exits 2,
   as an unknown --ablation does. *)
let task_or_exit id =
  match Benchmarks.by_id id with
  | t -> t
  | exception Not_found ->
      Printf.eprintf "error: no benchmark task %d (ids run 1-%d)\n%!" id Benchmarks.count;
      exit 2

let show id =
  let t = task_or_exit id in
  Printf.printf "task %d (%s, size %d)\n%s\n%s\n" t.Task.id
    (Dataset.domain_name t.Task.domain) (Task.size t) t.Task.description
    (Lang.program_to_string t.Task.ground_truth)

let show_cmd =
  Cmd.v (Cmd.info "show" ~doc:"Print one benchmark task and its ground truth.")
    Term.(const show $ task_id_arg)

(* ---------- learn ---------- *)

let learn id images seed timeout save =
  let t = task_or_exit id in
  let n = Option.value images ~default:(Dataset.default_image_count t.Task.domain) in
  let dataset = Dataset.generate ~n_images:n ~seed t.Task.domain in
  Printf.printf "task %d: %s\n" id t.Task.description;
  let config = { Synthesizer.default_config with timeout_s = timeout } in
  let result = Session.run ~config ~dataset t in
  List.iter
    (fun (r : Session.round) ->
      Printf.printf "  round %d: demo image %d, %.2fs -> %s\n" r.round_index r.demo_image
        r.synth_time
        (match r.candidate with Some p -> Lang.program_to_string p | None -> "(failed)"))
    result.Session.rounds;
  match result.Session.program with
  | Some p ->
      Printf.printf "solved with %d demonstration(s): %s\n" result.Session.examples_used
        (Lang.program_to_string p);
      Option.iter
        (fun path ->
          save_text path (Lang.program_to_string p);
          Printf.printf "saved to %s\n" path)
        save
  | None ->
      Printf.printf "FAILED (%s)\n"
        (match result.Session.failure with
        | Some Session.Synth_failed -> "synthesis timed out"
        | Some Session.Rounds_exhausted -> "too many rounds"
        | Some Session.No_useful_image -> "no useful demonstration image"
        | None -> "unknown");
      exit 1

let learn_cmd =
  let images =
    Arg.(value & opt (some int) None & info [ "n"; "images" ] ~docv:"N"
           ~doc:"Dataset size (default: the paper's).")
  in
  let timeout =
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-round synthesis timeout.")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Write the learned program to FILE.")
  in
  Cmd.v
    (Cmd.info "learn"
       ~doc:"Run the demonstration loop for a benchmark task and print the learned program.")
    Term.(const learn $ task_id_arg $ images $ seed_arg $ timeout $ save)

(* ---------- sweep ---------- *)

let sweep task_ids images seed timeout jobs optimal frontier ablation json_path
    min_solved max_mean_size =
  let ablation_tweak =
    match ablation with
    | None -> Fun.id
    | Some name -> (
        match List.assoc_opt name Synthesizer.ablations with
        | Some tweak -> tweak
        | None ->
            Printf.eprintf "error: unknown ablation %S (known: %s)\n%!" name
              (String.concat ", " (List.map fst Synthesizer.ablations));
            exit 2)
  in
  let tasks =
    match task_ids with
    | [] -> Benchmarks.all
    | ids -> List.map task_or_exit ids
  in
  let domains = List.sort_uniq compare (List.map (fun t -> t.Task.domain) tasks) in
  (* Build every dataset and batch universe up front: the per-task jobs
     must not race on shared caches once the pool fans out. *)
  let prepared =
    List.map
      (fun domain ->
        let n = Option.value images ~default:(Dataset.default_image_count domain) in
        let dataset = Dataset.generate ~n_images:n ~seed domain in
        let universe = Batch.universe_of_scenes dataset.scenes in
        (domain, (dataset, universe)))
      domains
  in
  let config =
    ablation_tweak
      {
        Synthesizer.default_config with
        timeout_s = timeout;
        optimality = optimal;
        optimal_frontier =
          Option.value frontier
            ~default:Synthesizer.default_config.Synthesizer.optimal_frontier;
      }
  in
  let started = Imageeye_util.Clock.counter () in
  let results =
    Imageeye_tasks.Runner.run_tasks ~jobs
      (fun t ->
        let dataset, universe = List.assoc t.Task.domain prepared in
        Session.run ~config ~batch_universe:universe ~dataset t)
      tasks
  in
  let wall = Imageeye_util.Clock.elapsed_s started in
  List.iter
    (fun (t, r) ->
      Printf.printf "%2d  %-8s size %2d  %s  rounds=%d last=%.2fs  %s\n" t.Task.id
        (Dataset.domain_name t.Task.domain) (Task.size t)
        (if r.Session.solved then "solved" else "FAILED")
        r.Session.examples_used r.Session.last_round_time
        (match r.Session.program with
        | Some p -> Lang.program_to_string p
        | None -> "-"))
    results;
  let solved = List.filter (fun (_, r) -> r.Session.solved) results in
  let prune = Hashtbl.create 8 in
  List.iter
    (fun (_, r) ->
      List.iter
        (fun (rd : Session.round) ->
          Option.iter
            (fun (s : Synthesizer.stats) ->
              List.iter
                (fun (label, n) ->
                  Hashtbl.replace prune label
                    (n + Option.value (Hashtbl.find_opt prune label) ~default:0))
                s.Synthesizer.prune_counts)
            rd.synth_stats)
        r.Session.rounds)
    results;
  Printf.printf "solved %d/%d task(s) in %.1fs wall (jobs=%d)\n" (List.length solved)
    (List.length results) wall jobs;
  let all_labels =
    List.sort compare (Hashtbl.fold (fun label n acc -> (label, n) :: acc) prune [])
  in
  let info_labels, labels =
    List.partition (fun (l, _) -> Imageeye_core.Prune.is_info_label l) all_labels
  in
  if labels <> [] then (
    Printf.printf "prune attribution:\n";
    List.iter (fun (label, n) -> Printf.printf "  %-28s %d\n" label n) labels);
  (let get l = Option.value ~default:0 (List.assoc_opt l info_labels) in
   let cache l = get ("eval-cache(" ^ l ^ ")") in
   let memo = cache "memo-hit" and vhit = cache "value-hit" and evaluated = cache "evaluated" in
   let visited = memo + vhit + evaluated in
   if visited > 0 then
     Printf.printf
       "evaluation cache: %d memo hits, %d value hits, %d evaluated (hit rate %.1f%%)\n" memo
       vhit evaluated
       (100.0 *. float_of_int (memo + vhit) /. float_of_int visited);
   let rounds = get "fwd-bwd(iterations)" in
   if rounds > 0 then
     Printf.printf "fwd-bwd analysis: %d rounds, %d hole goals tightened\n" rounds
       (get "fwd-bwd(tightened)");
   let bound = get "cost-bound" in
   if bound > 0 then Printf.printf "optimal search: %d candidates cost-bounded\n" bound);
  let programs = List.filter_map (fun (_, r) -> r.Session.program) results in
  let mean_size =
    if programs = [] then 0.0
    else
      float_of_int (List.fold_left (fun acc p -> acc + Lang.program_size p) 0 programs)
      /. float_of_int (List.length programs)
  in
  if programs <> [] then begin
    let cost =
      List.fold_left
        (fun acc p -> Imageeye_core.Cost.add acc (Imageeye_core.Cost.of_program p))
        Imageeye_core.Cost.zero programs
    in
    Printf.printf "quality: mean program size %.2f over %d program(s), cost total %d\n"
      mean_size (List.length programs)
      (Imageeye_core.Cost.total cost)
  end;
  Option.iter
    (fun path ->
      let open Imageeye_util.Jsonout in
      Imageeye_interact.Sweep_json.write
        ~meta:
          [
            ("bench", Str "imageeye-cli-sweep");
            ("seed", Int seed);
            ("jobs", Int jobs);
            ("timeout_s", Float timeout);
            ("fwd_bwd", Bool config.Synthesizer.fwd_bwd);
            ("optimal", Bool config.Synthesizer.optimality);
            ("ablation", match ablation with Some a -> Str a | None -> Str "none");
          ]
        path (List.map snd results);
      Printf.printf "wrote sweep trajectory to %s\n" path)
    json_path;
  (* Smoke gates for CI: fail loudly when the sweep solved too few tasks
     or the solutions ballooned (the optimal-smoke mean-size ceiling). *)
  if List.length solved < min_solved then begin
    Printf.eprintf "error: solved %d task(s), below the --min-solved %d gate\n%!"
      (List.length solved) min_solved;
    exit 1
  end;
  Option.iter
    (fun ceiling ->
      if programs = [] || mean_size > ceiling then begin
        Printf.eprintf
          "error: mean program size %.2f exceeds the --max-mean-size %.2f gate\n%!"
          mean_size ceiling;
        exit 1
      end)
    max_mean_size;
  if solved = [] then exit 1

let sweep_cmd =
  let task_ids =
    Arg.(value & opt (list int) [] & info [ "tasks" ] ~docv:"ID,ID,..."
           ~doc:"Benchmark task ids to run (default: all 50).")
  in
  let images =
    Arg.(value & opt (some int) None & info [ "n"; "images" ] ~docv:"N"
           ~doc:"Dataset size per domain (default: the paper's).")
  in
  let timeout =
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-round synthesis timeout.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domains to run tasks on in parallel (1 = sequential; size to the              available cores).")
  in
  let optimal =
    Arg.(value & flag & info [ "optimal" ]
           ~doc:"Cost-directed optimal synthesis: keep searching past the first              consistent program under an incumbent cost bound and return the              minimal consistent extractor (size, noise sensitivity, lattice              depth, generality).  Same solved set, smaller/more-general              programs, more nodes.")
  in
  let frontier =
    Arg.(value & opt (some int) None & info [ "frontier" ] ~docv:"N"
           ~doc:"Optimal-search improvement budget: candidates generated without              an incumbent improvement before the search settles (default              200000).  Only meaningful with $(b,--optimal).")
  in
  let ablation =
    Arg.(value & opt (some string) None & info [ "ablation" ] ~docv:"NAME"
           ~doc:
             ("Apply a named ablation row from the shared fig16 table ("
             ^ String.concat ", " (List.map fst Synthesizer.ablations)
             ^ ") on top of the other flags.  Unknown names list the table and exit 2."))
  in
  let json_path =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the per-task sweep trajectory (solved, time, nodes, prune              counters, program quality) as JSON to FILE.")
  in
  let min_solved =
    Arg.(value & opt int 0 & info [ "min-solved" ] ~docv:"N"
           ~doc:"Exit 1 unless at least N tasks were solved (CI smoke gate).")
  in
  let max_mean_size =
    Arg.(value & opt (some float) None & info [ "max-mean-size" ] ~docv:"SIZE"
           ~doc:"Exit 1 if the mean synthesized-program size exceeds SIZE (CI              smoke gate for optimal mode).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run the demonstration loop over many benchmark tasks and summarize, optionally              on a parallel Domain pool.")
    Term.(const sweep $ task_ids $ images $ seed_arg $ timeout $ jobs $ optimal $ frontier $ ablation $ json_path $ min_solved $ max_mean_size)

(* ---------- apply ---------- *)

let apply_cmd_impl program_path scenes_dir out =
  let program = load_program program_path in
  let scenes = Scene_io.load_scenes ~dir:scenes_dir in
  if scenes = [] then failwith (Printf.sprintf "no .scene files in %s" scenes_dir);
  ensure_dir out;
  List.iter
    (fun (s : Scene.t) ->
      let img = Render.scene s in
      let u = Batch.universe_of_scenes [ s ] in
      let edited = Apply.program u img program in
      Ppm.write edited (Filename.concat out (Printf.sprintf "%04d.ppm" s.image_id)))
    scenes;
  Printf.printf "applied %s to %d image(s); output in %s\n"
    (Lang.program_to_string program)
    (List.length scenes) out

let apply_cmd =
  let program =
    Arg.(required & opt (some file) None & info [ "p"; "program" ] ~docv:"FILE")
  in
  let scenes = Arg.(required & opt (some dir) None & info [ "scenes" ] ~docv:"DIR") in
  let out = Arg.(value & opt string "edited" & info [ "o"; "out" ] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "apply" ~doc:"Apply a DSL program to every image of a dataset directory.")
    Term.(const apply_cmd_impl $ program $ scenes $ out)

(* ---------- accuracy ---------- *)

let accuracy id samples seed =
  let t = task_or_exit id in
  let dataset =
    Dataset.generate ~n_images:(Dataset.default_image_count t.Task.domain) ~seed t.Task.domain
  in
  let report =
    Imageeye_interact.Accuracy.evaluate ~noise:Imageeye_vision.Noise.default_imperfect ~seed
      ~samples t.Task.ground_truth dataset
  in
  Printf.printf
    "task %d: intended edit on %d of %d sampled images (%.1f%%) under the imperfect detector
"
    id report.Imageeye_interact.Accuracy.correct report.Imageeye_interact.Accuracy.sampled
    (100.0 *. report.Imageeye_interact.Accuracy.accuracy)

let accuracy_cmd =
  let samples =
    Arg.(value & opt int 20 & info [ "samples" ] ~docv:"N"
           ~doc:"Images to sample (with non-empty intended edit).")
  in
  Cmd.v
    (Cmd.info "accuracy"
       ~doc:"Measure a task's RQ5 accuracy: how often its ground-truth program produces              the intended edit when the neural models are imperfect.")
    Term.(const accuracy $ task_id_arg $ samples $ seed_arg)

(* ---------- objects ---------- *)

let list_objects scenes_dir =
  let scenes = Scene_io.load_scenes ~dir:scenes_dir in
  if scenes = [] then failwith (Printf.sprintf "no .scene files in %s" scenes_dir);
  List.iter
    (fun (s : Scene.t) ->
      Printf.printf "image %d (%dx%d)
" s.image_id s.width s.height;
      let u = Batch.universe_of_scenes [ s ] in
      List.iteri
        (fun pos id ->
          let e = Imageeye_symbolic.Universe.entity u id in
          let b = e.Imageeye_symbolic.Entity.bbox in
          let extra =
            match e.Imageeye_symbolic.Entity.kind with
            | Imageeye_symbolic.Entity.Face f ->
                Printf.sprintf " faceId=%d smiling=%b eyesOpen=%b age=%d-%d" f.face_id
                  f.smiling f.eyes_open f.age_low f.age_high
            | Imageeye_symbolic.Entity.Text body -> Printf.sprintf " %S" body
            | Imageeye_symbolic.Entity.Thing _ -> ""
          in
          Printf.printf "  #%d %-8s at (%d,%d)-(%d,%d)%s
" pos
            (Imageeye_symbolic.Entity.object_type e)
            b.Imageeye_geometry.Bbox.left b.top b.right b.bottom extra)
        (Imageeye_symbolic.Universe.objects_of_image u s.image_id))
    scenes

let objects_cmd =
  let scenes = Arg.(required & opt (some dir) None & info [ "scenes" ] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "objects"
       ~doc:"List the detected objects of each image in a dataset directory; the printed              #numbers are what demonstration files refer to.")
    Term.(const list_objects $ scenes)

(* ---------- synthesize ---------- *)

let synthesize_cmd_impl scenes_dir demos_path timeout save =
  let scenes = Scene_io.load_scenes ~dir:scenes_dir in
  if scenes = [] then failwith (Printf.sprintf "no .scene files in %s" scenes_dir);
  let demos =
    match Imageeye_interact.Demo_io.load demos_path with
    | Ok d -> d
    | Error e -> failwith (Imageeye_interact.Demo_io.error_to_string e)
  in
  let spec =
    match Imageeye_interact.Demo_io.to_spec ~scenes demos with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let config = { Synthesizer.default_config with timeout_s = timeout } in
  match Synthesizer.synthesize ~config spec with
  | Synthesizer.Success (program, stats) ->
      Printf.printf "synthesized in %.2fs: %s
" stats.elapsed_s
        (Lang.program_to_string program);
      Option.iter
        (fun path ->
          save_text path (Lang.program_to_string program);
          Printf.printf "saved to %s
" path)
        save
  | Synthesizer.Timeout _ ->
      Printf.printf "synthesis timed out
";
      exit 1
  | Synthesizer.Exhausted _ ->
      Printf.printf "no program in the search space matches the demonstrations
";
      exit 1

let synthesize_cmd =
  let scenes = Arg.(required & opt (some dir) None & info [ "scenes" ] ~docv:"DIR") in
  let demos = Arg.(required & opt (some file) None & info [ "demos" ] ~docv:"FILE") in
  let timeout = Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECONDS") in
  let save = Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:"Learn a program from a demonstration file over a dataset directory.")
    Term.(const synthesize_cmd_impl $ scenes $ demos $ timeout $ save)

(* ---------- explain ---------- *)

let explain_cmd_impl program_path scenes_dir image obj =
  let program = load_program program_path in
  let scenes = Scene_io.load_scenes ~dir:scenes_dir in
  let scene =
    match List.find_opt (fun (s : Scene.t) -> s.image_id = image) scenes with
    | Some s -> s
    | None -> failwith (Printf.sprintf "no image %d in %s" image scenes_dir)
  in
  let u = Batch.universe_of_scenes [ scene ] in
  let ids = Imageeye_symbolic.Universe.objects_of_image u image in
  match List.nth_opt ids obj with
  | None -> failwith (Printf.sprintf "image %d has only %d objects" image (List.length ids))
  | Some id ->
      List.iteri
        (fun i (extractor, action) ->
          Printf.printf "guarded action %d (%s): %s" (i + 1) (Lang.action_to_string action)
            (Imageeye_core.Explain.explain u extractor id))
        program

let explain_cmd =
  let program = Arg.(required & opt (some file) None & info [ "p"; "program" ] ~docv:"FILE") in
  let scenes = Arg.(required & opt (some dir) None & info [ "scenes" ] ~docv:"DIR") in
  let image = Arg.(required & opt (some int) None & info [ "image" ] ~docv:"IMAGE-ID") in
  let obj = Arg.(required & opt (some int) None & info [ "object" ] ~docv:"OBJECT-NUMBER") in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain why a program's extractors select or skip one object of one image.")
    Term.(const explain_cmd_impl $ program $ scenes $ image $ obj)

(* ---------- report ---------- *)

let report id images seed timeout out =
  let t = task_or_exit id in
  let n = Option.value images ~default:24 in
  let dataset = Dataset.generate ~n_images:n ~seed t.Task.domain in
  let config = { Synthesizer.default_config with timeout_s = timeout } in
  let result = Session.run ~config ~dataset t in
  match result.Session.program with
  | None ->
      Printf.printf "task %d failed to synthesize; no report written
" id;
      exit 1
  | Some program ->
      ensure_dir out;
      let entries =
        Imageeye_report.Html_report.generate ~dir:out
          ~title:(Printf.sprintf "Task %d: %s" id t.Task.description)
          ~program dataset.scenes
      in
      let edited =
        List.length (List.filter (fun e -> e.Imageeye_report.Html_report.edited) entries)
      in
      Printf.printf "wrote %s/index.html (%d images, %d edited)
" out (List.length entries)
        edited

let report_cmd =
  let images =
    Arg.(value & opt (some int) None & info [ "n"; "images" ] ~docv:"N"
           ~doc:"Dataset size (default 24, kept small for a browsable page).")
  in
  let timeout =
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECONDS")
  in
  let out = Arg.(value & opt string "report" & info [ "o"; "out" ] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Learn a benchmark task and write an HTML before/after gallery of the batch.")
    Term.(const report $ task_id_arg $ images $ seed_arg $ timeout $ out)

(* ---------- trend ---------- *)

let trend history out =
  match Imageeye_report.Trend.write ~history ~out with
  | Ok n -> Printf.printf "wrote %s (%d history row(s))\n" out n
  | Error msg ->
      Printf.eprintf "error: %s\n%!" msg;
      exit 1

let trend_cmd =
  let history =
    Arg.(value & opt string "PERF_HISTORY.jsonl" & info [ "history" ] ~docv:"FILE"
           ~doc:"Perf-history JSONL file written by bench/main.exe --append.")
  in
  let out =
    Arg.(value & opt string "trend.html" & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Output HTML file (self-contained; inline SVG, no scripts).")
  in
  Cmd.v
    (Cmd.info "trend"
       ~doc:"Render the per-commit perf history as a static HTML trend page (per-mode              node/solved charts and a per-commit table).")
    Term.(const trend $ history $ out)

(* ---------- parse ---------- *)

let parse_impl path =
  let p = load_program path in
  Printf.printf "%s\n(size %d)\n" (Lang.program_to_string p) (Lang.program_size p)

let parse_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "parse" ~doc:"Validate and pretty-print a DSL program file.")
    Term.(const parse_impl $ file)

(* ---------- serve / client / loadgen ---------- *)

module Serve = Imageeye_serve.Server
module Router = Imageeye_serve.Router
module Client = Imageeye_serve.Client
module Protocol = Imageeye_serve.Protocol
module Metrics = Imageeye_serve.Metrics
module Demo_io = Imageeye_interact.Demo_io
module Edit = Imageeye_core.Edit
module J = Imageeye_util.Jsonout
module Jsonin = Imageeye_util.Jsonin
module Clock = Imageeye_util.Clock

let socket_arg =
  Arg.(value & opt string "imageeye.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path (ignored when --port is given).")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
         ~doc:"Listen/connect on TCP 127.0.0.1:PORT instead of a unix socket.")

let serve socket port jobs timeout max_rounds quiet max_line_bytes read_timeout max_conns =
  let endpoint =
    match port with Some p -> Serve.Tcp p | None -> Serve.Unix_socket socket
  in
  if max_line_bytes < 2 then failwith "need --max-line-bytes >= 2";
  if max_conns < 1 then failwith "need --max-conns >= 1";
  if read_timeout < 0.0 then failwith "need --read-timeout >= 0 (0 disables)";
  Serve.run
    {
      endpoint;
      jobs;
      default_timeout_s = timeout;
      max_rounds;
      quiet;
      max_line_bytes;
      read_timeout_s = (if read_timeout = 0.0 then None else Some read_timeout);
      max_connections = max_conns;
    }

let serve_cmd =
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains draining the admission queue.")
  in
  let timeout =
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Default per-request deadline (requests may carry their own timeout_s).")
  in
  let max_rounds =
    Arg.(value & opt int 10 & info [ "max-rounds" ] ~docv:"N"
           ~doc:"Interaction-round cap per session.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-connection logs.") in
  (* Hostile-input limits; each also reads an IMAGEEYE_* variable, and a
     malformed value fails startup loudly (cmdliner rejects it) rather
     than silently serving with defaults. *)
  let max_line_bytes =
    Arg.(value
         & opt int Serve.default_config.max_line_bytes
         & info [ "max-line-bytes" ] ~docv:"BYTES"
             ~env:(Cmd.Env.info "IMAGEEYE_MAX_LINE_BYTES")
             ~doc:"Longest accepted request line; anything longer gets a structured              line-too-long error and a closed connection.")
  in
  let read_timeout =
    Arg.(value
         & opt float (Option.value Serve.default_config.read_timeout_s ~default:0.0)
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~env:(Cmd.Env.info "IMAGEEYE_READ_TIMEOUT")
             ~doc:"Mid-frame read deadline per connection: a request line dripping in              slower than this is dropped with read-timeout.  Idle connections              between requests are never timed out.  0 disables.")
  in
  let max_conns =
    Arg.(value
         & opt int Serve.default_config.max_connections
         & info [ "max-conns" ] ~docv:"N"
             ~env:(Cmd.Env.info "IMAGEEYE_MAX_CONNS")
             ~doc:"Connection admission cap; excess connections are shed with one              overloaded error line.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent synthesis daemon: newline-delimited JSON requests over a \
             unix-domain or TCP socket, synthesis on a worker Domain pool with interned \
             cross-request universes.  SIGTERM drains gracefully and dumps metrics.")
    Term.(const serve $ socket_arg $ port_arg $ jobs $ timeout $ max_rounds $ quiet
          $ max_line_bytes $ read_timeout $ max_conns)

(* Worker/endpoint specs: "unix:PATH", "tcp:PORT" (loopback),
   "tcp:HOST:PORT", or a bare unix-socket path. *)
let parse_endpoint_spec s =
  let port_of p =
    match int_of_string_opt p with
    | Some n when n > 0 && n < 65536 -> n
    | _ -> failwith (Printf.sprintf "bad port in endpoint spec %S" s)
  in
  match String.split_on_char ':' s with
  | [ "unix"; path ] -> Client.Unix_socket path
  | [ "tcp"; port ] -> Client.Tcp ("127.0.0.1", port_of port)
  | [ "tcp"; host; port ] -> Client.Tcp (host, port_of port)
  | [ _ ] -> Client.Unix_socket s
  | _ -> failwith (Printf.sprintf "bad endpoint spec %S (unix:PATH | tcp:[HOST:]PORT)" s)

let router socket port workers quiet max_line_bytes read_timeout max_conns inflight retry_dead
    =
  let endpoint =
    match port with Some p -> Serve.Tcp p | None -> Serve.Unix_socket socket
  in
  if workers = [] then failwith "router needs at least one --worker";
  if inflight < 1 then failwith "need --worker-inflight >= 1";
  if retry_dead <= 0.0 then failwith "need --retry-dead > 0";
  if max_line_bytes < 2 then failwith "need --max-line-bytes >= 2";
  if max_conns < 1 then failwith "need --max-conns >= 1";
  if read_timeout < 0.0 then failwith "need --read-timeout >= 0 (0 disables)";
  Router.run
    {
      endpoint;
      workers = List.map parse_endpoint_spec workers;
      quiet;
      max_line_bytes;
      read_timeout_s = (if read_timeout = 0.0 then None else Some read_timeout);
      max_connections = max_conns;
      worker_inflight = inflight;
      retry_dead_s = retry_dead;
    }

let router_cmd =
  let socket =
    Arg.(value & opt string "imageeye-router.sock" & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the router listens on (ignored with --port).")
  in
  let workers =
    Arg.(value & opt_all string [] & info [ "w"; "worker" ] ~docv:"SPEC"
           ~doc:"A worker daemon endpoint (repeatable): unix:PATH, tcp:PORT,              tcp:HOST:PORT, or a bare socket path.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-connection logs.") in
  let max_line_bytes =
    Arg.(value & opt int Router.default_config.Router.max_line_bytes
         & info [ "max-line-bytes" ] ~docv:"BYTES")
  in
  let read_timeout =
    Arg.(value
         & opt float (Option.value Router.default_config.Router.read_timeout_s ~default:0.0)
         & info [ "read-timeout" ] ~docv:"SECONDS")
  in
  let max_conns =
    Arg.(value & opt int Router.default_config.Router.max_connections
         & info [ "max-conns" ] ~docv:"N")
  in
  let inflight =
    Arg.(value & opt int Router.default_config.Router.worker_inflight
         & info [ "worker-inflight" ] ~docv:"N"
           ~doc:"In-flight request cap per worker; further requests wait (backpressure).")
  in
  let retry_dead =
    Arg.(value & opt float Router.default_config.Router.retry_dead_s
         & info [ "retry-dead" ] ~docv:"SECONDS"
           ~doc:"How soon a lost worker is probed again.")
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:"Shard requests across several imageeye daemons by consistent-hashing the              scene batch (the unit of universe sharing), with session-id rewriting,              aggregated metrics fan-in, and re-hash-to-survivors on worker loss.")
    Term.(const router $ socket $ port_arg $ workers $ quiet $ max_line_bytes $ read_timeout
          $ max_conns $ inflight $ retry_dead)

let client_endpoint socket port =
  match port with
  | Some p -> Client.Tcp ("127.0.0.1", p)
  | None -> Client.Unix_socket socket

(* One response, pretty-printed; exit 1 unless ok (and, for synthesize,
   unless the outcome is success — scripts grep less that way). *)
let run_client_request endpoint request =
  let c = Client.connect_retry endpoint in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.rpc c request with
      | Error msg -> failwith msg
      | Ok response ->
          print_string (J.to_string response);
          if not (Client.is_ok response) then exit 1)

let client socket port op program_file scenes_dir demos_file timeout task images seed
    optimal stream_domain stream_frames stream_window =
  let endpoint = client_endpoint socket port in
  let need what = function
    | Some v -> v
    | None -> failwith (Printf.sprintf "client %s requires %s" op what)
  in
  match op with
  | "ping" -> run_client_request endpoint Protocol.Ping
  | "metrics" -> run_client_request endpoint Protocol.Metrics
  | "shutdown" -> run_client_request endpoint Protocol.Shutdown
  | "raw" ->
      (* Adversarial probe: ship stdin verbatim as one request line and
         print the daemon's structured answer.  Stdin, not argv — probe
         payloads (multi-megabyte lines, nesting bombs) blow past the
         kernel's argument-length limit. *)
      let payload = In_channel.input_all In_channel.stdin in
      if String.trim payload = "" then failwith "client raw reads the request line from stdin";
      let c = Client.connect_retry endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.rpc_raw c payload with
          | Error msg -> failwith msg
          | Ok response ->
              print_string (J.to_string response);
              if not (Client.is_ok response) then exit 1)
  | "synthesize" ->
      let scenes = Scene_io.load_scenes ~dir:(need "--scenes" scenes_dir) in
      if scenes = [] then failwith "no .scene files in the scenes directory";
      let demos =
        match Demo_io.load (need "--demos" demos_file) with
        | Ok d -> d
        | Error e -> failwith (Demo_io.error_to_string e)
      in
      run_client_request endpoint
        (Protocol.Synthesize { scenes; demos; timeout_s = timeout; optimal })
  | "apply" ->
      let program = load_program (need "--program" program_file) in
      let scenes = Scene_io.load_scenes ~dir:(need "--scenes" scenes_dir) in
      if scenes = [] then failwith "no .scene files in the scenes directory";
      run_client_request endpoint (Protocol.Apply { program; scenes })
  | "stream-apply" ->
      let program = load_program (need "--program" program_file) in
      let domain = need "--domain" stream_domain in
      run_client_request endpoint
        (Protocol.Stream_apply
           { program; domain; seed; frames = stream_frames; window = stream_window })
  | "session" ->
      (* Drive the interactive loop end to end over the wire. *)
      let task_id = (task_or_exit (need "--task" task)).id in
      let c = Client.connect_retry endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let rpc request =
            match Client.rpc c request with
            | Error msg -> failwith msg
            | Ok r ->
                if not (Client.is_ok r) then
                  failwith (Printf.sprintf "server error: %s" (J.to_line r));
                r
          in
          let opened =
            rpc
              (Protocol.Session_open
                 { task_id; images; seed })
          in
          let session =
            match Option.bind (Jsonin.member "session" opened) Jsonin.to_int_opt with
            | Some s -> s
            | None -> failwith "session-open response carries no session id"
          in
          Printf.printf "session %d opened: %s\n" session
            (Option.value ~default:""
               (Option.bind (Jsonin.member "description" opened) Jsonin.to_string_opt));
          let status_of r =
            Option.value ~default:"?"
              (Option.bind (Jsonin.member "status" r) Jsonin.to_string_opt)
          in
          let rec rounds () =
            let r = rpc (Protocol.Session_round { session; timeout_s = timeout }) in
            (match Option.bind (Jsonin.member "round" r) Jsonin.to_int_opt with
            | Some n ->
                Printf.printf "  round %d: demo image %s -> %s\n" n
                  (match Option.bind (Jsonin.member "demo_image" r) Jsonin.to_int_opt with
                  | Some i -> string_of_int i
                  | None -> "?")
                  (match Option.bind (Jsonin.member "candidate" r) Jsonin.to_string_opt with
                  | Some p -> p
                  | None -> "(failed)")
            | None -> ());
            match status_of r with
            | "awaiting-round" -> rounds ()
            | status -> (status, r)
          in
          let status, last = rounds () in
          ignore (rpc (Protocol.Session_close { session }));
          match status with
          | "solved" ->
              Printf.printf "solved: %s\n"
                (Option.value ~default:"?"
                   (Option.bind (Jsonin.member "program" last) Jsonin.to_string_opt))
          | status ->
              Printf.printf "finished: %s\n" status;
              exit 1)
  | other -> failwith (Printf.sprintf "unknown client op %S" other)

let client_cmd =
  let op =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP"
           ~doc:"One of ping, metrics, shutdown, synthesize, apply, stream-apply, session,              raw (sends stdin verbatim as one request line).")
  in
  let program = Arg.(value & opt (some file) None & info [ "p"; "program" ] ~docv:"FILE") in
  let scenes = Arg.(value & opt (some dir) None & info [ "scenes" ] ~docv:"DIR") in
  let demos = Arg.(value & opt (some file) None & info [ "demos" ] ~docv:"FILE") in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline sent with the request.")
  in
  let task = Arg.(value & opt (some int) None & info [ "task" ] ~docv:"TASK-ID") in
  let images = Arg.(value & opt (some int) None & info [ "n"; "images" ] ~docv:"N") in
  let optimal =
    Arg.(value & flag & info [ "optimal" ]
           ~doc:"Ask the daemon for the minimal-cost consistent program (synthesize op).")
  in
  let stream_domain =
    Arg.(value & opt (some domain_conv) None & info [ "domain" ] ~docv:"DOMAIN"
           ~doc:"Corpus domain (stream-apply op).")
  in
  let stream_frames =
    Arg.(value & opt int 10_000 & info [ "frames" ] ~docv:"N"
           ~doc:"Corpus frames (stream-apply op).")
  in
  let stream_window =
    Arg.(value & opt int 256 & info [ "window" ] ~docv:"W"
           ~doc:"Universe-cache window (stream-apply op).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running imageeye daemon and print the JSON response.")
    Term.(const client $ socket_arg $ port_arg $ op $ program $ scenes $ demos $ timeout
          $ task $ images $ seed_arg $ optimal $ stream_domain $ stream_frames
          $ stream_window)

(* Build the synthesize payload the load generator replays: the paper's
   demonstration for [task] — the ground-truth edit on the useful image
   with the fewest objects — over a generated dataset. *)
let loadgen_payload task_id images demo_images seed =
  let task = task_or_exit task_id in
  let n = Option.value images ~default:8 in
  let dataset = Dataset.generate ~n_images:n ~seed task.Task.domain in
  let u = Batch.universe_of_scenes dataset.Dataset.scenes in
  let gt = Edit.induced_by_program u task.Task.ground_truth in
  let weight (s : Scene.t) =
    List.length (Imageeye_symbolic.Universe.objects_of_image u s.image_id)
  in
  let useful =
    List.filter
      (fun (s : Scene.t) ->
        List.exists
          (fun id -> Edit.actions_of gt id <> [])
          (Imageeye_symbolic.Universe.objects_of_image u s.image_id))
      dataset.Dataset.scenes
  in
  if useful = [] then
    failwith
      (Printf.sprintf "task %d edits nothing on a %d-image seed-%d dataset" task_id n seed);
  (* Sparsest useful images first — one demo mirrors the session loop's
     opening round; more demos mimic its later, harder rounds. *)
  let chosen =
    List.filteri
      (fun i _ -> i < demo_images)
      (List.stable_sort (fun a b -> compare (weight a) (weight b)) useful)
  in
  let demo_of (s : Scene.t) =
    let edits =
      List.concat
        (List.mapi
           (fun pos id -> List.map (fun a -> (pos, a)) (Edit.actions_of gt id))
           (Imageeye_symbolic.Universe.objects_of_image u s.image_id))
    in
    { Demo_io.image_id = s.Scene.image_id; edits }
  in
  (chosen, List.map demo_of chosen, task.Task.ground_truth)

let response_outcome r =
  Option.value ~default:"?" (Option.bind (Jsonin.member "outcome" r) Jsonin.to_string_opt)

type loadgen_sample = { op : string; latency_s : float; outcome : string }

let loadgen socket port endpoints concurrency requests task images demo_images seed timeout
    ops_spec =
  if requests < 1 then failwith "need --requests >= 1";
  if concurrency < 1 then failwith "need --concurrency >= 1";
  if demo_images < 1 then failwith "need --demo-images >= 1";
  let endpoints =
    match endpoints with
    | [] -> [| client_endpoint socket port |]
    | specs -> Array.of_list (List.map parse_endpoint_spec specs)
  in
  let ops =
    match String.split_on_char ',' ops_spec |> List.map String.trim with
    | [] -> failwith "need --ops"
    | ops ->
        List.iter
          (fun o ->
            if o <> "synthesize" && o <> "apply" then
              failwith (Printf.sprintf "unknown op %S in --ops (synthesize | apply)" o))
          ops;
        Array.of_list ops
  in
  let scenes, demos, ground_truth = loadgen_payload task images demo_images seed in
  (* Deterministic op mix: request i carries ops[i mod |ops|], so runs
     are reproducible and every op sees both cold and warm requests. *)
  let request_of_op = function
    | "apply" -> Protocol.Apply { program = ground_truth; scenes }
    | _ -> Protocol.Synthesize { scenes; demos; timeout_s = timeout; optimal = false }
  in
  let op_of_index i = ops.(i mod Array.length ops) in
  let samples = Array.make requests None in
  let errors = ref [] in
  let next = ref 0 in
  let lock = Mutex.create () in
  let take () =
    Mutex.lock lock;
    let i = !next in
    if i < requests then incr next;
    Mutex.unlock lock;
    if i < requests then Some i else None
  in
  let worker endpoint () =
    (* Connect with bounded backoff, and on a mid-run transport failure
       (daemon restarted, EPIPE, connection shed) reconnect and retry
       the request a bounded number of times before counting it lost.
       A connect that still fails leaves the thread without a
       connection: every request it takes from then on is a transport
       error, so the outcome counts always sum to [requests]. *)
    let connect () =
      match Client.connect_retry endpoint with
      | c -> Ok c
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "connect failed: %s" (Unix.error_message e))
      | exception Failure msg -> Error (Printf.sprintf "connect failed: %s" msg)
    in
    let conn = ref (connect ()) in
    Fun.protect
      ~finally:(fun () -> Result.iter Client.close !conn)
      (fun () ->
        let rec rpc_with_retry request tries =
          match !conn with
          | Error msg -> Error msg
          | Ok c -> (
              match Client.rpc c request with
              | Ok r -> Ok r
              | Error msg when tries >= 3 -> Error msg
              | Error _ ->
                  Client.close c;
                  conn := connect ();
                  rpc_with_retry request (tries + 1))
        in
        let rec loop () =
          match take () with
          | None -> ()
          | Some i ->
              let op = op_of_index i in
              let t0 = Clock.counter () in
              (match rpc_with_retry (request_of_op op) 1 with
              | Error msg ->
                  Mutex.lock lock;
                  errors := Printf.sprintf "request %d: %s" i msg :: !errors;
                  Mutex.unlock lock
              | Ok r ->
                  let outcome =
                    if not (Client.is_ok r) then "error:" ^ J.to_line r
                    else if op = "apply" then "success"  (* apply has no outcome field *)
                    else response_outcome r
                  in
                  samples.(i) <- Some { op; latency_s = Clock.elapsed_s t0; outcome });
              loop ()
        in
        loop ())
  in
  let started = Clock.counter () in
  let threads =
    List.init (min concurrency requests) (fun t ->
        Thread.create (worker endpoints.(t mod Array.length endpoints)) ())
  in
  List.iter Thread.join threads;
  let wall = Clock.elapsed_s started in
  let done_ = List.filter_map Fun.id (Array.to_list samples) in
  let by_outcome o = List.length (List.filter (fun s -> s.outcome = o) done_) in
  let failures =
    List.filter (fun s -> s.outcome <> "success" && s.outcome <> "timeout") done_
  in
  (* Nearest-rank percentiles with exactly the serving tier's semantics
     (Metrics.quantile), overall and per op. *)
  let sorted_latencies samples =
    let arr = Array.of_list (List.map (fun s -> s.latency_s) samples) in
    Array.sort compare arr;
    arr
  in
  let all_sorted = sorted_latencies done_ in
  Printf.printf
    "loadgen: %d request(s), concurrency %d: %d success, %d timeout, %d failed, %d transport error(s)\n"
    requests concurrency (by_outcome "success") (by_outcome "timeout") (List.length failures)
    (List.length !errors);
  (* Latency quantiles of nothing would read 0. *)
  if done_ = [] then Printf.printf "  wall %.2fs  no request completed\n" wall
  else
    Printf.printf "  wall %.2fs  throughput %.1f req/s  p50 %.4fs  p95 %.4fs  p99 %.4fs\n" wall
      (float_of_int (List.length done_) /. wall)
      (Metrics.quantile all_sorted 0.50) (Metrics.quantile all_sorted 0.95)
      (Metrics.quantile all_sorted 0.99);
  Array.iter
    (fun op ->
      let of_op = List.filter (fun s -> s.op = op) done_ in
      if of_op <> [] then begin
        let sorted = sorted_latencies of_op in
        Printf.printf "  %s: %d sample(s)  p50 %.4fs  p95 %.4fs  p99 %.4fs\n" op
          (List.length of_op) (Metrics.quantile sorted 0.50) (Metrics.quantile sorted 0.95)
          (Metrics.quantile sorted 0.99)
      end)
    ops;
  List.iter (fun m -> Printf.eprintf "  transport error: %s\n" m) !errors;
  if !errors <> [] || failures <> [] || List.length done_ <> requests then exit 1

(* ---------- stream ---------- *)

let stream_report_json (r : Imageeye_corpus.Stream.report) =
  let repair_json (rep : Imageeye_corpus.Stream.repair) =
    J.Obj
      [
        ("at_frame", J.Int rep.at_frame);
        ("rounds_warm", J.Int rep.rounds_warm);
        ("nodes_warm", J.Int rep.nodes_warm);
        ("warm_time_s", J.Float rep.warm_time_s);
        ("nodes_cold", match rep.nodes_cold with Some n -> J.Int n | None -> J.Null);
        ("cold_time_s", match rep.cold_time_s with Some t -> J.Float t | None -> J.Null);
        ("cold_solved", J.Bool rep.cold_solved);
        ("repaired", J.Str (Lang.program_to_string rep.repaired));
      ]
  in
  J.Obj
    [
      ("frames_requested", J.Int r.frames_requested);
      ("frames_done", J.Int r.frames_done);
      ("window", J.Int r.window);
      ("edits", J.Int r.edits);
      ("mismatched_frames", J.Int r.mismatched_frames);
      ("repairs", J.List (List.map repair_json r.repairs));
      ("repair_failed", J.Bool r.repair_failed);
      ( "bootstrap",
        match r.bootstrap_info with
        | None -> J.Null
        | Some b ->
            J.Obj
              [
                ("demos", J.List (List.map (fun i -> J.Int i) b.demo_trajectory));
                ("nodes", J.Int b.nodes_bootstrap);
                ("time_s", J.Float b.bootstrap_time_s);
              ] );
      ("program", J.Str (Lang.program_to_string r.program));
      ("elapsed_s", J.Float r.elapsed_s);
      ("images_per_s", J.Float r.images_per_s);
      ("peak_live_universes", J.Int r.peak_live_universes);
      ("universes_built", J.Int r.universes_built);
      ("peak_rss_kb", match r.peak_rss_kb with Some kb -> J.Int kb | None -> J.Null);
      ("edit_digest", J.Str (Digest.to_hex r.edit_digest));
    ]

let stream task_id program_path domain frames window seed bootstrap timeout max_repairs
    no_cold_compare budget json_path expect_repair expect_warm_cheaper max_live =
  let config =
    {
      Imageeye_corpus.Stream.window;
      bootstrap_frames = bootstrap;
      max_repairs;
      cold_compare = not no_cold_compare;
      synth_timeout_s = timeout;
      time_budget_s = budget;
    }
  in
  let report =
    match (task_id, program_path) with
    | Some id, None ->
        let task = task_or_exit id in
        let corpus =
          Imageeye_corpus.Corpus.make ~domain:task.Task.domain ~seed ~frames
        in
        Printf.printf "task %d (%s): bootstrapping from a %d-frame prefix...\n%!" id
          task.Task.description bootstrap;
        (match Imageeye_corpus.Stream.run ~config ~corpus task with
        | Ok r -> r
        | Error msg -> failwith msg)
    | None, Some path ->
        let domain =
          match domain with
          | Some d -> d
          | None -> failwith "--program needs --domain (wedding|receipts|objects)"
        in
        let corpus = Imageeye_corpus.Corpus.make ~domain ~seed ~frames in
        Imageeye_corpus.Stream.apply ~config ~corpus (load_program path)
    | Some _, Some _ -> failwith "give either --task or --program, not both"
    | None, None -> failwith "give --task ID or --program FILE"
  in
  (match report.bootstrap_info with
  | None -> ()
  | Some b ->
      Printf.printf "bootstrap: %d demo(s), %d nodes, %.2fs\n"
        (List.length b.demo_trajectory) b.nodes_bootstrap b.bootstrap_time_s);
  Printf.printf "streamed %d/%d frames in %.2fs (%.0f images/s)\n" report.frames_done
    report.frames_requested report.elapsed_s report.images_per_s;
  Printf.printf "edits: %d across %d window(s); %d mismatched frame(s)\n" report.edits
    (List.length report.per_window_edits)
    report.mismatched_frames;
  Printf.printf "universes: peak live %d (window %d), built %d%s\n"
    report.peak_live_universes report.window report.universes_built
    (match report.peak_rss_kb with
    | Some kb -> Printf.sprintf "; peak RSS %.1f MB" (float_of_int kb /. 1024.0)
    | None -> "");
  List.iter
    (fun (rep : Imageeye_corpus.Stream.repair) ->
      Printf.printf "repair @%d: %d warm round(s), %d nodes, %.2fs%s\n" rep.at_frame
        rep.rounds_warm rep.nodes_warm rep.warm_time_s
        (match (rep.nodes_cold, rep.cold_time_s) with
        | Some n, Some t ->
            Printf.sprintf " (cold restart: %d nodes, %.2fs%s)" n t
              (if rep.cold_solved then "" else ", unsolved")
        | _ -> ""))
    report.repairs;
  if report.repair_failed then Printf.printf "a repair attempt FAILED to re-synthesize\n";
  Printf.printf "deployed program: %s\n" (Lang.program_to_string report.program);
  Printf.printf "edit digest: %s\n" (Digest.to_hex report.edit_digest);
  (match json_path with
  | None -> ()
  | Some path ->
      J.write_file path (stream_report_json report);
      Printf.printf "wrote %s\n" path);
  let failed = ref false in
  let gate ok msg = if not ok then (Printf.eprintf "gate FAILED: %s\n" msg; failed := true) in
  if expect_repair then
    gate (report.repairs <> []) "expected at least one mid-stream repair, saw none";
  if expect_warm_cheaper then begin
    let compared =
      List.filter (fun (r : Imageeye_corpus.Stream.repair) -> r.nodes_cold <> None)
        report.repairs
    in
    gate (compared <> []) "expected a cold-compared repair to check warm < cold against";
    List.iter
      (fun (r : Imageeye_corpus.Stream.repair) ->
        match r.nodes_cold with
        | Some cold ->
            gate (r.nodes_warm < cold)
              (Printf.sprintf "repair @%d: warm %d nodes not < cold %d" r.at_frame
                 r.nodes_warm cold)
        | None -> ())
      compared
  end;
  (match max_live with
  | None -> ()
  | Some n ->
      gate
        (report.peak_live_universes <= n)
        (Printf.sprintf "peak live universes %d exceeds --max-live %d"
           report.peak_live_universes n));
  if !failed then exit 1

let stream_cmd =
  let task = Arg.(value & opt (some int) None & info [ "task" ] ~docv:"ID"
                    ~doc:"Benchmark task to bootstrap from the corpus prefix and keep                          repaired against its ground truth (simulated user).") in
  let program = Arg.(value & opt (some string) None & info [ "program" ] ~docv:"FILE"
                       ~doc:"Stream a fixed DSL program file instead (no repairs).") in
  let domain = Arg.(value & opt (some domain_conv) None & info [ "domain" ] ~docv:"DOMAIN"
                      ~doc:"Corpus domain, required with --program (with --task the                            task's own domain is used).") in
  let frames = Arg.(value & opt int 100_000 & info [ "frames" ] ~docv:"N"
                      ~doc:"Corpus length in frames.") in
  let window = Arg.(value & opt int 256 & info [ "window" ] ~docv:"W"
                      ~doc:"Universe-cache window: at most W frame universes stay interned.") in
  let bootstrap = Arg.(value & opt int 24 & info [ "bootstrap" ] ~docv:"B"
                         ~doc:"Prefix frames the initial program is synthesized from.") in
  let timeout = Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"SECS"
                       ~doc:"Per-synthesis-call timeout.") in
  let max_repairs = Arg.(value & opt int 4 & info [ "max-repairs" ] ~docv:"N") in
  let no_cold = Arg.(value & flag & info [ "no-cold-compare" ]
                       ~doc:"Skip the cold-restart measurement at each repair.") in
  let budget = Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SECS"
                      ~doc:"Stop streaming early after this much wall time.") in
  let json_path = Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE") in
  let expect_repair = Arg.(value & flag & info [ "expect-repair" ]
                             ~doc:"Exit 1 unless at least one mid-stream repair happened.") in
  let expect_warm = Arg.(value & flag & info [ "expect-warm-cheaper" ]
                           ~doc:"Exit 1 unless every cold-compared repair spent strictly                                 fewer warm nodes than its cold restart.") in
  let max_live = Arg.(value & opt (some int) None & info [ "max-live" ] ~docv:"N"
                        ~doc:"Exit 1 when the peak interned-universe count exceeds N.") in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"Stream a program across a generated mega-corpus with O(window) memory,             repairing it mid-stream by resuming its demonstrations when a counterexample             appears.")
    Term.(const stream $ task $ program $ domain $ frames $ window $ seed_arg $ bootstrap
          $ timeout $ max_repairs $ no_cold $ budget $ json_path $ expect_repair
          $ expect_warm $ max_live)

let loadgen_cmd =
  let concurrency =
    Arg.(value & opt int 4 & info [ "c"; "concurrency" ] ~docv:"N"
           ~doc:"Closed-loop client threads, one connection each.")
  in
  let requests =
    Arg.(value & opt int 16 & info [ "m"; "requests" ] ~docv:"M"
           ~doc:"Total requests across all clients.")
  in
  let task =
    Arg.(value & opt int 1 & info [ "task" ] ~docv:"TASK-ID"
           ~doc:"Benchmark task whose demonstration is replayed.")
  in
  let images =
    Arg.(value & opt (some int) None & info [ "n"; "images" ] ~docv:"N"
           ~doc:"Dataset size the demonstration is drawn from (default 8).")
  in
  let demo_images =
    Arg.(value & opt int 1 & info [ "demo-images" ] ~docv:"K"
           ~doc:"Demonstrated images per request; more demos constrain the spec harder              (useful for timeout probes).")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline sent with each request.")
  in
  let endpoints =
    Arg.(value & opt_all string [] & info [ "e"; "endpoint" ] ~docv:"SPEC"
           ~doc:"Target endpoint (repeatable): unix:PATH, tcp:[HOST:]PORT, or a bare              socket path.  Client threads round-robin across the given endpoints              (drive several daemons, or a router, at once).  Overrides              --socket/--port.")
  in
  let ops =
    Arg.(value & opt string "synthesize" & info [ "ops" ] ~docv:"LIST"
           ~doc:"Comma-separated op mix (synthesize, apply); request i carries op              i mod |ops|.  Percentiles are reported per op.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Closed-loop load generator: replay one task's requests against running              daemons (or a router) and report throughput and p50/p95/p99 latency per op.")
    Term.(const loadgen $ socket_arg $ port_arg $ endpoints $ concurrency $ requests $ task
          $ images $ demo_images $ seed_arg $ timeout $ ops)

let () =
  let info =
    Cmd.info "imageeye" ~version:"1.0.0"
      ~doc:"Batch image processing by program synthesis (PLDI 2023 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; objects_cmd; synthesize_cmd; explain_cmd; tasks_cmd; show_cmd;
            learn_cmd; sweep_cmd; apply_cmd; accuracy_cmd; report_cmd; trend_cmd; parse_cmd;
            serve_cmd; router_cmd; client_cmd; loadgen_cmd; stream_cmd;
          ]))
