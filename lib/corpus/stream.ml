module Clock = Imageeye_util.Clock
module Lang = Imageeye_core.Lang
module Edit = Imageeye_core.Edit
module Synthesizer = Imageeye_core.Synthesizer
module Universe = Imageeye_symbolic.Universe
module Scene = Imageeye_scene.Scene
module Dataset = Imageeye_scene.Dataset
module Task = Imageeye_tasks.Task
module Session = Imageeye_interact.Session

type config = {
  window : int;
  bootstrap_frames : int;
  max_repairs : int;
  cold_compare : bool;
  synth_timeout_s : float;
  time_budget_s : float option;
}

let default_config =
  {
    window = 256;
    bootstrap_frames = 24;
    max_repairs = 4;
    cold_compare = true;
    synth_timeout_s = 30.0;
    time_budget_s = None;
  }

type repair = {
  at_frame : int;
  demo_frames : int list;
  rounds_warm : int;
  nodes_warm : int;
  warm_time_s : float;
  nodes_cold : int option;
  cold_time_s : float option;
  cold_solved : bool;
  repaired : Lang.program;
}

type bootstrap = {
  demo_trajectory : int list;  (** most recent first *)
  nodes_bootstrap : int;
  bootstrap_time_s : float;
}

type report = {
  frames_requested : int;
  frames_done : int;
  window : int;
  edits : int;
  per_window_edits : (int * int) list;  (** (window start frame, edits) *)
  mismatched_frames : int;
  repairs : repair list;  (** in stream order *)
  repair_failed : bool;
  bootstrap_info : bootstrap option;
  program : Lang.program;  (** the finally deployed program *)
  elapsed_s : float;
  images_per_s : float;
  peak_live_universes : int;
  universes_built : int;
  peak_rss_kb : int option;
  edit_digest : string;
}

let nodes_of_rounds rounds =
  List.fold_left
    (fun acc (r : Session.round) ->
      acc + match r.synth_stats with Some st -> st.Synthesizer.nodes | None -> 0)
    0 rounds

(* Linux VmHWM (peak resident set, kB); None elsewhere. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  String.sub line 6 (String.length line - 6)
                  |> String.trim
                  |> String.split_on_char ' '
                  |> (function kb :: _ -> int_of_string_opt kb | [] -> None)
                else go ()
          in
          go ())

(* The edit a program performs on one frame: the count of (object,
   action) assignments plus a canonical text signature (the unit of the
   edit-stream digest). *)
let frame_edit u f program =
  let edit = Edit.induced_by_program u program in
  let ids = Universe.objects_of_image u f in
  let count =
    List.fold_left (fun acc id -> acc + List.length (Edit.actions_of edit id)) 0 ids
  in
  let sgn =
    String.concat ";"
      (List.filter_map
         (fun id ->
           match List.sort_uniq Stdlib.compare (Edit.actions_of edit id) with
           | [] -> None
           | acts ->
               Some
                 (Printf.sprintf "%d:%s" id
                    (String.concat "," (List.map Lang.action_to_string acts))))
         ids)
  in
  (edit, count, Printf.sprintf "%d|%s" f sgn)

(* Simulated-user state: the task whose ground truth stands in for the
   user's intent, the bootstrap prefix scenes, the counterexample scenes
   accumulated by repairs, and the demonstration history (most recent
   first) the next repair resumes from. *)
type sim = {
  task : Task.t;
  boot_scenes : Scene.t list;
  mutable extra_scenes : Scene.t list;  (* reverse accumulation order *)
  mutable demo_hist : int list;
}

let session_engine ~config =
  Session.imageeye_engine
    { Synthesizer.default_config with timeout_s = config.synth_timeout_s }

(* Incremental re-synthesis at a mid-stream counterexample: resume the
   demonstration trajectory via [Session.Stepwise.resume] — one round
   over the accumulated demonstrations — instead of replaying the
   interaction loop from round 1.  When [cold_compare] is on, the cold restart
   ([Session.run_with] from scratch over the same accumulated dataset —
   the cost a process restart would pay to reach the same spec) is also
   run and measured; it is measured *after* the warm resume and over the
   same shared caches, so any residual warmth it enjoys biases the
   comparison against the incremental path. *)
let repair_at ~config ~sim frame scene =
  let fresh_scene =
    (not (List.exists (fun (s : Scene.t) -> s.image_id = frame) sim.boot_scenes))
    && not (List.exists (fun (s : Scene.t) -> s.image_id = frame) sim.extra_scenes)
  in
  if fresh_scene then sim.extra_scenes <- scene :: sim.extra_scenes;
  let dataset =
    {
      Dataset.domain = sim.task.Task.domain;
      name = "corpus-repair";
      scenes = sim.boot_scenes @ List.rev sim.extra_scenes;
    }
  in
  let demo_images = frame :: List.filter (fun i -> i <> frame) sim.demo_hist in
  let max_rounds = List.length demo_images + 4 in
  let engine = session_engine ~config in
  let t0 = Clock.counter () in
  let sw = Session.Stepwise.resume ~engine ~max_rounds ~dataset ~demo_images sim.task in
  let rec drive () = match Session.Stepwise.step sw with Some _ -> drive () | None -> () in
  drive ();
  let warm_time_s = Clock.elapsed_s t0 in
  match Session.Stepwise.status sw with
  | Session.Stepwise.Solved repaired ->
      let res = Session.Stepwise.result sw in
      let round_demos = List.map (fun (r : Session.round) -> r.demo_image) res.rounds in
      (* The resumed rounds' first demo is [frame] itself; later rounds
         (if any) added fresh images — fold them onto the history. *)
      sim.demo_hist <-
        List.fold_left
          (fun acc d -> d :: acc)
          demo_images
          (match round_demos with [] -> [] | _ :: later -> later);
      let nodes_warm = nodes_of_rounds res.rounds in
      let nodes_cold, cold_time_s, cold_solved =
        if config.cold_compare then begin
          let t1 = Clock.counter () in
          let cold = Session.run_with ~engine ~max_rounds ~dataset sim.task in
          (Some (nodes_of_rounds cold.Session.rounds), Some (Clock.elapsed_s t1),
           cold.Session.solved)
        end
        else (None, None, false)
      in
      Some
        {
          at_frame = frame;
          demo_frames = sim.demo_hist;
          rounds_warm = List.length res.rounds;
          nodes_warm;
          warm_time_s;
          nodes_cold;
          cold_time_s;
          cold_solved;
          repaired;
        }
  | _ -> None

let exec ~(config : config) ~corpus ~program ~sim ~bootstrap_info =
  let t0 = Clock.counter () in
  let cache = Window.create ~window:config.window in
  let nframes = Corpus.frames corpus in
  let deployed = ref program in
  let repairs = ref [] in
  let repair_failed = ref false in
  let mismatched = ref 0 in
  let edits_total = ref 0 in
  let digest = ref (Digest.string "imageeye-stream") in
  let absorb sgn = digest := Digest.string (!digest ^ sgn) in
  (* Edit counts of the in-flight window, per frame — kept per frame so a
     repair can splice the repaired program's edits back into the frames
     of the failing window it has already passed. *)
  let win_counts : (int, int) Hashtbl.t = Hashtbl.create 512 in
  let win_start = ref 0 in
  let finished_windows = ref [] in
  let flush_window () =
    let total = Hashtbl.fold (fun _ c acc -> acc + c) win_counts 0 in
    finished_windows := (!win_start, total) :: !finished_windows;
    Hashtbl.reset win_counts
  in
  let budget_hit = ref false in
  let f = ref 0 in
  while !f < nframes && not !budget_hit do
    (match config.time_budget_s with
    | Some b when Clock.elapsed_s t0 > b -> budget_hit := true
    | _ -> ());
    if not !budget_hit then begin
      let frame = !f in
      if frame > 0 && frame mod config.window = 0 then begin
        flush_window ();
        win_start := frame
      end;
      let scene = Corpus.scene corpus frame in
      let u = Window.universe cache frame scene in
      let deployed_edit, count, sgn = frame_edit u frame !deployed in
      Hashtbl.replace win_counts frame count;
      edits_total := !edits_total + count;
      absorb sgn;
      (match sim with
      | None -> ()
      | Some sim ->
          let gt_edit = Edit.induced_by_program u sim.task.Task.ground_truth in
          if not (Session.edits_agree_on_image u gt_edit deployed_edit frame) then begin
            incr mismatched;
            if List.length !repairs < config.max_repairs && not !repair_failed then begin
              match repair_at ~config ~sim frame scene with
              | None -> repair_failed := true
              | Some rep ->
                  repairs := rep :: !repairs;
                  deployed := rep.repaired;
                  (* Splice the repaired program into the stream at the
                     failing window: re-emit this window's frames (all
                     still live in the cache — the window bucket and the
                     cache share one width) under the new program. *)
                  for g = !win_start to frame do
                    match Window.find cache g with
                    | None -> ()
                    | Some ug ->
                        let _, c', sgn' = frame_edit ug g !deployed in
                        let old = Option.value (Hashtbl.find_opt win_counts g) ~default:0 in
                        edits_total := !edits_total - old + c';
                        Hashtbl.replace win_counts g c';
                        absorb ("splice:" ^ sgn')
                  done
            end
          end);
      incr f
    end
  done;
  flush_window ();
  let elapsed_s = Clock.elapsed_s t0 in
  let frames_done = !f in
  let peak = Window.peak cache in
  let built = Window.built cache in
  Window.drop cache;
  {
    frames_requested = nframes;
    frames_done;
    window = config.window;
    edits = !edits_total;
    per_window_edits = List.rev !finished_windows;
    mismatched_frames = !mismatched;
    repairs = List.rev !repairs;
    repair_failed = !repair_failed;
    bootstrap_info;
    program = !deployed;
    elapsed_s;
    images_per_s = (if elapsed_s > 0.0 then float_of_int frames_done /. elapsed_s else 0.0);
    peak_live_universes = peak;
    universes_built = built;
    peak_rss_kb = peak_rss_kb ();
    edit_digest = !digest;
  }

let apply ?(config = default_config) ~corpus program =
  exec ~config ~corpus ~program ~sim:None ~bootstrap_info:None

let run ?(config = default_config) ~corpus task =
  let dataset = Corpus.prefix_dataset corpus config.bootstrap_frames in
  let engine = session_engine ~config in
  let t0 = Clock.counter () in
  let res = Session.run_with ~engine ~max_rounds:8 ~dataset task in
  match res.Session.program with
  | None ->
      Error
        (Printf.sprintf "bootstrap failed on the %d-frame prefix (%s)"
           config.bootstrap_frames
           (match res.Session.failure with
           | Some Session.Synth_failed -> "synthesis failed"
           | Some Session.Rounds_exhausted -> "rounds exhausted"
           | Some Session.No_useful_image -> "ground truth edits nothing on the prefix"
           | None -> "unknown"))
  | Some program ->
      let bootstrap_info =
        Some
          {
            demo_trajectory =
              List.rev_map (fun (r : Session.round) -> r.demo_image) res.Session.rounds;
            nodes_bootstrap = nodes_of_rounds res.Session.rounds;
            bootstrap_time_s = Clock.elapsed_s t0;
          }
      in
      let sim =
        Some
          {
            task;
            boot_scenes = dataset.Dataset.scenes;
            extra_scenes = [];
            demo_hist =
              List.rev_map (fun (r : Session.round) -> r.demo_image) res.Session.rounds;
          }
      in
      Ok (exec ~config ~corpus ~program ~sim ~bootstrap_info)
