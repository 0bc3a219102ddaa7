module Lang = Imageeye_core.Lang
module Edit = Imageeye_core.Edit
module Cost = Imageeye_core.Cost
module Synthesizer = Imageeye_core.Synthesizer
module Universe = Imageeye_symbolic.Universe
module Scene = Imageeye_scene.Scene
module Dataset = Imageeye_scene.Dataset
module Batch = Imageeye_vision.Batch
module Task = Imageeye_tasks.Task

type engine_result = {
  program : Lang.program option;
  time : float;
  stats : Synthesizer.stats option;
}

type engine = Edit.Spec.t -> engine_result

let imageeye_engine config spec =
  match Synthesizer.synthesize ~config spec with
  | Synthesizer.Success (prog, st) ->
      { program = Some prog; time = st.elapsed_s; stats = Some st }
  | Synthesizer.Timeout st | Synthesizer.Exhausted st ->
      { program = None; time = st.elapsed_s; stats = Some st }

type optimize_result = {
  per_action : (Lang.action * Lang.extractor list) list option;
      (* cost-ranked spec-consistent candidates per action; [None] when
         the minimizing search failed outright *)
  opt_time : float;
  opt_stats : Synthesizer.stats option;
}

type optimizer = Edit.Spec.t -> optimize_result

let imageeye_optimizer config spec =
  match Synthesizer.synthesize_ranked ~config spec with
  | Synthesizer.Success (ranked, st) ->
      { per_action = Some ranked; opt_time = st.elapsed_s; opt_stats = Some st }
  | Synthesizer.Timeout st | Synthesizer.Exhausted st ->
      { per_action = None; opt_time = st.elapsed_s; opt_stats = Some st }

let eusolver_engine ~timeout_s spec =
  let config = { Imageeye_baseline.Eusolver.default_config with timeout_s } in
  match Imageeye_baseline.Eusolver.synthesize ~config spec with
  | Imageeye_baseline.Eusolver.Success (prog, st) ->
      { program = Some prog; time = st.elapsed_s; stats = None }
  | Imageeye_baseline.Eusolver.Timeout st | Imageeye_baseline.Eusolver.Exhausted st ->
      { program = None; time = st.elapsed_s; stats = None }

type round = {
  round_index : int;
  demo_image : int;
  synth_time : float;
  synth_stats : Synthesizer.stats option;
  candidate : Lang.program option;
}

type failure_reason = Synth_failed | Rounds_exhausted | No_useful_image

type result = {
  task : Task.t;
  solved : bool;
  failure : failure_reason option;
  rounds : round list;
  program : Lang.program option;
  spec_minimal : Lang.program option;
      (* the cost-minimal spec-consistent program the post-acceptance
         minimizer found, before full-dataset validation; [None] without
         an optimizer or when the task was not solved *)
  examples_used : int;
  last_round_time : float;
}

let edits_agree_on_image u a b img =
  let ids = Universe.objects_of_image u img in
  List.for_all
    (fun id ->
      List.sort_uniq Stdlib.compare (Edit.actions_of a id)
      = List.sort_uniq Stdlib.compare (Edit.actions_of b id))
    ids

(* Greedy per-action frontier walk over the optimizer's cost-ranked
   candidates: for each action, adopt the cheapest strictly-cheaper
   candidate whose substitution still passes [validate] (the full-dataset
   user check), holding the other actions fixed.  An object's action list
   is the union over the program's rules, one rule per action, so one
   action's extractor never affects another action's assignments — the
   per-action validation is exact and the greedy walk reaches the
   cheapest validating combination.  [max_walk] bounds the dataset
   evaluations spent per action on candidates that keep failing. *)
let max_walk = 64

let minimize_program ~validate ~ranked prog =
  let replace action e =
    List.map (fun (e0, a) -> if a = action then (e, a) else (e0, a))
  in
  List.fold_left
    (fun current (action, cands) ->
      match List.find_opt (fun (_, a) -> a = action) current with
      | None -> current
      | Some (cur, _) -> (
          let cur_cost = Cost.of_extractor cur in
          let better =
            List.filter
              (fun e -> Cost.compare (Cost.of_extractor e) cur_cost < 0)
              cands
          in
          let better = List.filteri (fun i _ -> i < max_walk) better in
          match List.find_opt (fun e -> validate (replace action e current)) better with
          | Some e -> replace action e current
          | None -> current))
    prog ranked

(* The image (among [candidates]) with the fewest detected objects — the
   paper's user picks sparse images because they are the least work to
   annotate. *)
let sparsest u candidates =
  let weight img = List.length (Universe.objects_of_image u img) in
  match candidates with
  | [] -> None
  | c :: cs ->
      Some
        (List.fold_left (fun best img -> if weight img < weight best then img else best) c cs)

module Stepwise = struct
  type status =
    | Awaiting_round
    | Solved of Lang.program
    | Failed of failure_reason

  type t = {
    engine : engine;
    optimize : optimizer option;
        (* post-acceptance minimization: run once on the accepted round's
           spec; cheaper candidates are adopted (cheapest first, per
           action) only when they pass the same full-dataset user check
           the accepted program did *)
    max_rounds : int;
    task : Task.t;
    batch_u : Universe.t;
    gt_edit : Edit.t;
    image_ids : int list;
    scene_of : int -> Scene.t;
    (* demonstrated images, most recent first; the head is the image the
       next round demonstrates *)
    mutable demo_images : int list;
    mutable rounds : round list;  (** accumulated in reverse *)
    mutable round_index : int;
    mutable status : status;
    mutable spec_minimal : Lang.program option;
  }

  let status t = t.status

  let next_demo t =
    match (t.status, t.demo_images) with
    | Awaiting_round, img :: _ -> Some img
    | _ -> None

  let start ~engine ?optimize ?(max_rounds = 10) ?batch_universe ~dataset task =
    let scenes = dataset.Dataset.scenes in
    let batch_u =
      match batch_universe with Some u -> u | None -> Batch.universe_of_scenes scenes
    in
    let gt_edit = Edit.induced_by_program batch_u task.Task.ground_truth in
    let image_ids = List.map (fun s -> s.Scene.image_id) scenes in
    let scene_of img = List.find (fun s -> s.Scene.image_id = img) scenes in
    (* Images on which the ground-truth program actually does something:
       only these are useful demonstrations. *)
    let useful =
      List.filter
        (fun img ->
          List.exists
            (fun id -> Edit.actions_of gt_edit id <> [])
            (Universe.objects_of_image batch_u img))
        image_ids
    in
    let demo_images, status =
      match sparsest batch_u useful with
      | None -> ([], Failed No_useful_image)
      | Some first_demo -> ([ first_demo ], Awaiting_round)
    in
    {
      engine;
      optimize;
      max_rounds;
      task;
      batch_u;
      gt_edit;
      image_ids;
      scene_of;
      demo_images;
      rounds = [];
      round_index = 1;
      status;
      spec_minimal = None;
    }

  (* Incremental re-synthesis: continue an earlier session's
     demonstration trajectory instead of replaying it.  [demo_images] is
     the accumulated demonstration list, most recent first — in the
     streaming repair path, the mid-stream counterexample consed onto the
     demonstrations the deployed program was synthesized from.  The next
     {!step} synthesizes once over the whole accumulated set (warm: the
     rounds already satisfied are not replayed), where a cold restart
     would re-run the interaction loop from round 1. *)
  let resume ~engine ?optimize ?(max_rounds = 10) ?batch_universe ~dataset ~demo_images
      task =
    if demo_images = [] then invalid_arg "Session.Stepwise.resume: no demonstrations";
    let scenes = dataset.Dataset.scenes in
    let image_ids = List.map (fun s -> s.Scene.image_id) scenes in
    List.iter
      (fun img ->
        if not (List.mem img image_ids) then
          invalid_arg
            (Printf.sprintf "Session.Stepwise.resume: image %d is not in the dataset" img))
      demo_images;
    let batch_u =
      match batch_universe with Some u -> u | None -> Batch.universe_of_scenes scenes
    in
    let gt_edit = Edit.induced_by_program batch_u task.Task.ground_truth in
    let scene_of img = List.find (fun s -> s.Scene.image_id = img) scenes in
    {
      engine;
      optimize;
      max_rounds;
      task;
      batch_u;
      gt_edit;
      image_ids;
      scene_of;
      demo_images;
      rounds = [];
      round_index = List.length demo_images;
      status = Awaiting_round;
      spec_minimal = None;
    }

  let step t =
    match t.status with
    | Solved _ | Failed _ -> None
    | Awaiting_round ->
        (* Build the demonstration universe (only demonstrated images) and
           the edit the user performs on it. *)
        let demo_scenes = List.map t.scene_of t.demo_images in
        (* Interned: rounds and tasks demonstrating the same images share
           one physical universe, and with it the synthesizer's
           per-universe vocabulary. *)
        let demo_u = Batch.shared_universe_of_scenes demo_scenes in
        let demo_edit = Edit.induced_by_program demo_u t.task.Task.ground_truth in
        let spec = Edit.Spec.make demo_u [ (List.hd t.demo_images, demo_edit) ] in
        let er = t.engine spec in
        let mismatches_of prog =
          let cand_edit = Edit.induced_by_program t.batch_u prog in
          List.filter
            (fun img -> not (edits_agree_on_image t.batch_u t.gt_edit cand_edit img))
            t.image_ids
        in
        (* On acceptance, optionally minimize: re-synthesize the same
           spec with the cost-directed engine and walk its cost-ranked
           candidate frontier, adopting cheaper extractors only when the
           substituted program passes the identical full-dataset user
           check the accepted program just did.  The interaction
           trajectory (rounds, demonstrations, solvability) is untouched
           — optimization runs strictly after the user would have
           accepted, never inside the refinement loop. *)
        let er, mismatches =
          match er.program with
          | None -> (er, [])
          | Some prog -> (
              match (mismatches_of prog, t.optimize) with
              | [], Some optimize ->
                  let opt = optimize spec in
                  let program =
                    match opt.per_action with
                    | Some ranked ->
                        (* The spec-level minimum (cheapest candidate per
                           action) is recorded even when full-dataset
                           validation rejects it — the gap between the
                           two is itself a measurement. *)
                        (match
                           List.map
                             (function
                               | action, cand :: _ -> (cand, action)
                               | _, [] -> raise Exit)
                             ranked
                         with
                        | spec_best -> t.spec_minimal <- Some spec_best
                        | exception Exit -> ());
                        minimize_program
                          ~validate:(fun q -> mismatches_of q = [])
                          ~ranked prog
                    | None -> prog
                  in
                  ( {
                      program = Some program;
                      time = er.time +. opt.opt_time;
                      stats =
                        (match (er.stats, opt.opt_stats) with
                        | Some a, Some b -> Some (Synthesizer.add_stats a b)
                        | (Some _ as a), None -> a
                        | None, b -> b);
                    },
                    [] )
              | mismatches, _ -> (er, mismatches))
        in
        let round =
          {
            round_index = t.round_index;
            demo_image = List.hd t.demo_images;
            synth_time = er.time;
            synth_stats = er.stats;
            candidate = er.program;
          }
        in
        t.rounds <- round :: t.rounds;
        (match er.program with
        | None -> t.status <- Failed Synth_failed
        | Some prog -> (
            match mismatches with
            | [] -> t.status <- Solved prog
            | _ when t.round_index >= t.max_rounds -> t.status <- Failed Rounds_exhausted
            | _ -> (
                let fresh =
                  List.filter (fun i -> not (List.mem i t.demo_images)) mismatches
                in
                match sparsest t.batch_u fresh with
                | None ->
                    (* Every mismatching image is already demonstrated: more
                       examples cannot help. *)
                    t.status <- Failed Rounds_exhausted
                | Some next ->
                    t.demo_images <- next :: t.demo_images;
                    t.round_index <- t.round_index + 1)));
        Some round

  let result t =
    let rounds = List.rev t.rounds in
    let solved, failure, program =
      match t.status with
      | Solved prog -> (true, None, Some prog)
      | Failed reason -> (false, Some reason, None)
      | Awaiting_round -> (false, None, None)
    in
    {
      task = t.task;
      solved;
      failure;
      rounds;
      program;
      spec_minimal = t.spec_minimal;
      examples_used = List.length rounds;
      last_round_time = (match t.rounds with [] -> 0.0 | r :: _ -> r.synth_time);
    }
end

let run_with ~engine ?optimize ?max_rounds ?batch_universe ~dataset task =
  let s = Stepwise.start ~engine ?optimize ?max_rounds ?batch_universe ~dataset task in
  let rec drive () = match Stepwise.step s with Some _ -> drive () | None -> () in
  drive ();
  Stepwise.result s

(* With [config.optimality] set, the refinement rounds run in
   first-consistent mode — so the interaction trajectory is identical to
   the default — and the accepted program is then minimized once under
   the cost order (see {!Stepwise.step}). *)
let run ?(config = Synthesizer.default_config) ?max_rounds ?batch_universe ~dataset task =
  if config.Synthesizer.optimality then
    run_with
      ~engine:(imageeye_engine { config with Synthesizer.optimality = false })
      ~optimize:(imageeye_optimizer config)
      ?max_rounds ?batch_universe ~dataset task
  else run_with ~engine:(imageeye_engine config) ?max_rounds ?batch_universe ~dataset task
