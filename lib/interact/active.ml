module Lang = Imageeye_core.Lang
module Edit = Imageeye_core.Edit
module Synthesizer = Imageeye_core.Synthesizer
module Universe = Imageeye_symbolic.Universe
module Scene = Imageeye_scene.Scene
module Dataset = Imageeye_scene.Dataset
module Batch = Imageeye_vision.Batch
module Task = Imageeye_tasks.Task

(* The edit a program performs on one raw image, in comparable form. *)
let restricted_edit u program img =
  let edit = Edit.induced_by_program u program in
  List.map
    (fun id -> List.sort_uniq Stdlib.compare (Edit.actions_of edit id))
    (Universe.objects_of_image u img)

let disagreement u candidates img =
  let distinct =
    List.sort_uniq Stdlib.compare
      (List.map (fun p -> restricted_edit u p img) candidates)
  in
  max 0 (List.length distinct - 1)

let suggest u ~exclude candidates =
  let images =
    List.filter (fun img -> not (List.mem img exclude)) (Universe.image_ids u)
  in
  let weight img = List.length (Universe.objects_of_image u img) in
  let best =
    List.fold_left
      (fun acc img ->
        let d = disagreement u candidates img in
        if d = 0 then acc
        else
          match acc with
          | Some (_, bd, bw) when bd > d || (bd = d && bw <= weight img) -> acc
          | _ -> Some (img, d, weight img))
      None images
  in
  Option.map (fun (img, _, _) -> img) best

(* Synthesize up to [count] whole programs consistent with the spec: the
   first extractor list is the cartesian-free "first choice", and the
   alternatives vary the extractor of each action independently. *)
let candidate_programs ~config ~count (spec : Edit.Spec.t) =
  let u = spec.universe in
  let actions = Edit.Spec.demonstrated_actions spec in
  let per_action =
    List.map
      (fun action ->
        let i_out = Edit.Spec.output_for_action spec action in
        let extractors, stats =
          Synthesizer.synthesize_extractors ~config ~count u i_out
        in
        (action, extractors, stats))
      actions
  in
  if List.exists (fun (_, es, _) -> es = []) per_action then (None, per_action)
  else
    let programs =
      (* k-th candidate program = k-th extractor for each action (clamped);
         distinctness comes from any action having alternatives. *)
      List.init count (fun k ->
          List.map
            (fun (action, extractors, _) ->
              let e = try List.nth extractors k with _ -> List.hd extractors in
              (e, action))
            per_action)
      |> List.sort_uniq Stdlib.compare
    in
    (Some programs, per_action)

let run ?(config = Synthesizer.default_config) ?(max_rounds = 10) ?(candidates = 4)
    ?batch_universe ~dataset task =
  let scenes = dataset.Dataset.scenes in
  let batch_u =
    match batch_universe with Some u -> u | None -> Batch.universe_of_scenes scenes
  in
  let gt_edit = Edit.induced_by_program batch_u task.Task.ground_truth in
  let image_ids = List.map (fun s -> s.Scene.image_id) scenes in
  let scene_of img = List.find (fun s -> s.Scene.image_id = img) scenes in
  let useful =
    List.filter
      (fun img ->
        List.exists
          (fun id -> Edit.actions_of gt_edit id <> [])
          (Universe.objects_of_image batch_u img))
      image_ids
  in
  let sparsest candidates =
    let weight img = List.length (Universe.objects_of_image batch_u img) in
    match candidates with
    | [] -> None
    | c :: cs ->
        Some
          (List.fold_left (fun best img -> if weight img < weight best then img else best) c cs)
  in
  let finish ~solved ~failure ~rounds ~program =
    let rounds = List.rev rounds in
    {
      Session.task;
      solved;
      failure;
      rounds;
      program;
      spec_minimal = None;
      examples_used = List.length rounds;
      last_round_time =
        (match List.rev rounds with [] -> 0.0 | (r : Session.round) :: _ -> r.synth_time);
    }
  in
  match sparsest useful with
  | None ->
      finish ~solved:false ~failure:(Some Session.No_useful_image) ~rounds:[] ~program:None
  | Some first_demo ->
      let rec loop demo_images rounds round_index =
        let demo_scenes = List.map scene_of demo_images in
        let demo_u = Batch.shared_universe_of_scenes demo_scenes in
        let demo_edit = Edit.induced_by_program demo_u task.Task.ground_truth in
        let spec = Edit.Spec.make demo_u [ (List.hd demo_images, demo_edit) ] in
        let t0 = Imageeye_util.Clock.counter () in
        let programs, _ = candidate_programs ~config ~count:candidates spec in
        let elapsed = Imageeye_util.Clock.elapsed_s t0 in
        let round prog =
          {
            Session.round_index;
            demo_image = List.hd demo_images;
            synth_time = elapsed;
            synth_stats = None;
            candidate = prog;
          }
        in
        match programs with
        | None | Some [] ->
            finish ~solved:false ~failure:(Some Session.Synth_failed)
              ~rounds:(round None :: rounds) ~program:None
        | Some (first :: _ as progs) -> (
            let rounds = round (Some first) :: rounds in
            let cand_edit = Edit.induced_by_program batch_u first in
            let mismatches =
              List.filter
                (fun img -> not (Session.edits_agree_on_image batch_u gt_edit cand_edit img))
                image_ids
            in
            match mismatches with
            | [] -> finish ~solved:true ~failure:None ~rounds ~program:(Some first)
            | _ when round_index >= max_rounds ->
                finish ~solved:false ~failure:(Some Session.Rounds_exhausted) ~rounds
                  ~program:None
            | _ -> (
                (* Active choice first; fall back to the user noticing a
                   mismatch on a sparse image. *)
                let next =
                  match suggest batch_u ~exclude:demo_images progs with
                  | Some img -> Some img
                  | None ->
                      sparsest
                        (List.filter (fun i -> not (List.mem i demo_images)) mismatches)
                in
                match next with
                | None ->
                    finish ~solved:false ~failure:(Some Session.Rounds_exhausted) ~rounds
                      ~program:None
                | Some next -> loop (next :: demo_images) rounds (round_index + 1)))
      in
      loop [ first_demo ] [] 1
