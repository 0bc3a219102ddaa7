(* Search decisions pinned across versions.  [test_engine_equiv] compares
   configurations against each other within one build, so a rewrite of the
   search's hot path that changes what every configuration does in the
   same way passes it.  This suite compares the build against literals:
   the full statistics of a few expansion-capped searches.  Any change to
   which candidates the search generates, in which order, or which pass
   kills them moves at least one counter here.

   The cases cover one task per domain, on demo universes of one to five
   images. *)

module Lang = Imageeye_core.Lang
module Engine_search = Imageeye_core.Engine_search
module Edit = Imageeye_core.Edit
module Dataset = Imageeye_scene.Dataset
module Scene = Imageeye_scene.Scene
module Batch = Imageeye_vision.Batch
module Task = Imageeye_tasks.Task
module Benchmarks = Imageeye_tasks.Benchmarks

(* Deterministic budget: the expansion cap ends every search that does
   not solve, long before the wall-clock timeout could. *)
let base_config =
  { Engine_search.default_config with timeout_s = 600.0; max_expansions = 3_000 }

let reason_to_string = function
  | `Found_enough -> "found"
  | `Timeout -> "timeout"
  | `Exhausted -> "exhausted"

(* Everything observable about one search except wall time. *)
let search_sig ~config u i_out =
  let solutions, reason, (st : Engine_search.stats) =
    Engine_search.search ~config ~limit:1 u i_out
  in
  Printf.sprintf "%s [%s] nodes=%d popped=%d enqueued=%d {%s}" (reason_to_string reason)
    (String.concat "; " (List.map Lang.extractor_to_string solutions))
    st.nodes st.popped st.enqueued
    (String.concat ", "
       (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) st.prune_counts))

(* One search per demonstrated action of [task], over the universe of the
   first [n_images] images of the seed-42 dataset, demonstrated in full
   (as the interaction loop does once it has seen [n_images] images), in
   the named row of [Engine_search.ablations]. *)
let task_sig ~ablation ~task ~n_images =
  let config = (List.assoc ablation Engine_search.ablations) base_config in
  let task = Benchmarks.by_id task in
  let dataset = Dataset.generate ~n_images ~seed:42 task.Task.domain in
  let u = Batch.universe_of_scenes dataset.Dataset.scenes in
  let edit = Edit.induced_by_program u task.Task.ground_truth in
  let first = (List.hd dataset.Dataset.scenes).Scene.image_id in
  let spec = Edit.Spec.make u [ (first, edit) ] in
  List.map
    (fun action ->
      Lang.action_to_string action ^ ": "
      ^ search_sig ~config u (Edit.Spec.output_for_action spec action))
    (Edit.Spec.demonstrated_actions spec)

let name (task, n_images, ablation) =
  Printf.sprintf "task %d, %d image(s), %s" task n_images ablation

let pinned ((task, n_images, ablation) as case) expected () =
  Alcotest.(check (list string)) (name case) expected (task_sig ~ablation ~task ~n_images)

let cases =
  [
    ( (5, 3, "full"),
      [
        "Brighten: found [Find(Find(All, FaceObject, GetRight), FaceObject, GetRight)] \
         nodes=1713 popped=447 enqueued=584 {\
         equiv-dedup=72, equiv-rewrite=93, eval-cache(evaluated)=1713, \
         eval-cache(memo-hit)=844, eval-cache(value-hit)=219, \
         eval-cache(value-miss)=259, fwd-bwd(iterations)=768, \
         fwd-bwd(tightened)=206, goal-inference=1084, \
         partial-eval(const-solved)=1}";
      ] );
    ( (13, 5, "full"),
      [
        "Brighten: exhausted [] \
         nodes=12173 popped=3000 enqueued=4863 {\
         equiv-dedup=1397, equiv-rewrite=869, \
         eval-cache(evaluated)=12173, eval-cache(memo-hit)=6811, \
         eval-cache(value-hit)=4402, eval-cache(value-miss)=1794, \
         fwd-bwd=16, fwd-bwd(iterations)=6889, fwd-bwd(tightened)=2070, \
         goal-inference=5869}";
      ] );
    ( (20, 3, "full"),
      [
        "Brighten: found [Find(Is(Word(\"bread\")), TextObject, GetRight)] \
         nodes=1101 popped=51 enqueued=73 {\
         equiv-dedup=5, equiv-rewrite=17, eval-cache(evaluated)=1101, \
         eval-cache(memo-hit)=168, eval-cache(value-hit)=11, \
         eval-cache(value-miss)=106, fwd-bwd(iterations)=91, \
         fwd-bwd(tightened)=18, goal-inference=964, \
         partial-eval(const-solved)=1}";
      ] );
    ( (23, 5, "full"),
      [
        "Brighten: found [Find(Find(All, TextObject, GetLeft), TextObject, GetLeft)] \
         nodes=9386 popped=1914 enqueued=2167 {\
         equiv-dedup=227, equiv-rewrite=241, eval-cache(evaluated)=9386, \
         eval-cache(memo-hit)=4634, eval-cache(value-hit)=582, \
         eval-cache(value-miss)=1102, fwd-bwd(iterations)=3467, \
         fwd-bwd(tightened)=1316, goal-inference=6555, \
         partial-eval(const-solved)=1}";
      ] );
    ( (26, 1, "full"),
      [
        "Blackout: found [Complement(Find(Complement(Is(Word(\"thanks\"))), TextObject, GetAbove))] \
         nodes=12715 popped=2566 enqueued=2594 {\
         equiv-dedup=1050, equiv-rewrite=878, eval-cache(evaluated)=12715, \
         eval-cache(memo-hit)=9781, eval-cache(value-hit)=642, \
         eval-cache(value-miss)=949, fwd-bwd(iterations)=4016, \
         fwd-bwd(tightened)=1638, goal-inference=8429, \
         partial-eval(const-solved)=1}";
      ] );
    ( (26, 1, "no-equiv-reduction"),
      [
        "Blackout: exhausted [] \
         nodes=9079 popped=3000 enqueued=3013 {\
         eval-cache(evaluated)=9079, eval-cache(memo-hit)=6911, \
         eval-cache(value-hit)=717, eval-cache(value-miss)=714, fwd-bwd=3, \
         fwd-bwd(iterations)=4139, fwd-bwd(tightened)=2078, \
         goal-inference=6267}";
      ] );
    ( (47, 5, "full"),
      [
        "Sharpen: exhausted [] \
         nodes=16505 popped=3000 enqueued=3921 {\
         equiv-dedup=4350, equiv-rewrite=2371, \
         eval-cache(evaluated)=16505, eval-cache(memo-hit)=14465, \
         eval-cache(value-hit)=5064, eval-cache(value-miss)=420, \
         fwd-bwd(iterations)=5569, fwd-bwd(tightened)=2334, \
         goal-inference=5710}";
      ] );
    ( (50, 3, "full"),
      [
        "Brighten: exhausted [] \
         nodes=16677 popped=3000 enqueued=3905 {\
         equiv-dedup=4362, equiv-rewrite=2334, \
         eval-cache(evaluated)=16677, eval-cache(memo-hit)=14013, \
         eval-cache(value-hit)=6005, eval-cache(value-miss)=346, \
         fwd-bwd=8, fwd-bwd(iterations)=5440, fwd-bwd(tightened)=2116, \
         goal-inference=5916}";
      ] );
  ]

let () =
  Alcotest.run "search-pin"
    [
      ( "pinned",
        List.map
          (fun (case, expected) ->
            Alcotest.test_case (name case) `Quick (pinned case expected))
          cases );
    ]
