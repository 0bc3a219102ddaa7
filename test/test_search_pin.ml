(* Search decisions pinned across versions.  [test_engine_equiv] compares
   configurations against each other within one build, so a rewrite of the
   search's hot path that changes what every configuration does in the
   same way passes it.  This suite compares the build against literals:
   the full statistics of a few expansion-capped searches, as measured
   before the vocabulary facts, the per-tier instantiation and the
   whole-universe fwd-bwd intervals were rewritten for speed.  Any change
   to which candidates the search generates, in which order, or which
   pass kills them moves at least one counter here.

   The cases cover one task per domain, on demo universes of one to five
   images: multi-image universes give the fwd-bwd analysis one plane per
   image, which is where its cardinality kills come from. *)

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
let search_sig ~config u ~demo_images i_out =
  let solutions, reason, (st : Engine_search.stats) =
    Engine_search.search ~config ~limit:1 ~demo_images u i_out
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
      ^ search_sig ~config u ~demo_images:[ first ] (Edit.Spec.output_for_action spec action))
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
         nodes=1713 popped=415 enqueued=552 {\
         equiv-dedup=72, equiv-rewrite=93, eval-cache(evaluated)=1713, \
         eval-cache(memo-hit)=844, eval-cache(value-hit)=219, \
         eval-cache(value-miss)=259, fwd-bwd=32, fwd-bwd(card-kill)=12, \
         fwd-bwd(iterations)=905, fwd-bwd(tightened)=206, \
         goal-inference=1084, partial-eval(const-solved)=1}";
      ] );
    ( (13, 5, "full"),
      [
        "Brighten: found [Intersect(Complement(Is(MouthOpen)), Find(Is(EyesOpen), Smiling, GetRight))] \
         nodes=15041 popped=2876 enqueued=4901 {\
         equiv-dedup=1622, equiv-rewrite=1310, \
         eval-cache(evaluated)=15041, eval-cache(memo-hit)=9388, \
         eval-cache(value-hit)=4782, eval-cache(value-miss)=1964, \
         fwd-bwd=444, fwd-bwd(card-kill)=104, fwd-bwd(iterations)=8385, \
         fwd-bwd(tightened)=2258, goal-inference=7372, \
         partial-eval(const-solved)=1}";
      ] );
    ( (13, 5, "no-cardinality"),
      [
        "Brighten: found [Intersect(Complement(Is(MouthOpen)), Find(Is(EyesOpen), Smiling, GetRight))] \
         nodes=15617 popped=2932 enqueued=5069 {\
         equiv-dedup=1622, equiv-rewrite=1310, \
         eval-cache(evaluated)=15617, eval-cache(memo-hit)=9392, \
         eval-cache(value-hit)=5510, eval-cache(value-miss)=2088, \
         fwd-bwd=340, fwd-bwd(iterations)=7558, fwd-bwd(tightened)=2242, \
         goal-inference=7760, partial-eval(const-solved)=1}";
      ] );
    ( (13, 5, "no-per-image"),
      [
        "Brighten: found [Intersect(Complement(Is(MouthOpen)), Find(Is(EyesOpen), Smiling, GetRight))] \
         nodes=16021 popped=2976 enqueued=5173 {\
         equiv-dedup=1622, equiv-rewrite=1318, \
         eval-cache(evaluated)=16021, eval-cache(memo-hit)=9488, \
         eval-cache(value-hit)=5938, eval-cache(value-miss)=2136, \
         fwd-bwd=276, fwd-bwd(card-kill)=260, fwd-bwd(iterations)=8687, \
         fwd-bwd(tightened)=2250, goal-inference=8032, \
         partial-eval(const-solved)=1}";
      ] );
    ( (20, 3, "full"),
      [
        "Brighten: found [Find(Is(Word(\"bread\")), TextObject, GetRight)] \
         nodes=1101 popped=51 enqueued=73 {\
         equiv-dedup=5, equiv-rewrite=17, eval-cache(evaluated)=1101, \
         eval-cache(memo-hit)=168, eval-cache(value-hit)=11, \
         eval-cache(value-miss)=106, fwd-bwd(iterations)=107, \
         fwd-bwd(tightened)=18, goal-inference=964, \
         partial-eval(const-solved)=1}";
      ] );
    ( (23, 5, "full"),
      [
        "Brighten: found [Find(Find(All, TextObject, GetLeft), TextObject, GetLeft)] \
         nodes=9386 popped=1910 enqueued=2163 {\
         equiv-dedup=227, equiv-rewrite=241, eval-cache(evaluated)=9386, \
         eval-cache(memo-hit)=4634, eval-cache(value-hit)=582, \
         eval-cache(value-miss)=1102, fwd-bwd=4, fwd-bwd(card-kill)=4, \
         fwd-bwd(iterations)=3496, fwd-bwd(tightened)=1316, \
         goal-inference=6555, partial-eval(const-solved)=1}";
      ] );
    ( (26, 1, "full"),
      [
        "Blackout: found [Complement(Find(Complement(Is(Word(\"thanks\"))), TextObject, GetAbove))] \
         nodes=12715 popped=2558 enqueued=2586 {\
         equiv-dedup=1050, equiv-rewrite=878, eval-cache(evaluated)=12715, \
         eval-cache(memo-hit)=9781, eval-cache(value-hit)=642, \
         eval-cache(value-miss)=949, fwd-bwd=8, fwd-bwd(card-kill)=8, \
         fwd-bwd(iterations)=4033, fwd-bwd(tightened)=1638, \
         goal-inference=8429, partial-eval(const-solved)=1}";
      ] );
    ( (26, 1, "no-equiv-reduction"),
      [
        "Blackout: exhausted [] \
         nodes=9079 popped=3000 enqueued=3013 {\
         eval-cache(evaluated)=9079, eval-cache(memo-hit)=6911, \
         eval-cache(value-hit)=717, eval-cache(value-miss)=714, fwd-bwd=3, \
         fwd-bwd(iterations)=4149, fwd-bwd(tightened)=2078, \
         goal-inference=6267}";
      ] );
    ( (47, 5, "full"),
      [
        "Sharpen: exhausted [] \
         nodes=16505 popped=3000 enqueued=3921 {\
         equiv-dedup=4350, equiv-rewrite=2371, \
         eval-cache(evaluated)=16505, eval-cache(memo-hit)=14465, \
         eval-cache(value-hit)=5064, eval-cache(value-miss)=420, \
         fwd-bwd(iterations)=5581, fwd-bwd(tightened)=2334, \
         goal-inference=5710}";
      ] );
    ( (50, 3, "full"),
      [
        "Brighten: exhausted [] \
         nodes=16678 popped=3000 enqueued=3892 {\
         equiv-dedup=4427, equiv-rewrite=2394, \
         eval-cache(evaluated)=16678, eval-cache(memo-hit)=14237, \
         eval-cache(value-hit)=5770, eval-cache(value-miss)=340, \
         fwd-bwd=70, fwd-bwd(iterations)=5682, fwd-bwd(tightened)=2159, \
         goal-inference=5747}";
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
