(* Tests for the Appendix B benchmark suite: completeness, per-task sizes
   against the paper's size column, non-triviality of every ground truth
   on its generated dataset, and that every ground truth lies inside the
   synthesizer's default search space. *)

module Task = Imageeye_tasks.Task
module Benchmarks = Imageeye_tasks.Benchmarks
module Dataset = Imageeye_scene.Dataset
module Edit = Imageeye_core.Edit
module Batch = Imageeye_vision.Batch
module Universe = Imageeye_symbolic.Universe

let test_fifty_tasks () =
  Alcotest.(check int) "count" 50 Benchmarks.count;
  Alcotest.(check (list int)) "ids 1..50" (List.init 50 (fun i -> i + 1))
    (List.map (fun t -> t.Task.id) Benchmarks.all)

let test_by_id () =
  Alcotest.(check int) "task 7" 7 (Benchmarks.by_id 7).Task.id;
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Benchmarks.by_id 51);
       false
     with Not_found -> true)

let test_domain_split () =
  (* Table 1: 16 Wedding, 13 Receipts, 21 Objects. *)
  Alcotest.(check int) "wedding" 16 (List.length (Benchmarks.for_domain Dataset.Wedding));
  Alcotest.(check int) "receipts" 13 (List.length (Benchmarks.for_domain Dataset.Receipts));
  Alcotest.(check int) "objects" 21 (List.length (Benchmarks.for_domain Dataset.Objects))

(* The Appendix B size column.  Task 26's entry in the appendix is garbled
   (it prints "Find(TextObject)" as an extractor); our transcription is the
   evident intent and has size 9 rather than the listed 10. *)
let appendix_sizes =
  [
    (1, 5); (2, 5); (3, 7); (4, 7); (5, 8); (6, 9); (7, 9); (8, 9); (9, 9); (10, 10);
    (11, 10); (12, 11); (13, 11); (14, 12); (15, 13); (16, 16); (17, 5); (18, 5);
    (19, 6); (20, 6); (21, 6); (22, 6); (23, 8); (24, 9); (25, 9); (26, 9); (27, 10);
    (28, 10); (29, 13); (30, 4); (31, 5); (32, 5); (33, 6); (34, 6); (35, 6); (36, 6);
    (37, 7); (38, 7); (39, 7); (40, 7); (41, 8); (42, 9); (43, 10); (44, 10); (45, 10);
    (46, 10); (47, 12); (48, 12); (49, 12); (50, 15);
  ]

let test_sizes_match_appendix () =
  List.iter
    (fun (id, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "task %d size" id)
        expected
        (Task.size (Benchmarks.by_id id)))
    appendix_sizes

let test_average_sizes_match_table1 () =
  let avg domain =
    let tasks = Benchmarks.for_domain domain in
    let total = List.fold_left (fun acc t -> acc + Task.size t) 0 tasks in
    float_of_int total /. float_of_int (List.length tasks)
  in
  Alcotest.(check (Alcotest.float 0.1)) "wedding 9.4" 9.4 (avg Dataset.Wedding);
  Alcotest.(check (Alcotest.float 0.1)) "receipts 7.8" 7.8 (avg Dataset.Receipts);
  Alcotest.(check (Alcotest.float 0.1)) "objects 8.3" 8.3 (avg Dataset.Objects)

let test_every_task_has_single_action () =
  List.iter
    (fun t ->
      Alcotest.(check int)
        (Printf.sprintf "task %d one guarded action" t.Task.id)
        1
        (List.length t.Task.ground_truth))
    Benchmarks.all

(* Each ground truth must be non-trivial on its dataset: it edits some
   object on several images, and leaves some object untouched on several
   images — otherwise the task degenerates to All / nothing. *)
let datasets =
  lazy
    (List.map
       (fun d ->
         let n =
           match d with Dataset.Wedding -> 40 | Dataset.Receipts -> 10 | Dataset.Objects -> 150
         in
         (d, Dataset.generate ~n_images:n ~seed:42 d))
       Dataset.all_domains)

let test_ground_truths_nontrivial () =
  List.iter
    (fun task ->
      let ds = List.assoc task.Task.domain (Lazy.force datasets) in
      let u = Batch.universe_of_scenes ds.scenes in
      let edit = Edit.induced_by_program u task.Task.ground_truth in
      let images_with_edit =
        List.filter
          (fun img ->
            List.exists
              (fun id -> Edit.actions_of edit id <> [])
              (Universe.objects_of_image u img))
          (Universe.image_ids u)
      in
      let some_object_untouched =
        List.exists (fun (e : Imageeye_symbolic.Entity.t) -> Edit.actions_of edit e.id = [])
          (Universe.entities u)
      in
      Alcotest.(check bool)
        (Printf.sprintf "task %d edits several images (%d)" task.Task.id
           (List.length images_with_edit))
        true
        (List.length images_with_edit >= 3);
      Alcotest.(check bool)
        (Printf.sprintf "task %d is selective" task.Task.id)
        true some_object_untouched)
    Benchmarks.all

(* Every ground truth lies inside the default search space: its guard is
   within [max_size], every Union/Intersect has at most [max_operands]
   operands, and every age constant is one of [age_thresholds].  A
   default lowered below a target makes that task unsolvable by
   construction; this fails first. *)
let test_ground_truths_in_search_space () =
  let config = Imageeye_core.Synthesizer.default_config in
  List.iter
    (fun task ->
      let where = Printf.sprintf "task %d" task.Task.id in
      let check_pred = function
        | Imageeye_core.Pred.Below_age n | Imageeye_core.Pred.Above_age n ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: age %d in age_thresholds" where n)
              true
              (List.mem n config.age_thresholds)
        | _ -> ()
      in
      let rec check_extractor (e : Imageeye_core.Lang.extractor) =
        match e with
        | All -> ()
        | Is p -> check_pred p
        | Complement e -> check_extractor e
        | Union es | Intersect es ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: arity %d within max_operands %d" where (List.length es)
                 config.max_operands)
              true
              (List.length es <= config.max_operands);
            List.iter check_extractor es
        | Find (e, p, _) | Filter (e, p) ->
            check_pred p;
            check_extractor e
      in
      List.iter
        (fun (guard, _) ->
          let size = Imageeye_core.Lang.size guard in
          Alcotest.(check bool)
            (Printf.sprintf "%s: size %d within max_size %d" where size config.max_size)
            true (size <= config.max_size);
          check_extractor guard)
        task.Task.ground_truth)
    Benchmarks.all

let test_descriptions_present () =
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d described" t.Task.id)
        true
        (String.length t.Task.description > 10))
    Benchmarks.all

(* ---------- Random task generation ---------- *)

module Random_tasks = Imageeye_tasks.Random_tasks

let test_random_tasks_wellformed () =
  let ds = List.assoc Dataset.Objects (Lazy.force datasets) in
  let u = Batch.universe_of_scenes ds.scenes in
  let tasks = Random_tasks.generate ~seed:5 ~count:8 ~dataset:ds in
  Alcotest.(check bool) "got several" true (List.length tasks >= 4);
  List.iter
    (fun t ->
      let size = Task.size t in
      Alcotest.(check bool) "size in range" true (size >= 4 && size <= 13);
      Alcotest.(check bool) "id namespaced" true (t.Task.id >= 1000);
      Alcotest.(check bool) "nontrivial" true (Random_tasks.is_nontrivial u t.Task.ground_truth))
    tasks;
  let ids = List.map (fun t -> t.Task.id) tasks in
  Alcotest.(check int) "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_random_tasks_deterministic () =
  let ds = List.assoc Dataset.Objects (Lazy.force datasets) in
  let a = Random_tasks.generate ~seed:5 ~count:5 ~dataset:ds in
  let b = Random_tasks.generate ~seed:5 ~count:5 ~dataset:ds in
  Alcotest.(check bool) "same" true
    (List.map (fun t -> t.Task.ground_truth) a = List.map (fun t -> t.Task.ground_truth) b)

let test_random_tasks_distinct_values () =
  let ds = List.assoc Dataset.Objects (Lazy.force datasets) in
  let u = Batch.universe_of_scenes ds.scenes in
  let tasks = Random_tasks.generate ~seed:9 ~count:8 ~dataset:ds in
  (* no two tasks share (value, action): they are genuinely different *)
  let keys =
    List.map
      (fun t ->
        match t.Task.ground_truth with
        | [ (e, a) ] -> (Imageeye_symbolic.Simage.to_ids (Imageeye_core.Eval.extractor u e), a)
        | _ -> Alcotest.fail "single guarded action expected")
      tasks
  in
  Alcotest.(check int) "distinct" (List.length keys) (List.length (List.sort_uniq compare keys))

let () =
  Alcotest.run "tasks"
    [
      ( "benchmarks",
        [
          Alcotest.test_case "fifty tasks" `Quick test_fifty_tasks;
          Alcotest.test_case "by id" `Quick test_by_id;
          Alcotest.test_case "domain split" `Quick test_domain_split;
          Alcotest.test_case "sizes match appendix" `Quick test_sizes_match_appendix;
          Alcotest.test_case "average sizes match Table 1" `Quick test_average_sizes_match_table1;
          Alcotest.test_case "single action each" `Quick test_every_task_has_single_action;
          Alcotest.test_case "descriptions present" `Quick test_descriptions_present;
          Alcotest.test_case "ground truths non-trivial" `Slow test_ground_truths_nontrivial;
          Alcotest.test_case "ground truths in search space" `Quick
            test_ground_truths_in_search_space;
        ] );
      ( "random",
        [
          Alcotest.test_case "well-formed" `Quick test_random_tasks_wellformed;
          Alcotest.test_case "deterministic" `Quick test_random_tasks_deterministic;
          Alcotest.test_case "distinct values" `Quick test_random_tasks_distinct_values;
        ] );
    ]
