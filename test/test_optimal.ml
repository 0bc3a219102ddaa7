(* Optimal-extractor synthesis: the cost order, the admissibility of its
   partial-program lower bound, and the branch-and-bound search itself.

   The search-level suite runs every curated benchmark task twice — the
   first-consistent engine and [Optimal.search] — under the same
   deterministic budget as the engine-equivalence suite, and checks the
   optimality contract end to end:

   - exploration up to the first solution is byte-identical to
     first-consistent mode ([result.first] is the program the plain
     search returns, and a search with inert hooks reproduces the plain
     search's stats byte for byte);
   - the returned program minimizes {!Cost.compare} over every
     consistent program the search enumerated;
   - optimal mode never loses a task first-consistent mode solves.

   The RQ5-style regression then replays both programs of every solved
   task through the noisy detector (seeded, so deterministic) and
   asserts the optimal programs are never more overfit and never less
   accurate on held-out images in aggregate. *)

module Lang = Imageeye_core.Lang
module Pred = Imageeye_core.Pred
module Func = Imageeye_core.Func
module Goal = Imageeye_core.Goal
module Partial = Imageeye_core.Partial
module Cost = Imageeye_core.Cost
module Optimal = Imageeye_core.Optimal
module Synthesizer = Imageeye_core.Synthesizer
module Engine_search = Imageeye_core.Engine_search
module Edit = Imageeye_core.Edit
module Universe = Imageeye_symbolic.Universe
module Dataset = Imageeye_scene.Dataset
module Batch = Imageeye_vision.Batch
module Noise = Imageeye_vision.Noise
module Accuracy = Imageeye_interact.Accuracy
module Task = Imageeye_tasks.Task
module Benchmarks = Imageeye_tasks.Benchmarks
module Session = Imageeye_interact.Session

let config =
  {
    Synthesizer.default_config with
    timeout_s = 600.0;
    (* hit only on a pathologically slow machine *)
    max_expansions = 4_000;
  }

(* Same test environments as the engine-equivalence suite. *)
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

(* ---------------------------------------------------------------- *)
(* Cost axes on pinned examples.                                    *)

let e_smiling = Lang.Is Pred.Smiling
let e_face8 = Lang.Is (Pred.Face 8)

let cost_axes () =
  let c = Cost.of_extractor e_smiling in
  Alcotest.(check int) "Is Smiling size" 2 c.Cost.size;
  Alcotest.(check int) "Is Smiling lattice" 2 c.Cost.lattice;
  Alcotest.(check int) "Is Smiling noise" 2 c.Cost.noise;
  Alcotest.(check int) "Is Smiling generality" 0 c.Cost.generality;
  Alcotest.(check int) "Is Smiling total" 44 (Cost.total c);
  let c = Cost.of_extractor e_face8 in
  Alcotest.(check int) "Is (Face 8) size" 3 c.Cost.size;
  Alcotest.(check int) "Is (Face 8) lattice" 3 c.Cost.lattice;
  Alcotest.(check int) "Is (Face 8) noise" 2 c.Cost.noise;
  Alcotest.(check int) "Is (Face 8) generality" 1 c.Cost.generality;
  Alcotest.(check int) "Is (Face 8) total" 63 (Cost.total c);
  (* the general predicate beats the exact-identity one *)
  Alcotest.(check bool) "Smiling < Face 8" true
    (Cost.compare (Cost.of_extractor e_smiling) (Cost.of_extractor e_face8) < 0);
  let u = Lang.Union [ e_face8; Lang.Is (Pred.Word "total") ] in
  let c = Cost.of_extractor u in
  Alcotest.(check int) "union size" 7 c.Cost.size;
  Alcotest.(check int) "union generality" 2 c.Cost.generality;
  Alcotest.(check int) "union total"
    (Cost.total (Cost.add (Cost.of_extractor e_face8)
                   (Cost.add (Cost.of_extractor (Lang.Is (Pred.Word "total")))
                      { Cost.zero with Cost.size = 1 })))
    (Cost.total c)

(* ---------------------------------------------------------------- *)
(* Property: the cost order is a total order consistent with [total]. *)

let gen_cost =
  QCheck2.Gen.(
    let* size = int_bound 40 in
    let* lattice = int_bound 40 in
    let* noise = int_bound 40 in
    let* generality = int_bound 40 in
    return { Cost.size; lattice; noise; generality })

let compare_total_order =
  QCheck2.Test.make ~name:"cost compare is a total order refining total" ~count:500
    QCheck2.Gen.(triple gen_cost gen_cost gen_cost)
    (fun (a, b, c) ->
      let sign n = compare n 0 in
      Cost.compare a a = 0
      && sign (Cost.compare a b) = -sign (Cost.compare b a)
      && (Cost.total a >= Cost.total b || Cost.compare a b < 0)
      && ((not (Cost.compare a b <= 0 && Cost.compare b c <= 0))
         || Cost.compare a c <= 0))

(* ---------------------------------------------------------------- *)
(* Property: [Cost.lower_bound] is admissible — never above the cost
   of the completion it was carved from.  Random extractors are punched
   full of holes at positions driven by the generated bit list; [All]
   realizes the bound exactly on a bare hole. *)

let gen_pred =
  QCheck2.Gen.oneofl
    [
      Pred.Face_object; Pred.Face 8; Pred.Smiling; Pred.Eyes_open;
      Pred.Mouth_open; Pred.Below_age 18; Pred.Above_age 30;
      Pred.Text_object; Pred.Word "total"; Pred.Phone_number; Pred.Price;
      Pred.Object "cat";
    ]

let gen_func = QCheck2.Gen.oneofl Func.all

let gen_extractor =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 1 then
          oneof [ return Lang.All; map (fun p -> Lang.Is p) gen_pred ]
        else
          oneof
            [
              map (fun p -> Lang.Is p) gen_pred;
              map (fun e -> Lang.Complement e) (self (n / 2));
              map2 (fun a b -> Lang.Union [ a; b ]) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Lang.Intersect [ a; b ]) (self (n / 2)) (self (n / 2));
              map3 (fun e p f -> Lang.Find (e, p, f)) (self (n / 2)) gen_pred gen_func;
              map2 (fun e p -> Lang.Filter (e, p)) (self (n / 2)) gen_pred;
            ]))

(* Embed [e] as a partial program, replacing a subtree with a hole each
   time the head of [bits] says so. *)
let punch_holes goal e bits =
  let bits = ref bits in
  let next () =
    match !bits with [] -> false | b :: rest -> bits := rest; b
  in
  let rec go e =
    if next () then Partial.hole goal
    else
      let node =
        match e with
        | Lang.All -> Partial.All
        | Lang.Is p -> Partial.Is p
        | Lang.Complement e -> Partial.Complement (go e)
        | Lang.Union es -> Partial.Union (List.map go es)
        | Lang.Intersect es -> Partial.Intersect (List.map go es)
        | Lang.Find (e, p, f) -> Partial.Find (go e, p, f)
        | Lang.Filter (e, p) -> Partial.Filter (go e, p)
      in
      Partial.make goal node
  in
  go e

let lower_bound_admissible =
  QCheck2.Test.make ~name:"lower_bound admissible for the punched completion"
    ~count:500
    QCheck2.Gen.(pair gen_extractor (list_size (int_bound 20) bool))
    (fun (e, bits) ->
      let _, u = environment ~n_images:(dataset_size Dataset.Wedding) Dataset.Wedding in
      let p = punch_holes (Goal.trivial u) e bits in
      Cost.compare (Cost.lower_bound p) (Cost.of_extractor e) <= 0
      && (not (Partial.is_complete p)
         || Cost.compare (Cost.lower_bound p) (Cost.of_extractor e) = 0))

(* ---------------------------------------------------------------- *)
(* The search itself, on the full curated benchmark suite.           *)

let inert_hooks =
  {
    Engine_search.admit = (fun _ -> true);
    on_solution = (fun _ -> `Stop);
    should_stop = (fun () -> false);
  }

let stats_sig (s : Synthesizer.stats) =
  Printf.sprintf "popped=%d enqueued=%d {%s}" s.popped s.enqueued
    (String.concat ", "
       (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) s.prune_counts))

(* Per demonstrated action: the plain first-consistent search and the
   branch-and-bound optimal search over the same goal. *)
let check_action ~task u i_out =
  let plain = Engine_search.search ~config ~limit:1 u i_out in
  let inert = Engine_search.search ~config ~limit:1 ~hooks:inert_hooks u i_out in
  (match (plain, inert) with
  | (es0, r0, s0), (es1, r1, s1) ->
      Alcotest.(check string)
        (Printf.sprintf "task %d: inert hooks preserve the program" task.Task.id)
        (String.concat ";" (List.map Lang.extractor_to_string es0))
        (String.concat ";" (List.map Lang.extractor_to_string es1));
      Alcotest.(check bool)
        (Printf.sprintf "task %d: inert hooks preserve the stop reason" task.Task.id)
        true (r0 = r1);
      Alcotest.(check string)
        (Printf.sprintf "task %d: inert hooks preserve the stats" task.Task.id)
        (stats_sig s0) (stats_sig s1));
  let r = Optimal.search ~config u i_out in
  (match plain with
  | e :: _, _, _ -> (
      match (r.Optimal.first, r.Optimal.best) with
      | Some (f, fc), Some (_b, bc) ->
          Alcotest.(check string)
            (Printf.sprintf
               "task %d: optimal mode's first solution = first-consistent's"
               task.Task.id)
            (Lang.extractor_to_string e)
            (Lang.extractor_to_string f);
          Alcotest.(check bool)
            (Printf.sprintf "task %d: best cost <= first cost (%s vs %s)"
               task.Task.id (Cost.to_string bc) (Cost.to_string fc))
            true
            (Cost.compare bc fc <= 0);
          List.iter
            (fun e' ->
              Alcotest.(check bool)
                (Printf.sprintf
                   "task %d: best <= enumerated %s" task.Task.id
                   (Lang.extractor_to_string e'))
                true
                (Cost.compare bc (Cost.of_extractor e') <= 0))
            r.Optimal.enumerated
      | _ ->
          Alcotest.failf "task %d: optimal mode lost a solvable action"
            task.Task.id)
  | [], _, _ ->
      (* first-consistent found nothing within the budget; optimal must
         not conjure a solution the plain search cannot see *)
      Alcotest.(check bool)
        (Printf.sprintf "task %d: no phantom incumbent" task.Task.id)
        true
        (r.Optimal.first = None));
  match (plain, r.Optimal.best, r.Optimal.first) with
  | (_ :: _, _, _), Some (b, bc), Some (_, fc) -> Some (b, bc, fc)
  | _ -> None

let check_task ~improved task =
  match spec_for task with
  | None ->
      Alcotest.failf "task %d: ground truth edits no image of the test dataset"
        task.Task.id
  | Some spec ->
      let u = spec.Edit.Spec.universe in
      let best_prog = ref [] in
      List.iter
        (fun action ->
          match check_action ~task u (Edit.Spec.output_for_action spec action) with
          | Some (b, bc, fc) ->
              best_prog := (b, action) :: !best_prog;
              if Cost.compare bc fc < 0 then incr improved
          | None -> ())
        (Edit.Spec.demonstrated_actions spec);
      if !best_prog <> [] then Some (task, List.rev !best_prog) else None

let suite_case domain improved solved =
  Alcotest.test_case (Dataset.domain_name domain) `Slow (fun () ->
      List.iter
        (fun task ->
          match check_task ~improved task with
          | Some (task, prog) -> solved := (task, prog) :: !solved
          | None -> ())
        (Benchmarks.for_domain domain))

(* ---------------------------------------------------------------- *)
(* The interaction loop under optimality: post-acceptance minimization
   must leave the refinement trajectory byte-identical — same rounds,
   same demonstration images, same solvability — and only ever lower
   the final program's cost. *)

let session_equiv () =
  List.iter
    (fun task_id ->
      let task = Benchmarks.by_id task_id in
      let dataset, _ =
        environment ~n_images:(dataset_size task.Task.domain) task.Task.domain
      in
      let base = Session.run ~config ~dataset task in
      let opt =
        Session.run
          ~config:{ config with Synthesizer.optimality = true }
          ~dataset task
      in
      Alcotest.(check bool)
        (Printf.sprintf "task %d: solvability invariant under --optimal" task_id)
        base.Session.solved opt.Session.solved;
      Alcotest.(check int)
        (Printf.sprintf "task %d: round count invariant" task_id)
        (List.length base.Session.rounds)
        (List.length opt.Session.rounds);
      List.iter2
        (fun (a : Session.round) (b : Session.round) ->
          Alcotest.(check int)
            (Printf.sprintf "task %d: demonstration trajectory invariant" task_id)
            a.Session.demo_image b.Session.demo_image)
        base.Session.rounds opt.Session.rounds;
      match (base.Session.program, opt.Session.program) with
      | Some p, Some q ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d: optimal session cost <= default (%s vs %s)"
               task_id
               (Cost.to_string (Cost.of_program q))
               (Cost.to_string (Cost.of_program p)))
            true
            (Cost.compare (Cost.of_program q) (Cost.of_program p) <= 0)
      | None, None -> ()
      | _ -> Alcotest.failf "task %d: final program presence changed" task_id)
    [ 1; 4; 17; 26; 30; 39 ]

(* ---------------------------------------------------------------- *)
(* RQ5-style regression: replay first-consistent and optimal programs
   of each solved task through the noisy detector; optimal must not be
   more overfit, and in aggregate must edit held-out images as intended
   at least as often.  Both searches run under the same budget as
   above, so the comparison set is exactly the tasks the deterministic
   suite solves. *)

let noisy_regression solved () =
  let overfit prog =
    List.length
      (List.filter (fun (e, _) -> (Cost.of_extractor e).Cost.generality > 0)
         (prog : Lang.program))
  in
  let totals = ref (0, 0) in
  List.iter
    (fun (task, best) ->
      let spec = Option.get (spec_for task) in
      let u = spec.Edit.Spec.universe in
      let first =
        List.filter_map
          (fun action ->
            match
              Engine_search.search ~config ~limit:1 u
                (Edit.Spec.output_for_action spec action)
            with
            | e :: _, _, _ -> Some (e, action)
            | [], _, _ -> None)
          (Edit.Spec.demonstrated_actions spec)
      in
      Alcotest.(check bool)
        (Printf.sprintf "task %d: optimal is never more overfit (%d vs %d)"
           task.Task.id (overfit best) (overfit first))
        true
        (overfit best <= overfit first);
      let ds, _ =
        environment
          ~n_images:(Dataset.default_image_count task.Task.domain)
          task.Task.domain
      in
      let acc prog =
        (Accuracy.evaluate ~noise:Noise.default_imperfect
           ~seed:(1000 + task.Task.id) ~samples:8 prog ds)
          .Accuracy.correct
      in
      let b, f = !totals in
      totals := (b + acc best, f + acc first))
    !solved;
  let b, f = !totals in
  Alcotest.(check bool)
    (Printf.sprintf
       "optimal programs edit held-out noisy images as intended at least as \
        often (%d vs %d)"
       b f)
    true (b >= f)

let () =
  let improved = ref 0 and solved = ref [] in
  Alcotest.run "optimal-synthesis"
    ([
       ( "cost",
         [
           Alcotest.test_case "axes and totals" `Quick cost_axes;
           QCheck_alcotest.to_alcotest compare_total_order;
           QCheck_alcotest.to_alcotest lower_bound_admissible;
         ] );
     ]
    @ List.map
        (fun d -> (Dataset.domain_name d, [ suite_case d improved solved ]))
        Dataset.all_domains
    @ [
        ( "session",
          [
            Alcotest.test_case "post-acceptance minimization trajectory" `Slow
              session_equiv;
          ] );
        ( "rq5-noisy",
          [
            Alcotest.test_case "optimal never less accurate under noise" `Slow
              (noisy_regression solved);
          ] );
      ])
