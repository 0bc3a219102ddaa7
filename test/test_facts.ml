(* The one-pass vocabulary facts ([Facts.compute]) against the direct
   per-(predicate, function, object) scan they replaced, which is kept
   here as the reference: the same Find and Filter parameterizations, in
   the same order, with the same reach sets, and the same extension for
   every vocabulary predicate — with the signature dedup on and off, on
   the demo universes the interaction loop searches and on random ones. *)

module Pred = Imageeye_core.Pred
module Func = Imageeye_core.Func
module Vocab = Imageeye_core.Vocab
module Eval = Imageeye_core.Eval
module Facts = Imageeye_core.Facts
module Universe = Imageeye_symbolic.Universe
module Simage = Imageeye_symbolic.Simage
module Dataset = Imageeye_scene.Dataset
module Batch = Imageeye_vision.Batch
open Test_support

let reference ~dedup u vocab =
  let n = Universe.size u in
  let full = Simage.full u in
  let extension p = Simage.filter (fun e -> Pred.entails e p) full in
  let seen_sigs = Hashtbl.create 64 in
  let find_insts =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun f ->
            let signature = Array.init n (Eval.find_first u f p) in
            let empty = Array.for_all (( = ) None) signature in
            if dedup then
              if empty || Hashtbl.mem seen_sigs signature then None
              else begin
                Hashtbl.add seen_sigs signature ();
                Some (p, f, Eval.find_from u full p f)
              end
            else Some (p, f, Eval.find_from u full p f))
          (Vocab.functions vocab))
      (Vocab.predicates vocab)
  in
  let seen_filter_sigs = Hashtbl.create 64 in
  let filter_insts =
    List.filter_map
      (fun p ->
        let signature =
          Array.init n (fun o ->
              List.filter
                (fun inner -> Pred.entails (Universe.entity u inner) p)
                (Array.to_list (Universe.contents u o)))
        in
        let empty = Array.for_all (( = ) []) signature in
        if dedup then
          if empty || Hashtbl.mem seen_filter_sigs signature then None
          else begin
            Hashtbl.add seen_filter_sigs signature ();
            Some (p, Eval.filter_from u full p)
          end
        else Some (p, Eval.filter_from u full p))
      (Vocab.predicates vocab)
  in
  { Facts.extension; find_insts; filter_insts }

(* Facts rendered as strings: parameterizations in list order with their
   reach, then every vocabulary predicate's extension. *)
let render vocab (facts : Facts.t) =
  let ids s = String.concat "," (List.map string_of_int (Simage.to_ids s)) in
  List.map
    (fun (p, f, reach) ->
      Printf.sprintf "Find %s %s {%s}" (Pred.to_string p) (Func.to_string f) (ids reach))
    facts.find_insts
  @ List.map
      (fun (p, reach) -> Printf.sprintf "Filter %s {%s}" (Pred.to_string p) (ids reach))
      facts.filter_insts
  @ List.map
      (fun p -> Printf.sprintf "Is %s {%s}" (Pred.to_string p) (ids (facts.extension p)))
      (Vocab.predicates vocab)

let agree ~dedup u =
  let vocab = Vocab.of_universe u in
  render vocab (Facts.compute ~dedup u vocab) = render vocab (reference ~dedup u vocab)

let check_demo_universe domain n_images () =
  let dataset = Dataset.generate ~n_images ~seed:42 domain in
  let u = Batch.universe_of_scenes dataset.Dataset.scenes in
  let vocab = Vocab.of_universe u in
  List.iter
    (fun dedup ->
      Alcotest.(check (list string))
        (Printf.sprintf "dedup %b" dedup)
        (render vocab (reference ~dedup u vocab))
        (render vocab (Facts.compute ~dedup u vocab)))
    [ true; false ]

(* Random universes over a few images, with boxes of mixed sizes so
   containment (Filter, GetParents) occurs, and repeated kinds so
   signatures collide and the dedup has work to do. *)
let universe_gen =
  QCheck2.Gen.(
    let entity =
      let* kind =
        oneofl
          [
            thing "cat";
            thing "car";
            face ~face_id:1 ~smiling:true ();
            face ~face_id:2 ~age_low:10 ~age_high:12 ();
            text "total";
            text "$4.20";
            text "555-0100";
          ]
      in
      let* img = int_bound 2 in
      let* x = int_bound 200 and* y = int_bound 200 in
      let* w = int_range 5 120 and* h = int_range 5 120 in
      return (img, kind, box x y w h)
    in
    list_size (int_range 1 25) entity >|= universe)

let random_props =
  List.map
    (fun dedup ->
      QCheck2.Test.make
        ~name:(Printf.sprintf "random universes, dedup %b" dedup)
        ~count:150 universe_gen (agree ~dedup))
    [ true; false ]

let () =
  Alcotest.run "facts"
    [
      ( "demo universes",
        List.concat_map
          (fun domain ->
            List.map
              (fun n_images ->
                Alcotest.test_case
                  (Printf.sprintf "%s, %d image(s)" (Dataset.domain_name domain) n_images)
                  `Quick
                  (check_demo_universe domain n_images))
              [ 1; 3; 5 ])
          Dataset.all_domains );
      ("random universes", List.map QCheck_alcotest.to_alcotest random_props);
    ]
