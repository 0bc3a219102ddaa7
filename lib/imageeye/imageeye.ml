(** The ImageEye public API: one alias per component library.

    Downstream users can depend on the single [imageeye] library and reach
    everything through this module.  The typical pipeline is:

    {[
      let dataset = Imageeye.Dataset.generate ~seed:42 Imageeye.Dataset.Objects in
      let u = Imageeye.Batch.universe_of_scenes dataset.scenes in
      let edit = (* object id -> actions, e.g. from a UI *) ... in
      let spec = Imageeye.Edit.Spec.make u [ (0, edit) ] in
      match Imageeye.Synthesizer.synthesize spec with
      | Imageeye.Synthesizer.Success (program, _) ->
          (* apply to each raw image *)
          let img = Imageeye.Render.scene scene in
          let su = Imageeye.Batch.universe_of_scenes [ scene ] in
          Imageeye.Apply.program su img program
      | _ -> ...
    ]} *)

(** {1 Utilities} *)

module Rng = Imageeye_util.Rng
module Bitset = Imageeye_util.Bitset
module Stats = Imageeye_util.Stats

(** {1 Geometry and rasters} *)

module Bbox = Imageeye_geometry.Bbox
module Image = Imageeye_raster.Image
module Ppm = Imageeye_raster.Ppm
module Bmp = Imageeye_raster.Bmp
module Draw = Imageeye_raster.Draw
module Ops = Imageeye_raster.Ops

(** {1 Symbolic images (Definition 3.1)} *)

module Entity = Imageeye_symbolic.Entity
module Universe = Imageeye_symbolic.Universe
module Simage = Imageeye_symbolic.Simage

(** {1 Scenes and simulated vision} *)

module Scene = Imageeye_scene.Scene
module Scene_io = Imageeye_scene.Scene_io
module Render = Imageeye_scene.Render
module Dataset = Imageeye_scene.Dataset
module Noise = Imageeye_vision.Noise
module Detector = Imageeye_vision.Detector
module Batch = Imageeye_vision.Batch

(** {1 The DSL and its semantics (Section 3)} *)

module Lang = Imageeye_core.Lang
module Pred = Imageeye_core.Pred
module Func = Imageeye_core.Func
module Eval = Imageeye_core.Eval
module Parser = Imageeye_core.Parser
module Edit = Imageeye_core.Edit
module Apply = Imageeye_core.Apply
module Explain = Imageeye_core.Explain

(** {1 Synthesis (Section 5)} *)

module Goal = Imageeye_core.Goal
module Partial = Imageeye_core.Partial
module Peval = Imageeye_core.Peval
module Rewrite = Imageeye_core.Rewrite
module Vocab = Imageeye_core.Vocab
module Synthesizer = Imageeye_core.Synthesizer

(** {1 Baseline, benchmarks, evaluation (Section 7)} *)

module Eusolver = Imageeye_baseline.Eusolver
module Task = Imageeye_tasks.Task
module Benchmarks = Imageeye_tasks.Benchmarks
module Random_tasks = Imageeye_tasks.Random_tasks
module Session = Imageeye_interact.Session
module Search = Imageeye_interact.Search
module Active = Imageeye_interact.Active
module Demo_io = Imageeye_interact.Demo_io
module Accuracy = Imageeye_interact.Accuracy
module Html_report = Imageeye_report.Html_report
