(** Simulation of the user-interaction methodology of Section 7.1.

    The simulated user plays the role the paper assigns to its authors:

    + pick the image with the fewest objects on which the task's
      ground-truth program performs a non-empty edit, and demonstrate the
      ground-truth edit on it;
    + synthesize from the accumulated demonstrations;
    + apply the synthesized program to the whole dataset; if its edit
      matches the ground truth everywhere, the task is automated;
    + otherwise add the mismatching image with the fewest objects as a new
      demonstration and repeat, for at most [max_rounds] rounds.

    Demonstrations are edits induced by the ground-truth program, exactly
    what a user would do through the GUI.  The synthesis engine is
    pluggable so the EUSolver baseline runs under the identical protocol
    (Section 7.3). *)

type engine_result = {
  program : Imageeye_core.Lang.program option;
      (** [None] when the engine timed out or exhausted its budget *)
  time : float;
  stats : Imageeye_core.Synthesizer.stats option;
      (** search statistics, when the engine is the ImageEye synthesizer *)
}

type engine = Imageeye_core.Edit.Spec.t -> engine_result
(** A synthesis engine under test. *)

val imageeye_engine : Imageeye_core.Synthesizer.config -> engine
val eusolver_engine : timeout_s:float -> engine

type optimize_result = {
  per_action :
    (Imageeye_core.Lang.action * Imageeye_core.Lang.extractor list) list option;
      (** cost-ranked spec-consistent candidates per action, cheapest
          first ({!Imageeye_core.Synthesizer.synthesize_ranked}); [None]
          when the minimizing search failed outright *)
  opt_time : float;
  opt_stats : Imageeye_core.Synthesizer.stats option;
}

type optimizer = Imageeye_core.Edit.Spec.t -> optimize_result
(** A post-acceptance minimizer (see {!Stepwise.start}). *)

val imageeye_optimizer : Imageeye_core.Synthesizer.config -> optimizer

type round = {
  round_index : int;  (** 1-based *)
  demo_image : int;  (** the image added in this round *)
  synth_time : float;
  synth_stats : Imageeye_core.Synthesizer.stats option;
  candidate : Imageeye_core.Lang.program option;
}

type failure_reason = Synth_failed | Rounds_exhausted | No_useful_image

type result = {
  task : Imageeye_tasks.Task.t;
  solved : bool;
  failure : failure_reason option;
  rounds : round list;  (** in order; length = number of demonstrations *)
  program : Imageeye_core.Lang.program option;  (** final successful program *)
  spec_minimal : Imageeye_core.Lang.program option;
      (** the cost-minimal spec-consistent program the post-acceptance
          minimizer found, {e before} full-dataset validation ([program]
          is that minimum when it validated, the cheapest validating
          candidate otherwise); [None] without an optimizer or when the
          task was not solved *)
  examples_used : int;
  last_round_time : float;  (** synthesis time of the final round *)
}

(** The same loop, one round at a time.

    The serving layer drives sessions from network requests — one
    [session-round] request per iteration — so the loop's state must
    survive between rounds instead of living on [run_with]'s stack.
    [run_with] below is a [start]/[step]-until-finished wrapper over
    this module, so both entry points share one implementation. *)
module Stepwise : sig
  type status =
    | Awaiting_round  (** another {!step} will run a synthesis round *)
    | Solved of Imageeye_core.Lang.program
    | Failed of failure_reason

  type t
  (** Mutable loop state.  Not thread-safe: callers running rounds from
      concurrent requests must serialize per session. *)

  val start :
    engine:engine ->
    ?optimize:optimizer ->
    ?max_rounds:int ->
    ?batch_universe:Imageeye_symbolic.Universe.t ->
    dataset:Imageeye_scene.Dataset.t ->
    Imageeye_tasks.Task.t ->
    t
  (** Prepare the loop: build the batch universe, the ground-truth edit
      and the first demonstration.  Starts [Failed No_useful_image] when
      the ground truth edits nothing anywhere.

      [optimize], when given, runs exactly once, on the spec of the
      round whose candidate the simulated user accepts; its cost-ranked
      candidates are then walked cheapest-first per action, and a
      cheaper extractor is adopted only when the substituted program
      passes the identical full-dataset check the accepted one did.
      The refinement trajectory — demonstrations, round count,
      solvability — is byte-identical with or without it; only the
      final program (and the accepting round's time/stats, which absorb
      the extra search) can change.  {!run} wires the cost-directed
      optimal search here when [config.optimality] is set. *)

  val resume :
    engine:engine ->
    ?optimize:optimizer ->
    ?max_rounds:int ->
    ?batch_universe:Imageeye_symbolic.Universe.t ->
    dataset:Imageeye_scene.Dataset.t ->
    demo_images:int list ->
    Imageeye_tasks.Task.t ->
    t
  (** Incremental re-synthesis: continue an earlier session's
      demonstration trajectory instead of replaying it.  [demo_images]
      is the accumulated demonstration list, {e most recent first} (the
      head is the next round's primary demonstration — in the streaming
      repair path, the mid-stream counterexample consed onto the
      demonstrations the deployed program came from); every id must be
      an image of [dataset].  The next {!step} synthesizes once over the
      whole accumulated set — warm, since the rounds the deployed
      program already satisfied are not replayed — where a cold restart
      ({!start}) re-runs the loop from round 1.  The round
      counter resumes at [length demo_images], so pass a [max_rounds]
      with headroom above it.  Raises [Invalid_argument] on an empty
      [demo_images] or an id outside the dataset. *)

  val status : t -> status

  val next_demo : t -> int option
  (** The image the next {!step} will demonstrate, when awaiting. *)

  val step : t -> round option
  (** Run one round: synthesize from the demonstrations accumulated so
      far, check the candidate on the full dataset, and either finish or
      queue the next demonstration image.  Returns the round just run,
      or [None] when the session is already finished. *)

  val result : t -> result
  (** Snapshot of the session as a {!result}; identical to what
      {!run_with} returns once {!status} is no longer [Awaiting_round]. *)
end

val run :
  ?config:Imageeye_core.Synthesizer.config ->
  ?max_rounds:int ->
  ?batch_universe:Imageeye_symbolic.Universe.t ->
  dataset:Imageeye_scene.Dataset.t ->
  Imageeye_tasks.Task.t ->
  result
(** Run the loop with the ImageEye engine and perfect detection (the
    setting of RQ1/RQ2/RQ4).  [batch_universe], when given, must be the
    perfect-detection universe of the dataset's scenes; passing it avoids
    rebuilding the spatial indices for every task over the same dataset.
    When [config.optimality] is set, rounds run first-consistent and the
    accepted program is minimized once post-acceptance (see
    {!Stepwise.start}'s [optimize]). *)

val run_with :
  engine:engine ->
  ?optimize:optimizer ->
  ?max_rounds:int ->
  ?batch_universe:Imageeye_symbolic.Universe.t ->
  dataset:Imageeye_scene.Dataset.t ->
  Imageeye_tasks.Task.t ->
  result
(** Same protocol with an arbitrary engine (used for RQ3). *)

val edits_agree_on_image :
  Imageeye_symbolic.Universe.t -> Imageeye_core.Edit.t -> Imageeye_core.Edit.t -> int -> bool
(** Whether two edits over the same universe coincide when restricted to
    the objects of one raw image (exposed for tests). *)
