(** Machine-readable sweep trajectories.

    One schema shared by [bench/main.exe --json] and [imageeye sweep
    --json]: a top-level object with sweep aggregates ([solved], [total],
    [nodes], [time_s], a [quality] block, merged [prune_counts]) and a
    [tasks] array with one row per session — [{name; id; description;
    solved; failure; rounds; time_s; nodes; prune_counts; program;
    program_size; cost}].  [nodes] sums the per-search
    {!Imageeye_core.Synthesizer.stats.nodes} deltas over the session's
    rounds, so every evaluation charged to the task is included and
    before/after comparisons (e.g. the committed [BENCH_PR3.json]) are
    apples-to-apples.

    The quality fields make solution quality a first-class trajectory
    axis next to [nodes]: per task, the synthesized program (pretty
    printed), its {!Imageeye_core.Lang.program_size}, and its
    {!Imageeye_core.Cost} footprint [{total; size; lattice; noise;
    generality}] (all [null] when unsolved); at the top level, the
    program count, total/mean program size, and componentwise cost sum
    over solved tasks ([mean_program_size] is what the [optimal-smoke]
    CI gate bounds). *)

val sweep :
  ?meta:(string * Imageeye_util.Jsonout.t) list ->
  Session.result list ->
  Imageeye_util.Jsonout.t
(** [meta] fields (mode, seed, config knobs…) are prepended verbatim to
    the top-level object. *)

val write :
  ?meta:(string * Imageeye_util.Jsonout.t) list ->
  string -> Session.result list -> unit
(** Serialize {!sweep} to a file (truncate/create). *)
