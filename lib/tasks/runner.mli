(** Domain-parallel batch runner for benchmark-task sweeps.

    The experiment harness ([bench/main.ml]) and the CLI ([imageeye
    sweep]) both iterate independent per-task jobs (run a session, time
    it, collect stats).  This module is the one driver loop they share:
    an ordered map over a job list, sequential when [jobs <= 1] and
    running on a fresh {!Imageeye_util.Domainpool} otherwise.

    Results are always in input order and identical to sequential mode
    (jobs must be independent and must not mutate shared state — force
    lazy datasets/universes {e before} calling {!map}).

    {b Cross-task sharing.} Tasks in a sweep demonstrate overlapping
    image sets, and sessions intern demo universes
    ({!Imageeye_vision.Batch.shared_universe_of_scenes}), so a universe
    and its vocabulary ([Imageeye_core.Bank_registry]) are built once
    and reused by every later task that reaches them — sequentially or
    across this runner's Domains.  Both are pure functions of the scenes,
    so search trajectories and per-search stats are identical whether
    they were built by this task or an earlier one, on this Domain or
    another. *)

val default_jobs : unit -> int
(** The [IMAGEEYE_JOBS] environment variable, else 1 (sequential). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element, on [jobs] domains
    when [jobs >= 2].  [jobs] defaults to {!default_jobs}.  Exceptions
    from [f] propagate (earliest failing element wins). *)

val run_tasks : ?jobs:int -> (Task.t -> 'r) -> Task.t list -> (Task.t * 'r) list
(** Convenience wrapper pairing each task with its result. *)
