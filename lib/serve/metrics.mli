(** Server-wide request metrics.

    One mutex-guarded accumulator shared by every connection and worker:
    per-(op, outcome) request counts, a bounded latency reservoir from
    which p50/p95 are computed at snapshot time, queue-depth highwater,
    dropped-response count (client went away mid-response), induced-fault
    counts ({!record_fault}), and the synthesis counters (the
    [stats.prune_counts] labels, e.g. [eval-cache(...)] and
    [fwd-bwd(...)]) summed over every stats-bearing response.

    {b Reservoir semantics.} The latency reservoir is a fixed-capacity
    ring (4096 samples) overwritten in arrival order: quantiles are
    computed over the {e most recent} 4096 recorded latencies — a
    recent window, not the whole uptime — which is what an operator
    watching a long-lived daemon wants.  [latency.count] in the
    snapshot is the total ever recorded; [p50_s]/[p95_s] describe only
    the window; [max_s] alone is over the whole uptime.  All recorders
    share one mutex, so counts are exact under concurrency and a
    snapshot never observes a torn update.

    A snapshot is served for [metrics] requests and dumped to stderr on
    graceful shutdown. *)

type t

val create : unit -> t

val record :
  t ->
  op:string ->
  outcome:string ->
  latency_s:float ->
  ?counts:(string * int) list ->
  unit ->
  unit
(** [outcome] is [ok], [timeout], [exhausted] or [error]; [latency_s]
    runs from admission (or inline receipt) to response written;
    [counts] are the request's [stats.prune_counts]. *)

val observe_queue_depth : t -> int -> unit
(** Feed the point-in-time admission-queue depth; the maximum is kept. *)

val record_dropped : t -> unit
(** A response could not be written (EPIPE etc. — client disconnected). *)

val record_fault : t -> string -> unit
(** Count one induced/handled fault under a stable label —
    [line-too-long], [read-timeout], [overloaded], [reader-exception],
    [worker-lost] — so hostile input shows up as a structured outcome in
    the snapshot's ["faults"] object, never as a silently dropped
    thread. *)

val quantile : float array -> float -> float
(** Nearest-rank quantile of a {e sorted} sample array: element
    [⌈q·n⌉] (1-indexed, clamped), [0.0] on an empty array.  Exposed so
    loadgen reports percentiles with exactly the serving tier's
    semantics — pinned by unit tests at n ∈ {1, 2, 3, 20}. *)

val snapshot :
  t ->
  queue_depth:int ->
  sessions_open:int ->
  connections_open:int ->
  Imageeye_util.Jsonout.t
(** Live gauges are passed in by the server.  [connections_open] is the
    size of the server's connection table — the fault harness asserts it
    returns to baseline after every adversarial scenario. *)
