(** The sharding front-end: [imageeye router] accepts the same framed
    wire protocol as the daemon and fans requests out to N [imageeye
    serve] workers by consistent hashing ({!Ring}).

    Routing keys are chosen so that equal warm state lands on equal
    workers: [synthesize] and [apply] hash the serialized scene list
    (the {!Imageeye_vision.Batch} intern key, i.e. the unit of
    universe sharing), and [session-open] hashes
    [(task, images, seed)] — the dataset identity.  The ring is a pure
    function of the worker list, so the key→worker mapping survives
    router restarts and each worker's interned universes keep paying
    off.

    Sessions are stateful on their worker: the router allocates its own
    session ids, remembers [router sid → (worker, worker sid)], and
    rewrites session ids in both directions, so clients see one flat id
    space.

    Worker loss degrades, never fails: a worker that cannot be reached
    is marked dead, the request re-hashes to the ring's next live worker
    (counted under [faults.worker-lost]), and a dead worker is re-probed
    [retry_dead_s] after each failure until it answers.  A worker that
    accepts a request and then goes silent is lost too: each second
    without an answer the router pings it on a fresh connection, and a
    worker that leaves the ping unanswered for a second is marked dead,
    so the request re-hashes about 2 s after its send.  A worker that
    answers the ping is only busy (its queue and each request's
    [timeout_s] are its own to enforce), and the request keeps waiting.
    Sessions pinned to a lost worker return a [worker-lost] error.
    [metrics] and [shutdown] give each worker a second to answer.
    Per-worker admission is bounded: at most [worker_inflight] requests
    are in flight per worker, further ones wait (backpressure, not queue
    growth).

    [metrics] fans out to every worker and returns
    [{router: <own snapshot>, workers: {<name>: <snapshot | error>}}];
    [shutdown] drains the workers, then the router. *)

type config = {
  endpoint : Server.endpoint;
  workers : Client.endpoint list;
  quiet : bool;
  max_line_bytes : int;
  read_timeout_s : float option;
  max_connections : int;
  worker_inflight : int;  (** per-worker in-flight cap (backpressure) *)
  retry_dead_s : float;  (** how soon after its last failure a dead worker is probed *)
}

val default_config : config
(** Unix socket ["imageeye-router.sock"], no workers (caller must fill),
    framing limits as {!Frame.default_limits}, 64 connections, 4
    in-flight per worker, 2 s dead-worker probe. *)

val worker_name : Client.endpoint -> string
(** Stable ring key for an endpoint: ["unix:<path>"] or
    ["tcp:<host>:<port>"]. *)

val run : config -> unit
(** Serve until SIGTERM/SIGINT or a [shutdown] request (which is also
    broadcast to the workers).  Raises [Failure] when [workers] is
    empty or the endpoint is already served. *)
