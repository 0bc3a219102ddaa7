(** The persistent synthesis daemon behind [imageeye serve].

    Threading model (see DESIGN.md, "Serving architecture"): the main
    thread accepts connections; each connection gets a reader thread
    (base-threads, cheap and IO-bound) that parses newline-delimited
    JSON requests.  Light requests ([ping], [metrics], [shutdown]) are
    answered inline by the reader; heavy ones ([synthesize], [apply],
    session ops) are stamped with an admission time and submitted to a
    {!Imageeye_util.Domainpool}, so socket IO never blocks synthesis and
    synthesis never blocks accept.  Responses are written back under a
    per-connection mutex, out of order when requests pipeline.

    Per-request deadlines: [timeout_s] (default
    {!config.default_timeout_s}) is measured from admission on the
    monotonic {!Imageeye_util.Clock}; queue wait is charged against it,
    and a request whose deadline expired before a worker picked it up
    gets an immediate [timeout] outcome without running synthesis.

    Hostile-input posture (see DESIGN.md, "Failure model and input
    limits"): request lines are read through the framed, bounded
    {!Frame} reader — an over-long line or a frame dripping in slower
    than the read deadline gets a structured [line-too-long] /
    [read-timeout] error response, a counted fault in the metrics, and
    a closed connection; JSON nesting is capped by {!Imageeye_util.Jsonin}
    ([depth-exceeded]); and connections past [max_connections] are shed
    at accept with one [overloaded] line ([faults.overloaded]) instead
    of being admitted unboundedly.  Every reader's cleanup (drain
    in-flight responses, deregister, close the fd) runs under
    [Fun.protect], so no input — however malformed — can leak a
    descriptor or leave a dead connection registered.

    Graceful shutdown: SIGTERM/SIGINT (or a [shutdown] request) stops
    accepting, drains the admission queue, lets in-flight responses
    flush, closes connections, and dumps a final metrics snapshot to
    stderr.  SIGPIPE is ignored at startup: a client disconnecting
    mid-response surfaces as [EPIPE] on that connection (counted as a
    dropped response), never kills the daemon. *)

type endpoint = Unix_socket of string | Tcp of int
(** [Tcp port] binds 127.0.0.1 — the daemon trusts its peers; put a
    real proxy in front for anything else.  [Unix_socket path] replaces
    a {e stale} socket file at [path]; a path something live answers on
    is refused (see {!bind_endpoint}). *)

type config = {
  endpoint : endpoint;
  jobs : int;  (** worker domains draining the admission queue (>= 1) *)
  default_timeout_s : float;  (** deadline for requests that carry none *)
  max_rounds : int;  (** per-session cap on interaction rounds *)
  quiet : bool;  (** suppress the startup/shutdown log lines *)
  max_line_bytes : int;  (** longest accepted request line (framing cap) *)
  read_timeout_s : float option;
      (** mid-frame read deadline per connection; [None] disables *)
  max_connections : int;  (** admission cap; excess connections are shed *)
}

val default_config : config
(** Unix socket ["imageeye.sock"], 1 worker, 120 s, 10 rounds, 16 MiB
    lines, 30 s read deadline, 64 connections. *)

val bind_endpoint : endpoint -> Unix.file_descr
(** Bind and listen.  For [Unix_socket path]: probes an existing path
    with a [connect] first — raises [Failure] if a live daemon answers
    (or the path is not a socket), unlinks only a genuinely stale
    socket.  Exposed so the fault harness can assert the
    live-endpoint-not-stolen behavior directly; [run] calls it. *)

val run : config -> unit
(** Serve until a shutdown trigger; returns after the graceful drain.
    Raises [Unix.Unix_error] if the endpoint cannot be bound and
    [Failure] if the unix-socket path is already served (see
    {!bind_endpoint}). *)
