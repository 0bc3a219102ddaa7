(** A blocking client for the serve protocol.

    One value per connection; not thread-safe (the load generator opens
    one client per worker thread).  {!rpc} writes a request line and
    blocks for one response line — for pipelining, talk to the socket
    directly; this client covers the CLI, the load generator and the
    tests. *)

module J = Imageeye_util.Jsonout

type endpoint = Unix_socket of string | Tcp of string * int

type t

val connect : ?limits:Frame.limits -> endpoint -> t
(** Raises [Unix.Unix_error] when nothing listens there.  Responses are
    read through the same bounded {!Frame} reader the daemon uses
    ([limits] defaults to {!Frame.default_limits}): an over-long or
    dripping response line comes back as a structured [Error] from
    {!rpc} instead of growing without bound — after such an error the
    stream position is unknown, so close the connection. *)

val connect_retry :
  ?attempts:int ->
  ?backoff_s:float ->
  ?max_backoff_s:float ->
  ?limits:Frame.limits ->
  endpoint ->
  t
(** {!connect} with bounded retry on transient failures ([ECONNREFUSED],
    [ENOENT], [ECONNRESET], ...): exponential backoff from [backoff_s]
    (default 0.05 s) doubling up to [max_backoff_s] (default 2 s), with
    deterministic jitter so a fleet of retrying clients desynchronizes.
    After [attempts] (default 8) failures the last exception is
    re-raised; non-transient errors raise immediately. *)

val close : t -> unit

val rpc : ?deadline:float -> t -> Protocol.request -> (J.t, string) result
(** Send one request (with a fresh integer id) and wait for its
    response.  [Error] covers transport failures and responses whose id
    does not match — protocol-level failures come back as [Ok] responses
    with ["ok": false].  [deadline] ({!Frame.read_line}) bounds the wait
    for the response; by default only the mid-frame deadline applies. *)

val rpc_json : t -> J.t -> (J.t, string) result
(** Escape hatch: send a raw JSON document as one line (used to test the
    server's malformed-request handling end to end). *)

val rpc_raw : ?deadline:float -> t -> string -> (J.t, string) result
(** Sharper escape hatch: send arbitrary bytes as one line (a newline is
    appended unless present) and wait for one response line — the
    [imageeye client raw] adversarial probe and the fault harness use
    this to hit the framing and parsing limits on purpose, and the
    router forwards requests with it.  [deadline] as for {!rpc}. *)

val read_response : ?deadline:float -> t -> (J.t, string) result
(** Wait for one more response line on the connection, as the end of
    {!rpc_raw} does; the router resumes a forwarded request's wait with
    it after each liveness check of its worker. *)

val is_ok : J.t -> bool
(** ["ok"] is [true] in the response. *)
