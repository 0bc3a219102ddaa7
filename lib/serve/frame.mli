(** Framed, bounded reading of newline-delimited requests.

    The daemon's reader loop used to be a bare [input_line], which gave
    one hostile client three process-lifetime levers: an endless
    newline-free line (unbounded allocation), a one-byte-per-tick drip
    that parks the reader thread forever (slow-loris), and exceptions
    raised past the loop's cleanup.  This module replaces it with an
    explicit framing layer over the raw descriptor: frames are
    newline-terminated byte strings, buffering is capped at
    [max_line_bytes], and a per-frame read deadline runs on the
    monotonic {!Imageeye_util.Clock} from the frame's {e first byte} —
    a connection idling quietly {e between} frames is never timed out,
    one dripping bytes {e inside} a frame is.

    Over-limit conditions are error values the caller turns into
    structured protocol responses.  After [Line_too_long] or
    [Read_timeout] the stream position is unknown (the offending frame
    was abandoned mid-flight), so the caller should answer and close
    the connection rather than keep reading. *)

type limits = {
  max_line_bytes : int;  (** longest accepted frame, newline excluded *)
  read_timeout_s : float option;
      (** mid-frame deadline from a frame's first byte; [None] disables *)
}

val default_limits : limits
(** 16 MiB lines (a synthesize payload with many scenes is large), 30 s
    mid-frame deadline. *)

type error =
  | Eof  (** orderly close; any trailing partial frame is dropped *)
  | Line_too_long of int  (** bytes buffered when the limit tripped *)
  | Read_timeout  (** the mid-frame deadline or the caller's [deadline] passed *)
  | Io_error of string  (** connection-level failure, e.g. [ECONNRESET] *)

type t

val create : ?limits:limits -> Unix.file_descr -> t
(** One framer per connection; it owns read-side buffering for the
    descriptor (do not also read from the fd directly). *)

val read_line : ?deadline:float -> t -> (string, error) result
(** Blocks until one whole frame, EOF, or a limit trips.  Returned
    frames never contain the terminating newline.  [deadline] is an
    instant on the {!Imageeye_util.Clock.now} scale by which the whole
    frame must have arrived, idle time before its first byte included;
    past it the read fails with [Read_timeout].  Without it (the
    daemon's reader) only the mid-frame deadline applies. *)

val error_to_string : error -> string
