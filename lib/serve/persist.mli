(** Durable warm state for the serving tier.

    The daemon's cross-request warmth — the interned demonstration
    universes — lives in the process-wide {!Imageeye_vision.Batch}
    intern table and dies with the process.  This module snapshots that
    table to a file under a {e state directory} and re-interns it on
    boot, so a restarted daemon answers a previously seen specification
    over an already-built universe (no new intern-table entry).

    {b Format.}  One header line

    {v imageeye-state v<version> crc32=<8 hex digits> bytes=<payload bytes> v}

    followed by exactly [bytes] bytes of compact JSON payload: the
    interned scene lists (the durable universe keys — universes
    themselves are their pure recomputation), each with its entity
    count as a consistency check.  Version 2 dropped the extractor
    banks that version 1 snapshots carried; a version 1 file is
    rejected like any other version mismatch.  Snapshots are written
    atomically (write-temp + fsync + rename), so readers see the
    previous or the new complete snapshot, never a torn one.

    {b Failure model.}  A snapshot that is unreadable, carries the wrong
    magic/version, fails its checksum, or decodes to state inconsistent
    with the recomputed universes is {e loudly rejected}: {!load}
    returns [Error] with a reason, any partially interned state is
    dropped, and the daemon proceeds with a cold start.  Corruption is
    never silent and never a crash.

    {b Concurrency.}  Two daemons snapshotting one state directory would
    silently overwrite each other, so the directory is exclusively
    locked ({!lock_state_dir}) — an [fcntl] file lock for cross-process
    exclusion plus an in-process table (POSIX record locks do not
    conflict within one process).  A second daemon gets a loud
    ["state-dir-locked"] error. *)

type lock

val lock_state_dir : string -> (lock, string) result
(** Create the directory if needed and take the exclusive lock, writing
    this pid into [<dir>/lock].  [Error] messages start with
    ["state-dir-locked"] when another daemon holds the directory. *)

val unlock : lock -> unit
(** Release (idempotent).  The lock also dies with the process. *)

val snapshot_path : string -> string
(** [<dir>/state.snapshot] — exposed so tests can corrupt it. *)

val save : state_dir:string -> int
(** Snapshot the current warm state atomically, replacing any previous
    snapshot; returns the number of universes written. *)

val load : state_dir:string -> (int option, string) result
(** Restore warm state from the directory's snapshot.  [Ok None] when no
    snapshot exists (fresh directory); [Ok (Some n)] on a successful warm
    start that re-interned [n] universes; [Error reason] on a rejected
    snapshot — in which case the intern table is left cold (any partial
    load is cleared). *)
