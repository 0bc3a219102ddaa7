(** Static HTML trend page over the per-commit perf history.

    [bench/main.exe --append PERF_HISTORY.jsonl] accumulates one JSONL
    row per commit (mode, solved count, deterministic node total,
    per-task breakdown); this module renders those rows as a single
    self-contained HTML file — per-mode inline-SVG charts of nodes and
    solved counts plus a per-commit table with node deltas.  No
    scripts, no external assets: CI uploads the file as an artifact on
    main pushes ([imageeye trend] is the CLI entry point). *)

type row = {
  ts : float;
  commit : string;
  mode : string;
  solved : int;
  total : int;
  nodes : int;
}

val ts_field : float -> Imageeye_util.Jsonout.t
(** A row's [ts] field for the Unix time [now]: whole seconds, written
    as an integer.  (A float field prints through [%.6g], which rounds a
    current timestamp to 10,000 s.) *)

val parse_history : string -> row list
(** Parse JSONL text, in file order; lines that are blank, malformed,
    or missing the mode/solved/nodes fields are skipped. *)

val page : row list -> string
(** The rendered HTML document. *)

val write : history:string -> out:string -> (int, string) result
(** [write ~history ~out] reads the JSONL file and atomically writes
    the page; [Ok n] is the number of rows rendered. *)
