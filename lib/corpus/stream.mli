(** The streaming apply tier: pipeline a synthesized program across a
    mega-corpus with O(window) memory, and repair it in place when a
    mid-stream counterexample contradicts it.

    {!apply} streams a fixed program (no oracle, no repairs) — the serve
    tier's [stream-apply] op.  {!run} simulates the full deployment
    story: bootstrap a program from the corpus prefix with the
    interaction loop, stream it, audit each frame against the task's
    ground truth, and on a mismatch resume the demonstration trajectory
    via {!Imageeye_interact.Session.Stepwise.resume} — no replay of the
    rounds already satisfied — splicing the repaired program back into
    the failing window.
    Each repair also measures the cold-restart cost (a fresh
    interaction-loop run over the same accumulated demonstrations) for
    the warm-vs-cold comparison reported in the benchmarks. *)

type config = {
  window : int;  (** universe-cache width = splice window, >= 1 *)
  bootstrap_frames : int;  (** prefix length the initial program is synthesized from *)
  max_repairs : int;  (** stop repairing (but keep streaming) after this many *)
  cold_compare : bool;  (** also measure a cold restart at each repair *)
  synth_timeout_s : float;  (** per-synthesis-call timeout *)
  time_budget_s : float option;  (** stop streaming early when exceeded *)
}

val default_config : config
(** window 256, bootstrap 24 frames, 4 repairs, cold compare on, 30 s
    synthesis timeout, no stream budget. *)

type repair = {
  at_frame : int;
  demo_frames : int list;  (** demonstration history after the repair, most recent first *)
  rounds_warm : int;  (** interaction rounds the resumed session needed *)
  nodes_warm : int;  (** synthesis nodes the resumed session spent *)
  warm_time_s : float;
  nodes_cold : int option;  (** nodes a cold restart spent (when [cold_compare]) *)
  cold_time_s : float option;
  cold_solved : bool;
  repaired : Imageeye_core.Lang.program;
}

type bootstrap = {
  demo_trajectory : int list;  (** most recent first *)
  nodes_bootstrap : int;
  bootstrap_time_s : float;
}

type report = {
  frames_requested : int;
  frames_done : int;  (** < requested only when the time budget was hit *)
  window : int;
  edits : int;  (** total (object, action) assignments emitted *)
  per_window_edits : (int * int) list;  (** (window start frame, edits in window) *)
  mismatched_frames : int;  (** frames where the deployed program contradicted ground truth *)
  repairs : repair list;  (** in stream order *)
  repair_failed : bool;  (** a repair attempt could not re-synthesize *)
  bootstrap_info : bootstrap option;  (** [None] for {!apply} *)
  program : Imageeye_core.Lang.program;  (** the finally deployed program *)
  elapsed_s : float;
  images_per_s : float;
  peak_live_universes : int;  (** high-water interned-universe count — [<= window] *)
  universes_built : int;
  peak_rss_kb : int option;  (** Linux VmHWM; [None] elsewhere *)
  edit_digest : string;  (** chained digest of the emitted edit stream *)
}

val apply : ?config:config -> corpus:Corpus.t -> Imageeye_core.Lang.program -> report
(** Stream a fixed program across the corpus; never repairs. *)

val run :
  ?config:config -> corpus:Corpus.t -> Imageeye_tasks.Task.t -> (report, string) result
(** Bootstrap from the prefix, stream, audit, repair.  [Error] when the
    bootstrap synthesis itself fails. *)

val nodes_of_rounds : Imageeye_interact.Session.round list -> int
(** Total synthesis nodes across a round list (bench/test helper). *)
