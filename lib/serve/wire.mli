(** JSON wire codecs for the serve protocol's domain payloads.

    The daemon does not invent new serializations: scenes travel as
    {!Imageeye_scene.Scene_io} text, demonstrations as
    {!Imageeye_interact.Demo_io} text, programs as the DSL's concrete
    syntax — each wrapped in a JSON string, so every existing file
    format, parser and escaping rule is reused verbatim and anything the
    CLI can read the server can receive.  Decoders return [Error]
    messages (surfaced as structured protocol errors), never raise. *)

module J = Imageeye_util.Jsonout

val scenes_to_json : Imageeye_scene.Scene.t list -> J.t
(** A JSON array of [Scene_io.to_string] payloads. *)

val scenes_of_json : J.t -> (Imageeye_scene.Scene.t list, string) result
(** Rejects empty batches, non-strings, and malformed scene text. *)

val demos_to_json : Imageeye_interact.Demo_io.demo list -> J.t
(** The [Demo_io.to_string] payload as a JSON string. *)

val demos_of_json : J.t -> (Imageeye_interact.Demo_io.demo list, string) result

val spec_of : scenes:Imageeye_scene.Scene.t list ->
  Imageeye_interact.Demo_io.demo list ->
  (Imageeye_core.Edit.Spec.t, string) result
(** [Demo_io.to_spec ~shared:true]: repeated identical requests share
    one interned universe, and with it its vocabulary. *)

val program_to_json : Imageeye_core.Lang.program -> J.t

val program_of_json : J.t -> (Imageeye_core.Lang.program, string) result
(** Parses the DSL concrete syntax via {!Imageeye_core.Parser}. *)

val stats_to_json : Imageeye_core.Synthesizer.stats -> J.t
(** [{popped, enqueued, nodes, elapsed_s, prune_counts: {label: n}}]. *)

val edit_to_json :
  Imageeye_symbolic.Universe.t ->
  image_ids:int list ->
  Imageeye_core.Edit.t ->
  J.t
(** The induced edit as
    [[{image, objects: [{object, actions: [..]}]}]]; object numbers are
    positions within their image, the same numbering [imageeye objects]
    prints and demonstration files use. *)
