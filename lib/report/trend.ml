module J = Imageeye_util.Jsonout
module Jsonin = Imageeye_util.Jsonin

(* Static perf-trend page over the PERF_HISTORY.jsonl rows that
   [bench/main.exe --append] accumulates (one row per commit: mode,
   solved count, deterministic node total, per-pass prune counts).  Pure
   HTML + inline SVG, no scripts — CI uploads the file as an artifact,
   so it must render anywhere a browser can open a file. *)

type row = {
  ts : float;
  commit : string;
  mode : string;
  solved : int;
  total : int;
  nodes : int;
}

let ts_field now = J.Int (int_of_float now)

let row_of_json doc =
  let str key = Option.bind (Jsonin.member key doc) Jsonin.to_string_opt in
  let int key = Option.bind (Jsonin.member key doc) Jsonin.to_int_opt in
  let flt key = Option.bind (Jsonin.member key doc) Jsonin.to_float_opt in
  match (str "mode", int "solved", int "nodes") with
  | Some mode, Some solved, Some nodes ->
      Some
        {
          ts = Option.value (flt "ts") ~default:0.0;
          commit = Option.value (str "commit") ~default:"unknown";
          mode;
          solved;
          total = Option.value (int "total") ~default:0;
          nodes;
        }
  | _ -> None

let parse_history text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match Jsonin.parse line with
           | Ok doc -> row_of_json doc
           | Error _ -> None)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let short_commit c = if String.length c > 10 then String.sub c 0 10 else c

let fmt_ts ts =
  if ts <= 0.0 then "-"
  else
    let tm = Unix.gmtime ts in
    Printf.sprintf "%04d-%02d-%02d %02d:%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min

(* One polyline chart for a series of per-commit values, scaled to its
   own [0 .. max] range so a flat history draws a flat line at the top
   rather than vanishing. *)
let svg_chart ~width ~height ~label values =
  let n = List.length values in
  if n = 0 then ""
  else
    let vmax = List.fold_left max 1 values in
    let pad = 24.0 in
    let w = float_of_int width and h = float_of_int height in
    let x i =
      if n = 1 then w /. 2.0
      else pad +. (float_of_int i *. (w -. (2.0 *. pad)) /. float_of_int (n - 1))
    in
    let y v = h -. pad -. (float_of_int v /. float_of_int vmax *. (h -. (2.0 *. pad))) in
    let points =
      String.concat " "
        (List.mapi (fun i v -> Printf.sprintf "%.1f,%.1f" (x i) (y v)) values)
    in
    let dots =
      String.concat "\n"
        (List.mapi
           (fun i v ->
             Printf.sprintf {|<circle cx="%.1f" cy="%.1f" r="3"><title>%d</title></circle>|}
               (x i) (y v) v)
           values)
    in
    Printf.sprintf
      {|<svg width="%d" height="%d" viewBox="0 0 %d %d" class="chart">
<text x="%.1f" y="16" class="label">%s (max %d)</text>
<polyline fill="none" stroke-width="2" points="%s"/>
%s
</svg>|}
      width height width height pad (html_escape label) vmax points dots

let mode_section mode rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "<h2>%s mode</h2>\n" (html_escape mode));
  Buffer.add_string buf
    (svg_chart ~width:640 ~height:160 ~label:"nodes" (List.map (fun r -> r.nodes) rows));
  Buffer.add_string buf
    (svg_chart ~width:640 ~height:160 ~label:"solved"
       (List.map (fun r -> r.solved) rows));
  Buffer.add_string buf
    "<table><tr><th>when (UTC)</th><th>commit</th><th>solved</th><th>nodes</th><th>Δ \
     nodes</th></tr>\n";
  let prev = ref None in
  List.iter
    (fun r ->
      let delta =
        match !prev with
        | Some p when p > 0 ->
            Printf.sprintf "%+.1f%%"
              (100.0 *. (float_of_int (r.nodes - p) /. float_of_int p))
        | _ -> "-"
      in
      prev := Some r.nodes;
      Buffer.add_string buf
        (Printf.sprintf
           "<tr><td>%s</td><td><code>%s</code></td><td>%d/%d</td><td>%d</td><td>%s</td></tr>\n"
           (fmt_ts r.ts)
           (html_escape (short_commit r.commit))
           r.solved r.total r.nodes delta))
    rows;
  Buffer.add_string buf "</table>\n";
  Buffer.contents buf

let page rows =
  let modes =
    List.fold_left
      (fun acc r -> if List.mem r.mode acc then acc else acc @ [ r.mode ])
      [] rows
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    {|<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ImageEye perf trend</title>
<style>
  body { font-family: sans-serif; margin: 2em; background: #fafaf7; }
  table { border-collapse: collapse; margin: 1em 0; }
  th, td { border: 1px solid #ddd; padding: 0.3em 0.8em; text-align: right; }
  th { background: #eee; }
  td:first-child, td:nth-child(2) { text-align: left; }
  .chart { display: block; margin: 0.5em 0; background: #fff; border: 1px solid #ddd;
           border-radius: 6px; stroke: #36c; fill: #36c; }
  .chart .label { stroke: none; fill: #666; font-size: 12px; }
</style></head>
<body>
<h1>ImageEye perf trend</h1>
<p>One row per commit from <code>bench/main.exe --append PERF_HISTORY.jsonl</code>:
solved tasks and deterministic engine nodes per mode.</p>
|};
  if rows = [] then Buffer.add_string buf "<p>No history rows yet.</p>\n"
  else
    List.iter
      (fun mode ->
        Buffer.add_string buf
          (mode_section mode (List.filter (fun r -> r.mode = mode) rows)))
      modes;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

let write ~history ~out =
  if not (Sys.file_exists history) then
    Error (Printf.sprintf "history file %S not found" history)
  else begin
    let ic = open_in_bin history in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let rows = parse_history text in
    Imageeye_util.Fileio.write_atomic_string out (page rows);
    Ok (List.length rows)
  end
