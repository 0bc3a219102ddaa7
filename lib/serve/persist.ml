module J = Imageeye_util.Jsonout
module Jsonin = Imageeye_util.Jsonin
module Fileio = Imageeye_util.Fileio
module Checksum = Imageeye_util.Checksum
module Scene_io = Imageeye_scene.Scene_io
module Batch = Imageeye_vision.Batch
module Universe = Imageeye_symbolic.Universe

let magic = "imageeye-state"
let version = 2
let snapshot_path dir = Filename.concat dir "state.snapshot"

(* ---------- state-dir locking ---------- *)

(* POSIX record locks ([lockf]) exclude other processes but never the
   caller's own process, so in-process exclusion (two daemons in one
   test binary, or a config bug starting the server twice) needs its own
   table, keyed by the resolved directory path. *)
let held : (string, unit) Hashtbl.t = Hashtbl.create 4
let held_mutex = Mutex.create ()

type lock = { dir_key : string; fd : Unix.file_descr; mutable released : bool }

let locked_err dir =
  Error
    (Printf.sprintf
       "state-dir-locked: another daemon is already snapshotting %s (remove is unsafe \
        while it runs)"
       dir)

let lock_state_dir dir =
  Fileio.ensure_dir dir;
  let dir_key = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  Mutex.lock held_mutex;
  let already = Hashtbl.mem held dir_key in
  if not already then Hashtbl.replace held dir_key ();
  Mutex.unlock held_mutex;
  if already then locked_err dir
  else
    let release_slot () =
      Mutex.lock held_mutex;
      Hashtbl.remove held dir_key;
      Mutex.unlock held_mutex
    in
    match Unix.openfile (Filename.concat dir "lock") [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
    | exception Unix.Unix_error (e, _, _) ->
        release_slot ();
        Error (Printf.sprintf "state-dir %s: cannot open lock file: %s" dir (Unix.error_message e))
    | fd -> (
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | () ->
            (* Operator breadcrumb; the lock itself is the fcntl lease. *)
            let pid = Printf.sprintf "%d\n" (Unix.getpid ()) in
            (try
               ignore (Unix.ftruncate fd 0);
               ignore (Unix.write_substring fd pid 0 (String.length pid))
             with Unix.Unix_error _ -> ());
            Ok { dir_key; fd; released = false }
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            release_slot ();
            locked_err dir
        | exception Unix.Unix_error (e, _, _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            release_slot ();
            Error (Printf.sprintf "state-dir %s: cannot lock: %s" dir (Unix.error_message e)))

let unlock l =
  if not l.released then begin
    l.released <- true;
    Mutex.lock held_mutex;
    Hashtbl.remove held l.dir_key;
    Mutex.unlock held_mutex;
    try Unix.close l.fd with Unix.Unix_error _ -> ()
  end

(* ---------- encoding ---------- *)

let payload () =
  (* Sorted by serialized scenes: snapshots of identical state are
     byte-identical regardless of intern-table iteration order. *)
  let entries =
    Batch.shared_entries ()
    |> List.map (fun (scenes, u) ->
           (String.concat "\x00" (List.map Scene_io.to_string scenes), scenes, u))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let universe_json (_, scenes, u) =
    J.Obj
      [
        ("scenes", J.List (List.map (fun s -> J.Str (Scene_io.to_string s)) scenes));
        ("entities", J.Int (Universe.size u));
      ]
  in
  let doc = J.Obj [ ("universes", J.List (List.map universe_json entries)) ] in
  (J.to_line doc, List.length entries)

let save ~state_dir =
  let body, universes = payload () in
  let header =
    Printf.sprintf "%s v%d crc32=%s bytes=%d\n" magic version
      (Checksum.to_hex (Checksum.crc32 body))
      (String.length body)
  in
  Fileio.write_atomic (snapshot_path state_dir) (fun oc ->
      output_string oc header;
      output_string oc body);
  universes

(* ---------- decoding ---------- *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

let get_field obj key =
  match Jsonin.member key obj with
  | Some v -> v
  | None -> reject "missing field %S" key

let as_int what v =
  match Jsonin.to_int_opt v with Some i -> i | None -> reject "%s: expected an integer" what

let as_list what v =
  match Jsonin.to_list_opt v with Some l -> l | None -> reject "%s: expected an array" what

let as_string what v =
  match Jsonin.to_string_opt v with Some s -> s | None -> reject "%s: expected a string" what

let decode_universe v =
  let scenes =
    as_list "scenes" (get_field v "scenes")
    |> List.map (fun s ->
           let text = as_string "scene" s in
           match Scene_io.of_string text with
           | scene -> scene
           | exception Failure msg -> reject "unparseable scene: %s" msg)
  in
  (scenes, as_int "entities" (get_field v "entities"))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_header line =
  match String.split_on_char ' ' line with
  | [ m; v; crc; bytes ] -> (
      if m <> magic then reject "not an imageeye state snapshot (magic %S)" m;
      if v <> Printf.sprintf "v%d" version then
        reject "snapshot version %s does not match this daemon (v%d)" v version;
      let crc =
        match
          if String.length crc > 6 && String.sub crc 0 6 = "crc32=" then
            Checksum.of_hex (String.sub crc 6 (String.length crc - 6))
          else None
        with
        | Some c -> c
        | None -> reject "malformed checksum field %S" crc
      in
      match
        if String.length bytes > 6 && String.sub bytes 0 6 = "bytes=" then
          int_of_string_opt (String.sub bytes 6 (String.length bytes - 6))
        else None
      with
      | Some n when n >= 0 -> (crc, n)
      | _ -> reject "malformed length field %S" bytes)
  | _ -> reject "malformed snapshot header"

let load ~state_dir =
  let path = snapshot_path state_dir in
  if not (Sys.file_exists path) then Ok None
  else
    match
      let content = try read_file path with Sys_error msg -> reject "unreadable: %s" msg in
      let header, body =
        match String.index_opt content '\n' with
        | None -> reject "truncated snapshot (no header line)"
        | Some i ->
            ( String.sub content 0 i,
              String.sub content (i + 1) (String.length content - i - 1) )
      in
      let crc, bytes = parse_header header in
      if String.length body <> bytes then
        reject "truncated snapshot: header promises %d payload byte(s), found %d" bytes
          (String.length body);
      if Checksum.crc32 body <> crc then
        reject "checksum mismatch: snapshot is corrupt (expected crc32=%s, computed %s)"
          (Checksum.to_hex crc)
          (Checksum.to_hex (Checksum.crc32 body));
      let doc =
        match Jsonin.parse body with
        | Ok d -> d
        | Error e -> reject "malformed payload: %s" (Jsonin.error_to_string e)
      in
      (* Decode fully before interning anything, so most corruption is
         rejected without touching the intern table at all. *)
      let universes =
        as_list "universes" (get_field doc "universes") |> List.map decode_universe
      in
      List.iter
        (fun (scenes, entities) ->
          let u = Batch.shared_universe_of_scenes scenes in
          if Universe.size u <> entities then
            reject
              "universe mismatch: snapshot recorded %d entities, detector produced %d \
               (stale snapshot against changed detection logic?)"
              entities (Universe.size u))
        universes;
      List.length universes
    with
    | n -> Ok (Some n)
    | exception Reject msg ->
        (* Drop whatever the failed load managed to intern: a loudly
           rejected snapshot must leave a clean cold start, not a
           half-warm intern table. *)
        Batch.clear_shared ();
        Error msg
