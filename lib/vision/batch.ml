module Entity = Imageeye_symbolic.Entity
module Universe = Imageeye_symbolic.Universe
module Rng = Imageeye_util.Rng

let universe_of_detections detections =
  let entities =
    List.mapi
      (fun id (d : Detector.detection) ->
        Entity.make ~id ~image_id:d.image_id ~kind:d.kind ~bbox:d.bbox)
      detections
  in
  Universe.of_entities entities

let universe_of_scenes ?(noise = Noise.none) ?(seed = 0) scenes =
  let rng = Rng.create seed in
  let detections = List.concat_map (fun s -> Detector.detect_scene ~noise ~rng s) scenes in
  universe_of_detections detections

(* Noiseless detection is a pure function of the scene list, so scene
   lists can be interned to one physical universe.  Physical sharing is
   what makes the synthesizer's per-universe caches (vocabularies,
   interned symbolic images) carry across the tasks and interaction
   rounds of a sweep that demonstrate the same images.
   Entries are retained for the process lifetime, like the universes a
   sweep holds anyway; the mutex makes sharing safe across Domains. *)
let shared_tbl : (Imageeye_scene.Scene.t list, Universe.t) Hashtbl.t = Hashtbl.create 64
let shared_mutex = Mutex.create ()

let shared_universe_of_scenes scenes =
  Mutex.lock shared_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock shared_mutex)
    (fun () ->
      match Hashtbl.find_opt shared_tbl scenes with
      | Some u -> u
      | None ->
          let u = universe_of_scenes scenes in
          Hashtbl.add shared_tbl scenes u;
          u)

let clear_shared () =
  Mutex.lock shared_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock shared_mutex) (fun () -> Hashtbl.reset shared_tbl)

(* Streaming eviction: the O(window) cache interns one universe per live
   frame and releases it when the frame falls behind the cursor.  Without
   release, a 100k-frame stream would retain 100k universes here for the
   process lifetime. *)
let release_shared scenes =
  Mutex.lock shared_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock shared_mutex)
    (fun () -> Hashtbl.remove shared_tbl scenes)

let shared_count () =
  Mutex.lock shared_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock shared_mutex)
    (fun () -> Hashtbl.length shared_tbl)
