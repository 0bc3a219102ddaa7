module Scene = Imageeye_scene.Scene
module Universe = Imageeye_symbolic.Universe
module Batch = Imageeye_vision.Batch
module Bank_registry = Imageeye_core.Bank_registry

(* The O(window) universe cache of the streaming tier.

   Each live frame holds one interned single-scene universe (interned so
   a repair revisiting the frame — splicing the repaired program into the
   failing window — gets the same physical universe and its caches).
   When a frame falls behind the cursor it is *released*: its entry is
   dropped from the [Batch] intern table and its vocabulary from the
   [Bank_registry], so the universe and everything keyed on it become
   garbage.  Without the
   release step, both tables retain entries for the process lifetime and
   a 100k-frame stream holds 100k universes at its end. *)

type entry = { scenes : Scene.t list; u : Universe.t }

type t = {
  window : int;
  entries : (int, entry) Hashtbl.t;
  order : int Queue.t;  (* insertion order; the head is the oldest live frame *)
  mutable peak : int;
  mutable built : int;
}

let create ~window =
  if window < 1 then invalid_arg "Window.create: window must be >= 1";
  { window; entries = Hashtbl.create (2 * window); order = Queue.create (); peak = 0; built = 0 }

let release t frame =
  match Hashtbl.find_opt t.entries frame with
  | None -> ()
  | Some { scenes; u } ->
      Batch.release_shared scenes;
      Bank_registry.evict u;
      Hashtbl.remove t.entries frame

let universe t frame scene =
  match Hashtbl.find_opt t.entries frame with
  | Some e -> e.u
  | None ->
      let scenes = [ scene ] in
      let u = Batch.shared_universe_of_scenes scenes in
      Hashtbl.replace t.entries frame { scenes; u };
      Queue.push frame t.order;
      t.built <- t.built + 1;
      while Hashtbl.length t.entries > t.window do
        release t (Queue.pop t.order)
      done;
      t.peak <- max t.peak (Hashtbl.length t.entries);
      u

let find t frame = Option.map (fun e -> e.u) (Hashtbl.find_opt t.entries frame)
let live t = Hashtbl.length t.entries
let peak t = t.peak
let built t = t.built

let drop t =
  let frames = Hashtbl.fold (fun f _ acc -> f :: acc) t.entries [] in
  List.iter (release t) frames;
  Queue.clear t.order
