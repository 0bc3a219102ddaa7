module Universe = Imageeye_symbolic.Universe

(* One process-wide registry guarded by one mutex: universes are shared
   across tasks (and Domains), so a vocabulary built for one search is
   reused read-only by every later search over the same universe.
   Entries are keyed by Universe.uid. *)
let registry : (int, (int list * Vocab.t) list) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_lock f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let clear () = with_lock (fun () -> Hashtbl.reset registry)

(* Streaming eviction: the registry entry is what would otherwise pin a
   dead universe's vocabulary for the process lifetime. *)
let evict u = with_lock (fun () -> Hashtbl.remove registry (Universe.uid u))

let registered () = with_lock (fun () -> Hashtbl.length registry)

let vocab u ~age_thresholds =
  with_lock (fun () ->
      let key = Universe.uid u in
      let vocabs = Option.value (Hashtbl.find_opt registry key) ~default:[] in
      match List.assoc_opt age_thresholds vocabs with
      | Some v -> v
      | None ->
          let v = Vocab.of_universe ~age_thresholds u in
          Hashtbl.replace registry key ((age_thresholds, v) :: vocabs);
          v)
