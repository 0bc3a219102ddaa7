module J = Imageeye_util.Jsonout
module Clock = Imageeye_util.Clock

(* The reservoir keeps the most recent [capacity] latencies (a ring):
   quantiles reflect recent traffic rather than the whole uptime, which
   is what an operator watching a long-lived daemon wants. *)
let capacity = 4096

type t = {
  mutex : Mutex.t;
  started : Clock.counter;
  requests : (string * string, int) Hashtbl.t;  (* (op, outcome) -> count *)
  counters : (string, int) Hashtbl.t;  (* prune_counts labels, summed *)
  faults : (string, int) Hashtbl.t;  (* induced-fault outcome -> count *)
  latencies : float array;
  mutable latency_count : int;  (* total ever recorded *)
  mutable latency_max : float;
  mutable max_queue_depth : int;
  mutable dropped : int;
}

let create () =
  {
    mutex = Mutex.create ();
    started = Clock.counter ();
    requests = Hashtbl.create 16;
    counters = Hashtbl.create 32;
    faults = Hashtbl.create 8;
    latencies = Array.make capacity 0.0;
    latency_count = 0;
    latency_max = 0.0;
    max_queue_depth = 0;
    dropped = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record t ~op ~outcome ~latency_s ?(counts = []) () =
  locked t (fun () ->
      let key = (op, outcome) in
      Hashtbl.replace t.requests key
        (1 + Option.value (Hashtbl.find_opt t.requests key) ~default:0);
      t.latencies.(t.latency_count mod capacity) <- latency_s;
      t.latency_count <- t.latency_count + 1;
      if latency_s > t.latency_max then t.latency_max <- latency_s;
      List.iter
        (fun (label, n) ->
          Hashtbl.replace t.counters label
            (n + Option.value (Hashtbl.find_opt t.counters label) ~default:0))
        counts)

let observe_queue_depth t depth =
  locked t (fun () -> if depth > t.max_queue_depth then t.max_queue_depth <- depth)

let record_dropped t = locked t (fun () -> t.dropped <- t.dropped + 1)

let record_fault t outcome =
  locked t (fun () ->
      Hashtbl.replace t.faults outcome
        (1 + Option.value (Hashtbl.find_opt t.faults outcome) ~default:0))

(* Nearest-rank quantile: the q-quantile of n sorted samples is sample
   ⌈q·n⌉ (1-indexed).  The previous [round (q·(n-1))] interpolation
   disagreed with nearest-rank on small samples — p50 of [a; b]
   returned b, the 75th percentile — which loadgen's tiny warm-up runs
   made visible.  Pinned by exact unit tests at n ∈ {1, 2, 3, 20}. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let snapshot t ~queue_depth ~sessions_open ~connections_open =
  locked t (fun () ->
      let stored = min t.latency_count capacity in
      let sorted = Array.sub t.latencies 0 stored in
      Array.sort compare sorted;
      let by_op = Hashtbl.create 8 in
      Hashtbl.iter
        (fun (op, outcome) n ->
          let outcomes = Option.value (Hashtbl.find_opt by_op op) ~default:[] in
          Hashtbl.replace by_op op ((outcome, n) :: outcomes))
        t.requests;
      let requests_json =
        List.sort compare (Hashtbl.fold (fun op outcomes acc -> (op, outcomes) :: acc) by_op [])
        |> List.map (fun (op, outcomes) ->
               (op, J.Obj (List.sort compare outcomes |> List.map (fun (o, n) -> (o, J.Int n)))))
      in
      let total = Hashtbl.fold (fun _ n acc -> acc + n) t.requests 0 in
      let counters_json =
        List.sort compare (Hashtbl.fold (fun l n acc -> (l, J.Int n) :: acc) t.counters [])
      in
      let faults_json =
        List.sort compare (Hashtbl.fold (fun l n acc -> (l, J.Int n) :: acc) t.faults [])
      in
      J.Obj
        [
          ("uptime_s", J.Float (Clock.elapsed_s t.started));
          ("requests_total", J.Int total);
          ("requests", J.Obj requests_json);
          ("dropped_responses", J.Int t.dropped);
          ("faults", J.Obj faults_json);
          ("queue_depth", J.Int queue_depth);
          ("max_queue_depth", J.Int t.max_queue_depth);
          ("sessions_open", J.Int sessions_open);
          ("connections_open", J.Int connections_open);
          ( "latency",
            J.Obj
              [
                ("count", J.Int t.latency_count);
                ("p50_s", J.Float (quantile sorted 0.50));
                ("p95_s", J.Float (quantile sorted 0.95));
                ("p99_s", J.Float (quantile sorted 0.99));
                ("max_s", J.Float t.latency_max);
              ] );
          ("counters", J.Obj counters_json);
        ])
