type priority = int * int

(* A bucket queue: [rows.(size).(depth)] is the FIFO of every entry of
   that priority, so items and tier cursors of one priority come out in
   push order, as one global FIFO would give them.  Rows and buckets
   grow on demand.  [(lo_size, lo_depth)] is the cursor: no entry lies
   in a bucket below it, so [take] scans up from there.  Nothing here is
   rebuilt per operation, which is the point: a persistent heap turned
   every push and pop into fresh spine nodes, most of them promoted
   garbage by the time they were dropped. *)
type 'a t = {
  mutable rows : 'a Queue.t array array;
  mutable lo_size : int;
  mutable lo_depth : int;
  mutable length : int;
}

let create () = { rows = [||]; lo_size = 0; lo_depth = 0; length = 0 }

(* [a] extended past index [need], at least doubling, new slots from
   [fill]. *)
let grown a need fill =
  let len = Array.length a in
  Array.init (max (need + 1) (2 * len)) (fun i -> if i < len then a.(i) else fill ())

let push_at t size depth x =
  if size < 0 || depth < 0 then invalid_arg "Scheduler.push: negative priority";
  if size >= Array.length t.rows then t.rows <- grown t.rows size (fun () -> [||]);
  if depth >= Array.length t.rows.(size) then
    t.rows.(size) <- grown t.rows.(size) depth Queue.create;
  Queue.push x t.rows.(size).(depth);
  t.length <- t.length + 1;
  (* A tier popped at [(s + d, depth + 1)] can yield candidates of lower
     depth, so a push may land below the cursor. *)
  if size < t.lo_size || (size = t.lo_size && depth < t.lo_depth) then begin
    t.lo_size <- size;
    t.lo_depth <- depth
  end

let push t (size, depth) x = push_at t size depth x

(* Removes the oldest entry of the lowest non-empty bucket at or above
   [(size, depth)] and leaves the cursor on that bucket, so the caller
   reads the popped priority off [(lo_size, lo_depth)].  Requires
   [length > 0]. *)
let rec take_from t size depth =
  let row = t.rows.(size) in
  if depth >= Array.length row then take_from t (size + 1) 0
  else if Queue.is_empty row.(depth) then take_from t size (depth + 1)
  else begin
    t.lo_size <- size;
    t.lo_depth <- depth;
    t.length <- t.length - 1;
    Queue.take row.(depth)
  end

let take t = take_from t t.lo_size t.lo_depth

let pop t =
  if t.length = 0 then None
  else
    let x = take t in
    Some ((t.lo_size, t.lo_depth), x)

let length t = t.length

module Tiered = struct
  type 'a problem = {
    size : 'a -> int;
    depth : 'a -> int;
    min_delta : int;
    max_delta : int;
    max_size : int;
    expand : 'a -> delta:int -> 'a list option;
    consider : push:('a -> unit) -> 'a -> unit;
  }

  type 'a entry = Item of 'a | Tier of 'a * int

  let run p ~stop ~on_pop ~roots ~exhausted =
    let q = create () in
    let push_item x = push_at q (p.size x) (p.depth x) (Item x) in
    List.iter push_item roots;
    let rec loop () =
      match stop () with
      | Some r -> r
      | None ->
          if q.length = 0 then exhausted
          else begin
            (match take q with
            | Tier (x, delta) -> (
                match p.expand x ~delta with
                | None -> ()
                | Some candidates -> List.iter (p.consider ~push:push_item) candidates)
            | Item x ->
                (* An item's priority is its own size and depth. *)
                let size = q.lo_size and depth = q.lo_depth in
                on_pop x;
                for delta = p.min_delta to p.max_delta do
                  if size + delta <= p.max_size then
                    push_at q (size + delta) (depth + 1) (Tier (x, delta))
                done);
            loop ()
          end
    in
    loop ()
end
