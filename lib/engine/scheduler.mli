(** The worklist scheduler of the search engine.

    Two layers:

    - a mutable bucket worklist ({!t}) ordered by [(size, depth)] with
      FIFO tie-breaking, which is what makes the search deterministic:
      one FIFO per priority, and a cursor at the lowest bucket that may
      hold an entry; and
    - {!Tiered}, the generic size-then-depth search driver (the loop of
      Fig. 9), parameterized over a {e program-expansion interface} so it
      knows nothing about partial programs, pruning, or the DSL.

    Expansion is tiered by size increment so the search stays lazy: a
    popped item enqueues one cursor per size tier, and a tier's
    candidates are only materialized when the worklist frontier reaches
    their size.  This changes nothing about exploration order — it only
    avoids building candidates beyond the frontier when the search stops
    early. *)

type priority = int * int
(** [(size, depth)], compared lexicographically, smallest first.  Both
    components must be non-negative. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> priority -> 'a -> unit
(** Raises [Invalid_argument] on a negative size or depth.  A push may
    land below the last popped priority. *)

val pop : 'a t -> (priority * 'a) option
(** Removes a minimum-priority entry; among equal priorities, the
    earliest pushed is returned first. *)

val length : 'a t -> int

module Tiered : sig
  type 'a problem = {
    size : 'a -> int;
    depth : 'a -> int;
    min_delta : int;  (** smallest size increment of one expansion *)
    max_delta : int;  (** largest size increment of one expansion *)
    max_size : int;  (** tiers beyond this size are never scheduled *)
    expand : 'a -> delta:int -> 'a list option;
        (** all single-step expansions of the item's first hole whose
            size increment is [delta]; [None] when the item is complete *)
    consider : push:('a -> unit) -> 'a -> unit;
        (** invoked on each freshly expanded candidate; calls [push] to
            admit it to the worklist (the pruning pipeline lives here) *)
  }

  val run :
    'a problem ->
    stop:(unit -> 'r option) ->
    on_pop:('a -> unit) ->
    roots:'a list ->
    exhausted:'r ->
    'r
  (** Drives the worklist to completion.  [stop] is consulted before
      every dequeue (budget checks); [on_pop] fires when an {e item}
      (not a tier cursor) is dequeued for expansion; [exhausted] is
      returned when the worklist empties.  Exceptions raised by
      [consider] propagate (the engine uses one to stop after enough
      solutions). *)
end
