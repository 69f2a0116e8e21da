(** A bounded memo that domains share: at most [capacity] entries, the
    least recently used evicted first.

    Keys are hashed with [Hashtbl.hash] and compared with [compare],
    which returns at once when both are the same value, so a lookup of
    the very key that was inserted costs no structural walk.  A mutex
    guards the index only: a miss builds outside it, so two domains
    that miss the same key at once may both build it; the first insert
    wins and both get its value. *)

type ('k, 'v) t

val create :
  ?on_insert:(entries:int -> evicted:bool -> unit) ->
  capacity:int ->
  unit ->
  ('k, 'v) t
(** [on_insert] runs under the lock after each insert, with the entry
    count and whether the insert evicted one (a telemetry hook).
    @raise Invalid_argument if [capacity < 1]. *)

val find_or_build : ('k, 'v) t -> 'k -> build:(unit -> 'v) -> 'v * bool
(** The value for a key, building and inserting it on a miss; the
    boolean is [true] on a hit.  Exceptions from [build] propagate and
    leave the memo unchanged (a failed build is not remembered). *)

type stats = { entries : int; hits : int; misses : int; evictions : int }

val stats : (_, _) t -> stats
