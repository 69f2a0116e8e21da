(** Lock-free GPU→host log queue (§4.2, Figure 6).

    A fixed-capacity ring tracked by three monotonically increasing
    virtual indices — write head (next slot a producer may reserve),
    commit index (records made visible to the host) and read head
    (records consumed) — mapped to physical slots by modulus with the
    capacity.  The queue is full when the write head is [capacity]
    entries ahead of the read head.

    Storage is one preallocated flat buffer of
    [capacity * Barracuda.Wire.max_cell_size] bytes, a slot per cell;
    producers serialize directly into their reserved slot and the
    consumer decodes directly out of it, so steady-state transport
    allocates no per-record [Bytes.t] on either side.

    Producer protocol (any domain):
    {[
      match Queue.try_reserve q with
      | -1 -> (* full: drain or back off, then retry *)
      | w ->
          Wire.write_access (Queue.buffer q) ~pos:(Queue.offset_of q w) ...;
          Queue.commit q w
    ]}
    Between [try_reserve] and [commit] the slot belongs exclusively to
    the reserving producer.  [commit] publishes in reservation order —
    it waits for earlier reservations with a bounded spin-then-sleep
    backoff whose escalations are counted in {!stalls}.

    Consumer protocol (one domain at a time):
    {[
      match Queue.peek q with
      | -1 -> (* empty *)
      | off -> (* read the record at [off] in Queue.buffer q *)
              Queue.release q
    ]}
    The bytes at [off] are valid only until {!release}; after that the
    slot may be rewritten by a producer. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val buffer : t -> Bytes.t
(** The backing ring.  Only touch slots owned per the protocol. *)

val offset_of : t -> int -> int
(** Byte offset of virtual index [w]'s slot in {!buffer}. *)

val try_reserve : t -> int
(** Reserve the next slot for writing: the virtual index to pass to
    {!commit} ([offset_of] gives its byte position), or [-1] when the
    queue is full — the real system stalls the warp. *)

val commit : t -> int -> unit
(** Publish a reserved slot to the consumer.  Blocks (bounded
    exponential backoff) until all earlier reservations commit. *)

val peek : t -> int
(** Byte offset of the oldest committed record, or [-1] when empty.
    Does not consume: repeated calls return the same record. *)

val release : t -> unit
(** Free the slot returned by the last {!peek}; its bytes become
    producer-owned again.  No-op on an empty queue. *)

val read_index : t -> int
(** Virtual index of the record {!peek} would return — the consumer
    frontier ([read_index mod capacity] is its physical slot). *)

val push_into : t -> (Bytes.t -> int -> unit) -> bool
(** [push_into q f] reserves a slot, calls [f buf off] to fill it with
    exactly one record, and commits.  [false] (without calling [f])
    when full. *)

val consume : t -> (Bytes.t -> int -> 'a) -> 'a option
(** [consume q f] applies [f buf off] to the oldest record and
    releases it; [None] when empty.  [f]'s result must not retain
    [buf]'s contents past the call. *)

val length : t -> int
(** Committed records not yet consumed. *)

val pushed : t -> int
(** Total records ever committed (throughput accounting). *)

val high_watermark : t -> int
(** Maximum backlog observed. *)

val stalls : t -> int
(** Producer backoff escalations taken inside {!commit}. *)
