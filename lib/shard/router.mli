(** Deterministic shadow-state partitioner.

    The sharded engine splits detection state by memory location: every
    byte of shadow state — a [(space, region, byte index)] triple — is
    owned by exactly one shard, and only that shard checks (or even
    materializes) its cell.  Ownership is a
    pure function of the triple and the shard count, so the producer,
    every consumer domain, and the tests all agree on the partition
    without communicating.

    Cells are grouped into contiguous ranges of [2^range_log2] cells
    before hashing, preserving the spatial locality GPU access patterns
    have (coalesced warps touch neighbouring addresses): one warp-wide
    access usually lands on a single shard instead of fanning out to
    all of them.  With ranges of at least 4 bytes, the four bytes of an
    aligned word share an owner, which then holds the word's summary
    cell ({!Barracuda.Detector.Shadow.summary}). *)

type t

val make : ?range_log2:int -> shards:int -> unit -> t
(** [range_log2] defaults to 6 (64-byte ranges).
    @raise Invalid_argument if [shards < 1] or [range_log2 < 0]. *)

val owner : t -> space:Ptx.Ast.space -> region:int -> index:int -> int
(** The shard owning a byte of shadow state, in [0, shards).
    Deterministic: depends only on the arguments and the router
    parameters. *)

val owns : t -> shard:int -> Ptx.Ast.space -> int -> int -> bool
(** [owns t ~shard] as a predicate suitable for
    [Barracuda.Detector.create ?owns] — true iff [owner] names
    [shard]. *)
