(** Byte-addressed memory for one state space.

    Backed by 256-byte pages, each created on the first write into it,
    so a simulated device can expose a large address space while only
    holding the pages kernels actually write.  Multi-byte accesses are
    little-endian; unwritten bytes read as zero (CUDA gives no such
    guarantee, but deterministic zero-fill keeps simulated workloads
    reproducible), and a read maps no page. *)

type t

val create : unit -> t
val read : t -> addr:int -> width:int -> int64
val write : t -> addr:int -> width:int -> int64 -> unit
val footprint : t -> int
(** Number of distinct bytes ever written. *)
