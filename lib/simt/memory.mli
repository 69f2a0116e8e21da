(** Byte-addressed memory for one state space.

    Backed by 256-byte pages, each created on the first write into it,
    so a simulated device can expose a large address space while only
    holding the pages kernels actually write.  Multi-byte accesses are
    little-endian; unwritten bytes read as zero (CUDA gives no such
    guarantee, but deterministic zero-fill keeps simulated workloads
    reproducible), and a read maps no page.  Widths are 1 to 8 bytes.

    The simulator's access path moves values through an 8-byte {e slot}
    of a caller's buffer ({!load}, {!store}) rather than as [int64]
    arguments, which a call into this unit would box.  An access of 1,
    2, 4 or 8 bytes inside one page is one page lookup and one load or
    store; one that straddles a page boundary goes byte by byte. *)

type t

val create : unit -> t

val load : t -> addr:int -> width:int -> Bytes.t -> int -> unit
(** [load m ~addr ~width b slot] writes the [width] bytes at [addr],
    zero-extended to a little-endian [int64], into bytes [slot] to
    [slot + 7] of [b]. *)

val store : t -> addr:int -> width:int -> Bytes.t -> int -> unit
(** [store m ~addr ~width b slot] writes the low [width] bytes of the
    little-endian [int64] at [slot] in [b] to [addr]. *)

val read : t -> addr:int -> width:int -> int64
(** {!load} into a fresh slot: the host's and the fault injector's view. *)

val write : t -> addr:int -> width:int -> int64 -> unit
(** {!store} from a fresh slot. *)

val footprint : t -> int
(** Number of distinct bytes ever written. *)
