(** Thread-hierarchy layout: how flat thread ids map onto the CUDA grid.

    BARRACUDA's metadata compression leans on the grid structure
    (warp / thread block / grid), so every component that manipulates
    compressed clocks needs a consistent view of which warp and block a
    thread id belongs to.  Thread ids are flat: threads of block [b]
    occupy the contiguous range [b * threads_per_block .. (b+1) *
    threads_per_block - 1], and warps are contiguous 32-thread (or
    [warp_size]-thread) chunks of a block. *)

type dim3 = { x : int; y : int; z : int }
(** CUDA-style three-component extent. *)

type t = private {
  warp_size : int;  (** threads per warp (32 on real hardware) *)
  threads_per_block : int;  (** must be a positive multiple of nothing: the
                                last warp of a block may be partial *)
  blocks : int;  (** thread blocks in the grid *)
  block_dim : dim3;  (** block shape; [x*y*z = threads_per_block] *)
  grid_dim : dim3;  (** grid shape; [x*y*z = blocks] *)
}

val make : warp_size:int -> threads_per_block:int -> blocks:int -> t
(** [make ~warp_size ~threads_per_block ~blocks] builds a 1-D layout.
    @raise Invalid_argument if any dimension is non-positive. *)

val make_dims : warp_size:int -> block_dim:dim3 -> grid_dim:dim3 -> t
(** A 2-D or 3-D grid.  Threads are flattened in the CUDA order
    (x fastest, then y, then z), so thread (x, y, z) of a block has
    in-block index [x + y*bx + z*bx*by] — which also determines its
    warp.  @raise Invalid_argument on non-positive components. *)

val dim1 : int -> dim3
(** [{x = n; y = 1; z = 1}] *)

val one_dimensional : t -> bool
(** Block and grid both extend along x alone, so [%tid.x] and
    [%ctaid.x] name every thread: what {!make} builds. *)

(** {1 Component accessors} *)

val thread_coords : t -> int -> dim3
(** [thread_coords t tid]: the (x, y, z) position within its block of a
    flat thread id. *)

val block_coords : t -> int -> dim3
(** Grid coordinates of a flat block index. *)

val total_threads : t -> int

val warps_per_block : t -> int
(** Number of warps per block, counting a trailing partial warp. *)

val total_warps : t -> int

val block_of_tid : t -> int -> int
(** Block index owning a thread id. *)

val warp_of_tid : t -> int -> int
(** Globally-unique warp index owning a thread id. *)

val lane_of_tid : t -> int -> int
(** Position of the thread within its warp, in [0, warp_size). *)

val tid_of_warp_lane : t -> warp:int -> lane:int -> int

val block_of_warp : t -> int -> int
(** Block owning a (global) warp index. *)

val first_tid_of_block : t -> int -> int

val threads_in_warp : t -> int -> int
(** Number of live threads in a warp: [warp_size] except possibly for the
    last warp of each block when [threads_per_block] is not a multiple of
    [warp_size]. *)

val full_mask : t -> warp:int -> int
(** Bitmask with one bit set per live thread of [warp]. *)

val pp : Format.formatter -> t -> unit
