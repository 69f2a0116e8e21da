(** Monotonic time source for spans and benchmarks.

    Backed by [clock_gettime(CLOCK_MONOTONIC)]: durations are immune
    to wall-clock adjustments.  Absolute values are meaningless except
    as differences. *)

external now_ns : unit -> (int64[@unboxed])
  = "barracuda_monotonic_now_ns_byte" "barracuda_monotonic_now_ns"
[@@noalloc]
(** Nanoseconds since an arbitrary fixed origin, read without
    allocating in native code. *)

val elapsed_ns : since:int64 -> int64
(** [elapsed_ns ~since:t0] is [now_ns () - t0]. *)

val ns_to_ms : int64 -> float
val ns_to_s : int64 -> float
