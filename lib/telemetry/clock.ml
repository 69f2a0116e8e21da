external now_ns : unit -> (int64[@unboxed])
  = "barracuda_monotonic_now_ns_byte" "barracuda_monotonic_now_ns"
[@@noalloc]

let elapsed_ns ~since = Int64.sub (now_ns ()) since
let ns_to_ms ns = Int64.to_float ns /. 1e6
let ns_to_s ns = Int64.to_float ns /. 1e9
