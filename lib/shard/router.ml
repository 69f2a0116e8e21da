type t = { shards : int; range_log2 : int }

let make ?(range_log2 = 6) ~shards () =
  if shards < 1 then invalid_arg "Router.make: shards must be >= 1";
  if range_log2 < 0 then invalid_arg "Router.make: range_log2 must be >= 0";
  { shards; range_log2 }

(* Splitmix-style avalanche (same shape as Fault.Plan's): the cell
   population of a real kernel is dense ranges at arbitrary bases, so a
   plain modulus would alias entire data structures onto one shard.
   Constants truncated to native-int literals; we need diffusion and
   determinism, not cryptographic quality. *)
let mix z =
  let z = z land max_int in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb land max_int in
  z lxor (z lsr 31)

let owner t ~space ~region ~index =
  if t.shards = 1 then 0
  else
    let sc = Barracuda.Wire.space_code space in
    let range = index lsr t.range_log2 in
    mix ((range * 4 + sc) lxor (region * 0x9e3779b9)) mod t.shards

let owns t ~shard space region index = owner t ~space ~region ~index = shard
