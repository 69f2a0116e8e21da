type dim3 = { x : int; y : int; z : int }

type t = {
  warp_size : int;
  threads_per_block : int;
  blocks : int;
  block_dim : dim3;
  grid_dim : dim3;
}

let dim1 n = { x = n; y = 1; z = 1 }

let one_dimensional t =
  t.block_dim.y = 1 && t.block_dim.z = 1 && t.grid_dim.y = 1
  && t.grid_dim.z = 1

let make ~warp_size ~threads_per_block ~blocks =
  if warp_size <= 0 then invalid_arg "Layout.make: warp_size <= 0";
  if threads_per_block <= 0 then
    invalid_arg "Layout.make: threads_per_block <= 0";
  if blocks <= 0 then invalid_arg "Layout.make: blocks <= 0";
  {
    warp_size;
    threads_per_block;
    blocks;
    block_dim = dim1 threads_per_block;
    grid_dim = dim1 blocks;
  }

let make_dims ~warp_size ~block_dim ~grid_dim =
  if warp_size <= 0 then invalid_arg "Layout.make_dims: warp_size <= 0";
  let check name (d : dim3) =
    if d.x <= 0 || d.y <= 0 || d.z <= 0 then
      invalid_arg (Printf.sprintf "Layout.make_dims: non-positive %s" name)
  in
  check "block_dim" block_dim;
  check "grid_dim" grid_dim;
  {
    warp_size;
    threads_per_block = block_dim.x * block_dim.y * block_dim.z;
    blocks = grid_dim.x * grid_dim.y * grid_dim.z;
    block_dim;
    grid_dim;
  }

let coords_of (d : dim3) index =
  {
    x = index mod d.x;
    y = index / d.x mod d.y;
    z = index / (d.x * d.y);
  }

let total_threads t = t.threads_per_block * t.blocks

let warps_per_block t =
  (t.threads_per_block + t.warp_size - 1) / t.warp_size

let total_warps t = warps_per_block t * t.blocks
let block_of_tid t tid = tid / t.threads_per_block

let warp_of_tid t tid =
  let b = block_of_tid t tid in
  let local = tid - (b * t.threads_per_block) in
  (b * warps_per_block t) + (local / t.warp_size)

let lane_of_tid t tid =
  let local = tid mod t.threads_per_block in
  local mod t.warp_size

let block_of_warp t w = w / warps_per_block t

let tid_of_warp_lane t ~warp ~lane =
  let b = block_of_warp t warp in
  let warp_in_block = warp - (b * warps_per_block t) in
  (b * t.threads_per_block) + (warp_in_block * t.warp_size) + lane

let first_tid_of_block t b = b * t.threads_per_block

let threads_in_warp t w =
  let b = block_of_warp t w in
  let warp_in_block = w - (b * warps_per_block t) in
  let base = warp_in_block * t.warp_size in
  min t.warp_size (t.threads_per_block - base)

let full_mask t ~warp =
  let n = threads_in_warp t warp in
  if n >= 63 then invalid_arg "Layout.full_mask: warp_size too large"
  else (1 lsl n) - 1

let thread_coords t tid = coords_of t.block_dim (tid mod t.threads_per_block)
let block_coords t b = coords_of t.grid_dim b

let pp ppf t =
  Format.fprintf ppf "{warp_size=%d; threads_per_block=%d; blocks=%d}"
    t.warp_size t.threads_per_block t.blocks
