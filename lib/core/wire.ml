(* 280-byte record wire format — the paper's 272-byte layout (§4.2,
   Figure 6) extended with an 8-byte integrity prefix: magic, format
   version, a 16-bit rotate-XOR checksum, and a per-producer sequence
   number.
   Shared between the runtime transport and the detector's in-place
   [feed_record] path, as the head of a cell.

   All multi-byte fields are read and written through
   [set_uint16_le]/[get_uint16_le] compositions: those primitives take
   and return immediate [int]s, so no boxed [Int32.t]/[Int64.t]
   temporary is allocated on the hot path (the [set_int32_le] family
   boxes its argument unless the optimizer happens to unbox it). *)

let magic = 0xBA
let version = 1
let header_size = 24
let size = 280 (* 24-byte header + 32 * 8-byte lane addresses *)
let max_lanes = 32

(* Opcodes: byte 2 *)
let op_load = 1
let op_store = 2
let op_atomic_first = 3 (* 3..12 = A_add .. A_dec *)
let op_atomic_last = 12
let op_branch_if = 20
let op_branch_else = 21
let op_branch_fi = 22
let op_barrier = 23
let op_barrier_divergence = 24

let is_access opc = opc >= op_load && opc <= op_atomic_last

let atomic_code = function
  | Ptx.Ast.A_add -> 0
  | Ptx.Ast.A_exch -> 1
  | Ptx.Ast.A_cas -> 2
  | Ptx.Ast.A_min -> 3
  | Ptx.Ast.A_max -> 4
  | Ptx.Ast.A_and -> 5
  | Ptx.Ast.A_or -> 6
  | Ptx.Ast.A_xor -> 7
  | Ptx.Ast.A_inc -> 8
  | Ptx.Ast.A_dec -> 9

let opcode_of_kind = function
  | Simt.Event.Load -> op_load
  | Simt.Event.Store -> op_store
  | Simt.Event.Atomic op -> op_atomic_first + atomic_code op

let space_code = function
  | Ptx.Ast.Global -> 0
  | Ptx.Ast.Shared -> 1
  | Ptx.Ast.Local -> 2
  | Ptx.Ast.Param -> 3

let space_of_code = function
  | 0 -> Ptx.Ast.Global
  | 1 -> Ptx.Ast.Shared
  | 2 -> Ptx.Ast.Local
  | _ -> Ptx.Ast.Param

(* Allocation-free scalar codecs over [Bytes.t]. *)

let set_u32 b pos v =
  Bytes.set_uint16_le b pos (v land 0xFFFF);
  Bytes.set_uint16_le b (pos + 2) ((v lsr 16) land 0xFFFF)

let set_u64 b pos v =
  Bytes.set_uint16_le b pos (v land 0xFFFF);
  Bytes.set_uint16_le b (pos + 2) ((v lsr 16) land 0xFFFF);
  Bytes.set_uint16_le b (pos + 4) ((v lsr 32) land 0xFFFF);
  Bytes.set_uint16_le b (pos + 6) ((v asr 48) land 0xFFFF)

let get_u32 b pos =
  Bytes.get_uint16_le b pos lor (Bytes.get_uint16_le b (pos + 2) lsl 16)

(* 32-bit field read back as a sign-extended OCaml int (warp and insn
   store -1 as 0xFFFFFFFF). *)
let get_i32 b pos = (get_u32 b pos lxor 0x80000000) - 0x80000000

let get_i64 b pos =
  Bytes.get_uint16_le b pos
  lor (Bytes.get_uint16_le b (pos + 2) lsl 16)
  lor (Bytes.get_uint16_le b (pos + 4) lsl 32)
  lor (Bytes.get_uint16_le b (pos + 6) lsl 48)

(* Cells: the record, a u16 count [n] and [n] little-endian 64-bit lane
   values, outside the checksum. *)
let cell_size ~nvalues = size + 2 + (8 * nvalues)
let max_cell_size = cell_size ~nvalues:max_lanes

let write_values b ~pos values =
  let n = Array.length values in
  if n > max_lanes then invalid_arg "Wire.write_values: too many values";
  Bytes.set_uint16_le b (pos + size) n;
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (pos + size + 2 + (8 * i)) values.(i)
  done

let value_count b ~pos =
  let at = pos + size and len = Bytes.length b in
  if at = len then 0
  else if at + 2 > len then -1
  else
    let n = Bytes.get_uint16_le b at in
    if n > max_lanes || at + 2 + (8 * n) > len then -1 else n

let copy_cell src ~pos dst ~dst_pos =
  let n = value_count src ~pos in
  Bytes.blit src pos dst dst_pos (if n > 0 then cell_size ~nvalues:n else size);
  if n <= 0 then
    Bytes.set_uint16_le dst (dst_pos + size) (if n = 0 then 0 else 0xFFFF)

(* Writers: each writes the full 24-byte header deterministically (ring
   slots are reused, so unset header fields must be cleared, not
   inherited from the previous occupant).  Lane slots beyond what a
   writer sets may hold stale bytes from the slot's previous record;
   readers only consult lanes the mask/opcode makes meaningful, and the
   checksum covers only those. *)

let write_header b ~pos ~opcode ~width ~aux ~mask ~warp ~insn =
  Bytes.set_uint8 b pos magic;
  Bytes.set_uint8 b (pos + 1) version;
  Bytes.set_uint8 b (pos + 2) opcode;
  Bytes.set_uint8 b (pos + 3) width;
  Bytes.set_uint16_le b (pos + 4) (aux land 0xFFFF);
  Bytes.set_uint16_le b (pos + 6) 0;
  set_u32 b (pos + 8) mask;
  set_u32 b (pos + 12) warp;
  set_u32 b (pos + 16) insn;
  set_u32 b (pos + 20) 0

let write_access b ~pos ~kind ~space ~width ~mask ~warp ~insn ~addrs =
  write_header b ~pos ~opcode:(opcode_of_kind kind) ~width
    ~aux:(space_code space) ~mask ~warp ~insn;
  let n = Array.length addrs in
  let n = if n > max_lanes then max_lanes else n in
  for i = 0 to n - 1 do
    set_u64 b (pos + header_size + (8 * i)) (Array.unsafe_get addrs i)
  done

let write_branch_if b ~pos ~mask ~warp ~insn ~then_mask ~else_mask =
  write_header b ~pos ~opcode:op_branch_if ~width:0 ~aux:0 ~mask ~warp ~insn;
  set_u64 b (pos + header_size) then_mask;
  set_u64 b (pos + header_size + 8) else_mask

let write_branch_else b ~pos ~warp ~insn ~mask =
  write_header b ~pos ~opcode:op_branch_else ~width:0 ~aux:0 ~mask ~warp ~insn

let write_branch_fi b ~pos ~warp ~insn ~mask =
  write_header b ~pos ~opcode:op_branch_fi ~width:0 ~aux:0 ~mask ~warp ~insn

let write_barrier b ~pos ~warp ~insn ~mask ~block =
  write_header b ~pos ~opcode:op_barrier ~width:0 ~aux:(block land 0xFFFF)
    ~mask ~warp ~insn

let write_barrier_divergence b ~pos ~warp ~insn ~mask ~expected =
  write_header b ~pos ~opcode:op_barrier_divergence ~width:0 ~aux:expected
    ~mask ~warp ~insn

(* Integrity: a rotate-XOR checksum over the covered region — the
   header (minus the checksum field itself), a length prefix, and
   exactly the payload bytes the opcode + mask make meaningful.  Stale
   lane bytes beyond the producer's payload are uncovered by design:
   they never influence detection, so a flip there is harmless and a
   checksum over them would force writers to clear 256 bytes per slot.

   The stream is consumed as 16-bit chunks; each chunk is rotated left
   within a 62-bit accumulator by a schedule that advances 16 per
   chunk (mod 62) and XORed in, then the accumulator is folded to 16
   bits.  Every input bit maps to exactly one accumulator bit
   (rotation is injective on a 16-bit chunk) and every accumulator bit
   folds into exactly one checksum bit, so any single-bit flip in the
   covered region flips exactly one checksum bit — the detection
   guarantee is structural, not probabilistic.  Rotation makes
   repeated or swapped chunks contribute differently (the schedule
   only cycles every 31 chunks).  The fold is tail-recursive over
   immediates — no tuple or ref allocation on the hot path — and takes
   three chunks per step (below), which is what keeps [seal] + [check]
   cheap enough to run on every record of the hot path. *)

let top_bit_index m =
  let a = if m land 0x7FFF0000 <> 0 then 16 else 0 in
  let m = m lsr a in
  let b = if m land 0xFF00 <> 0 then 8 else 0 in
  let m = m lsr b in
  let c = if m land 0xF0 <> 0 then 4 else 0 in
  let m = m lsr c in
  let d = if m land 0xC <> 0 then 2 else 0 in
  let m = m lsr d in
  let e = if m land 0x2 <> 0 then 1 else 0 in
  a + b + c + d + e

let covered_bytes b ~pos =
  let opc = Bytes.get_uint8 b (pos + 2) in
  if is_access opc then begin
    let mask = get_u32 b (pos + 8) land 0xFFFFFFFF in
    if mask = 0 then 0
    else
      let lanes = top_bit_index mask + 1 in
      let lanes = if lanes > max_lanes then max_lanes else lanes in
      8 * lanes
  end
  else if opc = op_branch_if then 16
  else 0

(* Rotate left by [r] (0 <= r <= 61) within the 62-bit accumulator
   ([max_int] is 2^62 - 1, so a native int holds 62 value bits): bits
   shifted past bit 61 wrap to the bottom. *)
let rotl62 x r = ((x lsl r) land max_int) lor (x lsr (62 - r))

(* Unchecked native-endian 16-bit load (the primitive behind
   [Bytes.get_uint16_*]): [checksum_at] bounds-checks the whole
   covered region once instead of every chunk, and native byte order
   is fine because a record is sealed and verified by the same
   process — the checksum never leaves the machine that computed
   it. *)
external unsafe_get16 : bytes -> int -> int = "%caml_bytes_get16u"
external unsafe_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Rotation is linear over XOR and the schedule advances 16 per chunk,
   so rotating [c0 lor c1 lsl 16 lor c2 lsl 32] by [r] is the three
   one-chunk steps at [r], [r + 16] and [r + 32] (mod 62), and the next
   step starts at [r + 48].  The 48 bits are one 64-bit load, masked,
   where little-endian order makes it the three native 16-bit chunks
   and 8 bytes remain in the buffer; otherwise three 16-bit loads. *)
let little_endian = not Sys.big_endian

let[@inline] chunks3 b i =
  if little_endian && i + 8 <= Bytes.length b then
    Int64.to_int (unsafe_get64 b i) land 0xFFFF_FFFF_FFFF
  else
    unsafe_get16 b i
    lor (unsafe_get16 b (i + 2) lsl 16)
    lor (unsafe_get16 b (i + 4) lsl 32)

(* The 0-2 chunk tail, one chunk per step. *)
let rec sum_tail b i stop r acc =
  if i >= stop then acc
  else
    sum_tail b (i + 2) stop
      (if r >= 46 then r - 46 else r + 16)
      (acc lxor rotl62 (unsafe_get16 b i) r)

let rec sum_range b i stop r acc =
  if i + 6 > stop then sum_tail b i stop r acc
  else
    sum_range b (i + 6) stop
      (if r >= 14 then r - 14 else r + 48)
      (acc lxor rotl62 (chunks3 b i) r)

let checksum_at b ~pos =
  let n = covered_bytes b ~pos in
  if pos < 0 || pos + header_size + n > Bytes.length b then
    invalid_arg "Wire.checksum_at: record exceeds buffer";
  (* Avalanched length prefix first: a flip that changes the covered
     length (an opcode bit, the top mask bit) removes or adds whole
     payload chunks, whose XOR could cancel a one-bit header change —
     scattering the length across the accumulator makes such a
     cancellation a ~2^-16 accident instead of something structured
     payloads hit.  All covered segments have even length: 6 header
     bytes, 16 more header bytes, and a payload that is a multiple
     of 8. *)
  let h = n * 0x9E3779B1 in
  let acc = (h lxor (h lsr 17)) land max_int in
  let acc = sum_range b pos (pos + 6) 3 acc in
  let acc = sum_range b (pos + 8) (pos + header_size) 23 acc in
  let acc = sum_range b (pos + header_size) (pos + header_size + n) 9 acc in
  let acc = acc lxor (acc lsr 32) in
  let acc = acc lxor (acc lsr 16) in
  acc land 0xFFFF

let seal b ~pos ~seq =
  set_u32 b (pos + 20) (seq land 0xFFFFFFFF);
  Bytes.set_uint16_le b (pos + 6) (checksum_at b ~pos)

type integrity = Intact | Bad_magic | Bad_version | Bad_checksum

let check b ~pos =
  if Bytes.get_uint8 b pos <> magic then Bad_magic
  else if Bytes.get_uint8 b (pos + 1) <> version then Bad_version
  else if Bytes.get_uint16_le b (pos + 6) <> checksum_at b ~pos then
    Bad_checksum
  else Intact

module View = struct
  let opcode b ~pos = Bytes.get_uint8 b (pos + 2)
  let width b ~pos = Bytes.get_uint8 b (pos + 3)
  let aux b ~pos = Bytes.get_uint16_le b (pos + 4)
  let mask b ~pos = get_u32 b (pos + 8)
  let warp b ~pos = get_i32 b (pos + 12)
  let insn b ~pos = get_i32 b (pos + 16)
  let seq b ~pos = get_u32 b (pos + 20) land 0xFFFFFFFF
  let addr b ~pos ~lane = get_i64 b (pos + header_size + (8 * lane))
  let then_mask b ~pos = get_i64 b (pos + header_size)
  let else_mask b ~pos = get_i64 b (pos + header_size + 8)

  let addrs b ~pos ~mask dst =
    for l = 0 to max_lanes - 1 do
      if mask land (1 lsl l) <> 0 then
        dst.(l) <-
          Int64.to_int (Bytes.get_int64_le b (pos + header_size + (8 * l)))
    done

  let values b ~pos ~nvalues ~mask ~lo ~hi =
    for l = 0 to max_lanes - 1 do
      if mask land (1 lsl l) <> 0 then
        let v =
          if l < nvalues then Bytes.get_int64_le b (pos + size + 2 + (8 * l))
          else 0L
        in
        lo.(l) <- Int64.to_int v land 0xFFFFFFFF;
        hi.(l) <- Int64.to_int (Int64.shift_right_logical v 32)
    done
end
