type op =
  | Access of {
      kind : Simt.Event.access_kind;
      space : Ptx.Ast.space;
      width : int;
    }
  | Branch_if of { then_mask : int; else_mask : int }
  | Branch_else
  | Branch_fi
  | Barrier of { block : int }
  | Barrier_divergence of { expected : int }

type t = {
  warp : int;
  insn : int;
  op : op;
  mask : int;
  addrs : int array;
  values : int64 array;
}

let wire_size = 280 (* 24-byte header + 32 * 8-byte addresses *)
let max_lanes = 32

let of_event ~warp_size = function
  | Simt.Event.Access a ->
      Some
        {
          warp = a.Simt.Event.warp;
          insn = a.Simt.Event.insn;
          op =
            Access
              {
                kind = a.Simt.Event.kind;
                space = a.Simt.Event.space;
                width = a.Simt.Event.width;
              };
          mask = a.Simt.Event.mask;
          addrs = a.Simt.Event.addrs;
          values = a.Simt.Event.values;
        }
  | Simt.Event.Branch_if { warp; insn; then_mask; else_mask } ->
      Some
        {
          warp;
          insn;
          op = Branch_if { then_mask; else_mask };
          mask = then_mask lor else_mask;
          addrs = Array.make warp_size 0;
          values = [||];
        }
  | Simt.Event.Branch_else { warp; mask } ->
      Some
        {
          warp;
          insn = -1;
          op = Branch_else;
          mask;
          addrs = Array.make warp_size 0;
          values = [||];
        }
  | Simt.Event.Branch_fi { warp; mask } ->
      Some
        {
          warp;
          insn = -1;
          op = Branch_fi;
          mask;
          addrs = Array.make warp_size 0;
          values = [||];
        }
  | Simt.Event.Barrier { block } ->
      Some
        {
          warp = -1;
          insn = -1;
          op = Barrier { block };
          mask = 0;
          addrs = Array.make warp_size 0;
          values = [||];
        }
  | Simt.Event.Barrier_divergence { warp; insn; mask; expected } ->
      Some
        {
          warp;
          insn;
          op = Barrier_divergence { expected };
          mask;
          addrs = Array.make warp_size 0;
          values = [||];
        }
  | Simt.Event.Fence _ | Simt.Event.Kernel_done -> None

let to_event t =
  match t.op with
  | Access { kind; space; width } ->
      Simt.Event.Access
        {
          warp = t.warp;
          insn = t.insn;
          kind;
          space;
          mask = t.mask;
          addrs = t.addrs;
          values =
            (if Array.length t.values > 0 then t.values
             else Array.make (Array.length t.addrs) 0L);
          width;
        }
  | Branch_if { then_mask; else_mask } ->
      Simt.Event.Branch_if { warp = t.warp; insn = t.insn; then_mask; else_mask }
  | Branch_else -> Simt.Event.Branch_else { warp = t.warp; mask = t.mask }
  | Branch_fi -> Simt.Event.Branch_fi { warp = t.warp; mask = t.mask }
  | Barrier { block } -> Simt.Event.Barrier { block }
  | Barrier_divergence { expected } ->
      Simt.Event.Barrier_divergence
        { warp = t.warp; insn = t.insn; mask = t.mask; expected }

module Wire = Barracuda.Wire

(* Serialization delegates to the shared {!Barracuda.Wire} codec; the
   wire image is byte-identical to what the session core's in-place
   producers write into sink staging buffers and ring slots. *)

(* Decoding a wire image into a [t] is the fallback path: the sinks
   feed records to the detector in place ([Detector.feed_record])
   without materializing a [t].  Count decodes so a caller regressing
   onto this path shows up in telemetry. *)
let m_fallback =
  Telemetry.Registry.counter
    ~help:"Records decoded into events instead of being fed in place"
    Telemetry.Registry.default
    "barracuda_pipeline_records_fallback_decode_total"

let to_bytes t =
  let b = Bytes.make wire_size '\000' in
  (match t.op with
  | Access { kind; space; width } ->
      Wire.write_access b ~pos:0 ~kind ~space ~width ~mask:t.mask ~warp:t.warp
        ~insn:t.insn ~addrs:t.addrs
  | Branch_if { then_mask; else_mask } ->
      Wire.write_branch_if b ~pos:0 ~mask:t.mask ~warp:t.warp ~insn:t.insn
        ~then_mask ~else_mask
  | Branch_else ->
      Wire.write_branch_else b ~pos:0 ~warp:t.warp ~insn:t.insn ~mask:t.mask
  | Branch_fi ->
      Wire.write_branch_fi b ~pos:0 ~warp:t.warp ~insn:t.insn ~mask:t.mask
  | Barrier { block } ->
      Wire.write_barrier b ~pos:0 ~warp:t.warp ~insn:t.insn ~mask:t.mask ~block
  | Barrier_divergence { expected } ->
      Wire.write_barrier_divergence b ~pos:0 ~warp:t.warp ~insn:t.insn
        ~mask:t.mask ~expected);
  Wire.seal b ~pos:0 ~seq:0;
  b

module View = Wire.View

let of_view ?(values = [||]) ~warp_size b ~pos =
  let opc = View.opcode b ~pos in
  let mask = View.mask b ~pos in
  let warp = View.warp b ~pos in
  let insn = View.insn b ~pos in
  let op =
    if Wire.is_access opc then
      Access
        {
          kind = Wire.kind_of_opcode opc;
          space = Wire.space_of_code (View.aux b ~pos);
          width = View.width b ~pos;
        }
    else if opc = Wire.op_branch_if then
      Branch_if
        { then_mask = View.then_mask b ~pos; else_mask = View.else_mask b ~pos }
    else if opc = Wire.op_branch_else then Branch_else
    else if opc = Wire.op_branch_fi then Branch_fi
    else if opc = Wire.op_barrier then Barrier { block = View.aux b ~pos }
    else if opc = Wire.op_barrier_divergence then
      Barrier_divergence { expected = View.aux b ~pos }
    else invalid_arg (Printf.sprintf "Record.of_bytes: bad opcode %d" opc)
  in
  let addrs =
    match op with
    | Access _ ->
        Array.init warp_size (fun i ->
            if i < max_lanes then View.addr b ~pos ~lane:i else 0)
    | _ -> Array.make warp_size 0
  in
  { warp; insn; op; mask; addrs; values }

let of_bytes ?values ~warp_size b =
  if Bytes.length b <> wire_size then
    invalid_arg "Record.of_bytes: wrong wire size";
  if Bytes.get_uint8 b 0 <> Wire.magic then
    invalid_arg "Record.of_bytes: bad magic (not a barracuda wire record)";
  if Bytes.get_uint8 b 1 <> Wire.version then
    invalid_arg
      (Printf.sprintf
         "Record.of_bytes: wire format version %d not supported (this build \
          reads v%d)"
         (Bytes.get_uint8 b 1) Wire.version);
  Telemetry.Metric.counter_incr m_fallback;
  of_view ?values ~warp_size b ~pos:0

let pp ppf t =
  Format.fprintf ppf "record{warp=%d insn=%d mask=%#x %s}" t.warp t.insn t.mask
    (match t.op with
    | Access _ -> "access"
    | Branch_if _ -> "if"
    | Branch_else -> "else"
    | Branch_fi -> "fi"
    | Barrier _ -> "bar"
    | Barrier_divergence _ -> "bardiv")
