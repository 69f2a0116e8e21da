module Wire = Barracuda.Wire

exception Framing of string

let cell_size = Wire.cell_size
let max_cell_size = Wire.max_cell_size

type reader = {
  buf : Bytes.t;
  mutable start : int;  (* first pending byte *)
  mutable avail : int;  (* pending bytes from [start] *)
}

(* Four cells of room: a chunk is copied in a slice at a time and the
   cells completed by each slice are delivered before the next, so the
   pending partial cell (under one cell) always leaves room for more
   and the buffer never grows, whatever the chunk's size. *)
let reader () = { buf = Bytes.create (4 * max_cell_size); start = 0; avail = 0 }
let pending r = r.avail

(* Deliver every complete cell pending in [r], in order. *)
let deliver r k =
  let delivered = ref 0 in
  let continue = ref true in
  while !continue do
    if r.avail < Wire.size + 2 then continue := false
    else begin
      let at = r.start + Wire.size in
      let n = Bytes.get_uint16_le r.buf at in
      if n > Wire.max_lanes then
        raise
          (Framing
             (Printf.sprintf "impossible value count %d (max %d)" n
                Wire.max_lanes));
      let cell = cell_size ~nvalues:n in
      if r.avail < cell then continue := false
      else begin
        k r.buf ~pos:r.start;
        r.start <- r.start + cell;
        r.avail <- r.avail - cell;
        incr delivered
      end
    end
  done;
  !delivered

let feed r ?(pos = 0) ?len chunk k =
  let len = match len with Some l -> l | None -> String.length chunk - pos in
  if pos < 0 || len < 0 || pos + len > String.length chunk then
    invalid_arg "Stream.feed";
  let cap = Bytes.length r.buf in
  let delivered = ref 0 in
  let from = ref pos and left = ref len in
  while !left > 0 do
    if r.start + r.avail = cap then begin
      Bytes.blit r.buf r.start r.buf 0 r.avail;
      r.start <- 0
    end;
    let n = min !left (cap - r.start - r.avail) in
    Bytes.blit_string chunk !from r.buf (r.start + r.avail) n;
    r.avail <- r.avail + n;
    from := !from + n;
    left := !left - n;
    delivered := !delivered + deliver r k
  done;
  if r.avail = 0 then r.start <- 0;
  !delivered

(* ---- recorded stream files --------------------------------------- *)

let header_size = 16
let magic = "BAWS"
let format_version = 1

let encode_header (l : Vclock.Layout.t) =
  let b = Buffer.create header_size in
  Buffer.add_string b magic;
  Buffer.add_uint16_le b format_version;
  Buffer.add_uint16_le b l.Vclock.Layout.warp_size;
  Buffer.add_int32_le b (Int32.of_int l.Vclock.Layout.threads_per_block);
  Buffer.add_int32_le b (Int32.of_int l.Vclock.Layout.blocks);
  Buffer.contents b

let decode_header s =
  if String.length s < header_size then raise (Framing "truncated header");
  if String.sub s 0 4 <> magic then raise (Framing "bad stream magic");
  let u16 at = Char.code s.[at] lor (Char.code s.[at + 1] lsl 8) in
  let u32 at = u16 at lor (u16 (at + 2) lsl 16) in
  let v = u16 4 in
  if v <> format_version then
    raise (Framing (Printf.sprintf "unsupported stream version %d" v));
  let warp_size = u16 6 in
  let threads_per_block = u32 8 in
  let blocks = u32 12 in
  if warp_size <= 0 || threads_per_block <= 0 || blocks <= 0 then
    raise (Framing "bad layout in stream header");
  if not (Vclock.Layout.within_max_threads ~threads_per_block ~blocks) then
    raise
      (Framing
         (Printf.sprintf
            "stream header layout: %d blocks of %d threads exceed the cap of \
             %d threads"
            blocks threads_per_block Vclock.Layout.max_threads));
  Vclock.Layout.make ~warp_size ~threads_per_block ~blocks

let write_file path ~layout cells =
  if not (Vclock.Layout.one_dimensional layout) then
    invalid_arg
      "Stream.write_file: a stream header states only a 1-D layout";
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (encode_header layout);
      Buffer.output_buffer oc cells)

(* The header, then the payload, each read once: no copy of the
   stream. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let layout =
        decode_header (really_input_string ic (min len header_size))
      in
      (layout, really_input_string ic (len - header_size)))
