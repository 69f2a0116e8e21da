(* 256-byte pages, created on a page's first write.  Pages are small on
   purpose: every lane owns a [.local] memory, and a page too large for
   the minor heap would make each lane's first local store a major-heap
   allocation. *)
let page_bits = 8
let page_size = 1 lsl page_bits

type page = { data : Bytes.t; written : Bytes.t (* 1 = byte ever written *) }

module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

type t = {
  pages : page Pages.t; (* addr asr page_bits -> page *)
  mutable last_key : int; (* one-entry cache of the last page found *)
  mutable last : page;
  mutable footprint : int;
}

let no_page = { data = Bytes.empty; written = Bytes.empty }

let create () =
  { pages = Pages.create 8; last_key = min_int; last = no_page; footprint = 0 }

(* The page holding [addr], or [no_page]. *)
let find t addr =
  let key = addr asr page_bits in
  if key = t.last_key then t.last
  else
    match Pages.find t.pages key with
    | p ->
        t.last_key <- key;
        t.last <- p;
        p
    | exception Not_found -> no_page

let rec read t ~addr ~width =
  let off = addr land (page_size - 1) in
  match width with
  | (1 | 2 | 4 | 8) when off + width <= page_size -> (
      let p = find t addr in
      if p == no_page then 0L
      else
        match width with
        | 1 -> Int64.of_int (Bytes.get_uint8 p.data off)
        | 2 -> Int64.of_int (Bytes.get_uint16_le p.data off)
        | 4 -> Int64.of_int (Int32.to_int (Bytes.get_int32_le p.data off) land 0xFFFF_FFFF)
        | _ -> Bytes.get_int64_le p.data off)
  | _ ->
      (* straddles a page boundary: byte by byte, little-endian *)
      let v = ref 0L in
      for i = width - 1 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (read t ~addr:(addr + i) ~width:1)
      done;
      !v

let write t ~addr ~width v =
  for i = 0 to width - 1 do
    let a = addr + i in
    if find t a == no_page then
      Pages.replace t.pages (a asr page_bits)
        { data = Bytes.make page_size '\000'; written = Bytes.make page_size '\000' };
    let p = find t a and off = a land (page_size - 1) in
    Bytes.set_uint8 p.data off (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF);
    if Bytes.get_uint8 p.written off = 0 then begin
      Bytes.set_uint8 p.written off 1;
      t.footprint <- t.footprint + 1
    end
  done

let footprint t = t.footprint
