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

(* The page holding [addr], created on first use. *)
let page t addr =
  let p = find t addr in
  if p != no_page then p
  else begin
    let p =
      { data = Bytes.make page_size '\000'; written = Bytes.make page_size '\000' }
    in
    let key = addr asr page_bits in
    Pages.replace t.pages key p;
    t.last_key <- key;
    t.last <- p;
    p
  end

let mark_written t p ~off ~width =
  for i = off to off + width - 1 do
    if Bytes.unsafe_get p.written i = '\000' then begin
      Bytes.unsafe_set p.written i '\001';
      t.footprint <- t.footprint + 1
    end
  done

(* The one fast path: an access of 1, 2, 4 or 8 bytes inside one page
   is one page lookup and one load or store.  Anything else (an access
   that straddles a page boundary) goes byte by byte. *)
let in_page ~off ~width =
  (width = 1 || width = 2 || width = 4 || width = 8) && off + width <= page_size

let load t ~addr ~width b slot =
  let off = addr land (page_size - 1) in
  if in_page ~off ~width then begin
    let p = find t addr in
    if p == no_page then Bytes.set_int64_le b slot 0L
    else
      match width with
      | 1 -> Bytes.set_int64_le b slot (Int64.of_int (Bytes.get_uint8 p.data off))
      | 2 -> Bytes.set_int64_le b slot (Int64.of_int (Bytes.get_uint16_le p.data off))
      | 4 ->
          Bytes.set_int64_le b slot
            (Int64.logand (Int64.of_int32 (Bytes.get_int32_le p.data off)) 0xFFFF_FFFFL)
      | _ -> Bytes.set_int64_le b slot (Bytes.get_int64_le p.data off)
  end
  else begin
    Bytes.set_int64_le b slot 0L;
    for i = 0 to width - 1 do
      let p = find t (addr + i) in
      if p != no_page then
        Bytes.set_uint8 b (slot + i)
          (Bytes.get_uint8 p.data ((addr + i) land (page_size - 1)))
    done
  end

let store t ~addr ~width b slot =
  let off = addr land (page_size - 1) in
  if in_page ~off ~width then begin
    let p = page t addr in
    (match width with
    | 1 -> Bytes.set_uint8 p.data off (Bytes.get_uint8 b slot)
    | 2 -> Bytes.set_uint16_le p.data off (Bytes.get_uint16_le b slot)
    | 4 -> Bytes.set_int32_le p.data off (Bytes.get_int32_le b slot)
    | _ -> Bytes.set_int64_le p.data off (Bytes.get_int64_le b slot));
    mark_written t p ~off ~width
  end
  else
    for i = 0 to width - 1 do
      let p = page t (addr + i) and off = (addr + i) land (page_size - 1) in
      Bytes.set_uint8 p.data off (Bytes.get_uint8 b (slot + i));
      mark_written t p ~off ~width:1
    done

let read t ~addr ~width =
  let b = Bytes.create 8 in
  load t ~addr ~width b 0;
  Bytes.get_int64_le b 0

let write t ~addr ~width v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  store t ~addr ~width b 0

let footprint t = t.footprint
