exception Parse_error of { line : int; message : string }

let header_of layout =
  Printf.sprintf "# barracuda-trace v1 warp_size=%d threads_per_block=%d blocks=%d"
    layout.Vclock.Layout.warp_size layout.Vclock.Layout.threads_per_block
    layout.Vclock.Layout.blocks

let loc_to_string (l : Loc.t) =
  match l.Loc.space with
  | Ptx.Ast.Global -> Printf.sprintf "g:0x%x" l.Loc.addr
  | Ptx.Ast.Shared -> Printf.sprintf "s%d:0x%x" l.Loc.region l.Loc.addr
  | Ptx.Ast.Local | Ptx.Ast.Param -> assert false

let scope_to_string = function Op.Block -> "blk" | Op.Global_scope -> "glb"

let op_to_string = function
  | Op.Rd { tid; loc } -> Printf.sprintf "rd t%d %s" tid (loc_to_string loc)
  | Op.Wr { tid; loc; value } ->
      Printf.sprintf "wr t%d %s =%Ld" tid (loc_to_string loc) value
  | Op.Atm { tid; loc; value } ->
      Printf.sprintf "atm t%d %s =%Ld" tid (loc_to_string loc) value
  | Op.Endi { warp; mask } -> Printf.sprintf "endi w%d %x" warp mask
  | Op.If { warp; then_mask; else_mask } ->
      Printf.sprintf "if w%d %x %x" warp then_mask else_mask
  | Op.Else { warp; mask } -> Printf.sprintf "else w%d %x" warp mask
  | Op.Fi { warp; mask } -> Printf.sprintf "fi w%d %x" warp mask
  | Op.Bar { block } -> Printf.sprintf "bar b%d" block
  | Op.Acq { tid; loc; scope } ->
      Printf.sprintf "acq%s t%d %s" (scope_to_string scope) tid
        (loc_to_string loc)
  | Op.Rel { tid; loc; scope } ->
      Printf.sprintf "rel%s t%d %s" (scope_to_string scope) tid
        (loc_to_string loc)
  | Op.AcqRel { tid; loc; scope } ->
      Printf.sprintf "ar%s t%d %s" (scope_to_string scope) tid
        (loc_to_string loc)

let to_channel ~layout oc ops =
  output_string oc (header_of layout);
  output_char oc '\n';
  List.iter
    (fun op ->
      output_string oc (op_to_string op);
      output_char oc '\n')
    ops

let to_string ~layout ops =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header_of layout);
  Buffer.add_char buf '\n';
  List.iter
    (fun op ->
      Buffer.add_string buf (op_to_string op);
      Buffer.add_char buf '\n')
    ops;
  Buffer.contents buf

(* ---- parsing ------------------------------------------------------- *)

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* [prefix] then an integer ("t12"), else "bad WHAT". *)
let parse_id prefix what line s =
  let n = String.length s in
  match
    if n > 1 && s.[0] = prefix then int_of_string_opt (String.sub s 1 (n - 1))
    else None
  with
  | Some v -> v
  | None -> fail line "bad %s %S" what s

(* Every id a trace names must exist in its header's layout. *)
let within line what limit v =
  if v < 0 || v >= limit then
    fail line "%s %d outside the trace's layout (%d %ss)" what v limit what;
  v

let parse_tid layout line s =
  within line "thread" (Vclock.Layout.total_threads layout)
    (parse_id 't' "thread id" line s)

let parse_warp layout line s =
  within line "warp" (Vclock.Layout.total_warps layout)
    (parse_id 'w' "warp id" line s)

let parse_mask layout line s =
  let w = layout.Vclock.Layout.warp_size in
  match int_of_string_opt ("0x" ^ s) with
  | Some m when m >= 0 && (w >= Sys.int_size || m lsr w = 0) -> m
  | Some _ -> fail line "mask %s has a lane beyond the warp size %d" s w
  | None -> fail line "bad mask %S" s

let parse_loc layout line s =
  match String.index_opt s ':' with
  | None -> fail line "bad location %S" s
  | Some i ->
      let sp = String.sub s 0 i in
      let addr_s = String.sub s (i + 1) (String.length s - i - 1) in
      let addr =
        match int_of_string_opt addr_s with
        | Some addr -> addr
        | None -> fail line "bad address %S" addr_s
      in
      if sp = "g" then Loc.global addr
      else
        let block =
          within line "shared region" layout.Vclock.Layout.blocks
            (parse_id 's' "space" line sp)
        in
        Loc.shared ~block addr

let parse_value line s =
  if String.length s > 0 && s.[0] = '=' then
    match Int64.of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some v -> v
    | None -> fail line "bad value %S" s
  else fail line "expected =value, got %S" s

let format_version = 1

let parse_header line s =
  (* Parse the version generically first, so a trace written by a
     different (older or newer) build fails with one line naming both
     versions instead of a generic bad-header complaint. *)
  (match
     try Scanf.sscanf s "# barracuda-trace v%d " (fun v -> Some v)
     with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
   with
  | Some v when v <> format_version ->
      fail line
        "trace format version %d not supported (this build reads v%d)" v
        format_version
  | _ -> ());
  try
    Scanf.sscanf s "# barracuda-trace v1 warp_size=%d threads_per_block=%d blocks=%d"
      (fun warp_size threads_per_block blocks ->
        Vclock.Layout.make ~warp_size ~threads_per_block ~blocks)
  with
  | Scanf.Scan_failure _ | Failure _ | End_of_file ->
      fail line "bad trace header %S" s
  | Invalid_argument message -> fail line "bad trace header %S: %s" s message

let parse_op layout lineno s =
  let tid = parse_tid layout lineno
  and loc = parse_loc layout lineno
  and warp = parse_warp layout lineno
  and mask = parse_mask layout lineno
  and value = parse_value lineno in
  let parts =
    String.split_on_char ' ' s |> List.filter (fun p -> p <> "")
  in
  match parts with
  | [ "rd"; t; l ] -> Op.Rd { tid = tid t; loc = loc l }
  | [ "wr"; t; l; v ] -> Op.Wr { tid = tid t; loc = loc l; value = value v }
  | [ "atm"; t; l; v ] -> Op.Atm { tid = tid t; loc = loc l; value = value v }
  | [ "endi"; w; m ] -> Op.Endi { warp = warp w; mask = mask m }
  | [ "if"; w; tm; em ] ->
      Op.If { warp = warp w; then_mask = mask tm; else_mask = mask em }
  | [ "else"; w; m ] -> Op.Else { warp = warp w; mask = mask m }
  | [ "fi"; w; m ] -> Op.Fi { warp = warp w; mask = mask m }
  | [ "bar"; b ] ->
      Op.Bar
        {
          block =
            within lineno "block" layout.Vclock.Layout.blocks
              (parse_id 'b' "block id" lineno b);
        }
  | [ ("acqblk" | "acqglb" | "relblk" | "relglb" | "arblk" | "arglb") as k; t; l ]
    -> (
      let tid = tid t and loc = loc l in
      let scope =
        if String.sub k (String.length k - 3) 3 = "blk" then Op.Block
        else Op.Global_scope
      in
      match String.sub k 0 2 with
      | "ac" -> Op.Acq { tid; loc; scope }
      | "re" -> Op.Rel { tid; loc; scope }
      | _ -> Op.AcqRel { tid; loc; scope })
  | _ -> fail lineno "unrecognized operation %S" s

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | [] -> fail 0 "empty trace"
  | header :: rest ->
      let layout = parse_header 1 header in
      let ops =
        List.filteri (fun _ l -> String.trim l <> "") rest
        |> List.mapi (fun i l -> parse_op layout (i + 2) (String.trim l))
      in
      (layout, ops)

let of_channel ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  of_string (Buffer.contents buf)
