type space = Global | Shared | Local | Param
type cache_op = Ca | Cg | Cs | Cv | Wb | Wt
type fence_scope = Cta | Gl | Sys

type atom_op =
  | A_add
  | A_exch
  | A_cas
  | A_min
  | A_max
  | A_and
  | A_or
  | A_xor
  | A_inc
  | A_dec

type cmp = C_eq | C_ne | C_lt | C_le | C_gt | C_ge

type binop =
  | B_add
  | B_sub
  | B_mul
  | B_div
  | B_rem
  | B_min
  | B_max
  | B_and
  | B_or
  | B_xor
  | B_shl
  | B_shr

type sreg =
  | Tid
  | Ntid
  | Ctaid
  | Nctaid
  | Laneid
  | Warpid
  | Tid_y
  | Tid_z
  | Ntid_y
  | Ntid_z
  | Ctaid_y
  | Ctaid_z
  | Nctaid_y
  | Nctaid_z
type operand = Reg of string | Imm of int64 | Sym of string | Sreg of sreg
type address = { base : operand; offset : int }

type insn_kind =
  | Ld of { space : space; cache : cache_op; width : int; dst : string; addr : address }
  | St of { space : space; cache : cache_op; width : int; src : operand; addr : address }
  | Atom of {
      space : space;
      op : atom_op;
      width : int;
      dst : string;
      addr : address;
      src : operand;
      src2 : operand option;
    }
  | Membar of fence_scope
  | Bar_sync of int
  | Bra of { uni : bool; target : string }
  | Setp of { cmp : cmp; dst : string; a : operand; b : operand }
  | Mov of { dst : string; src : operand }
  | Binop of { op : binop; dst : string; a : operand; b : operand }
  | Mad of { dst : string; a : operand; b : operand; c : operand }
  | Selp of { dst : string; a : operand; b : operand; pred : string }
  | Not of { dst : string; src : operand }
  | Cvt of { dst : string; src : operand }
  | Ret
  | Exit
  | Nop

type insn = {
  label : string option;
  guard : (bool * string) option;
  kind : insn_kind;
}

type kernel = {
  kname : string;
  params : string list;
  shared_decls : (string * int) list;
  body : insn array;
}

type program = kernel list

let mk ?label ?guard kind = { label; guard; kind }

let label_index k =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i insn ->
      match insn.label with
      | None -> ()
      | Some l ->
          if Hashtbl.mem tbl l then
            invalid_arg (Printf.sprintf "duplicate label %s in %s" l k.kname)
          else Hashtbl.add tbl l i)
    k.body;
  tbl

let shared_offsets k =
  let off = ref 0 in
  List.map
    (fun (name, size) ->
      let base = !off in
      off := (!off + size + 7) land lnot 7;
      (name, base))
    k.shared_decls

let is_memory_access = function
  | Ld _ | St _ | Atom _ -> true
  | Membar _ | Bar_sync _ | Bra _ | Setp _ | Mov _ | Binop _ | Mad _ | Selp _
  | Not _ | Cvt _ | Ret | Exit | Nop ->
      false

let operand_regs = function Reg r -> [ r ] | Imm _ | Sym _ | Sreg _ -> []
let address_regs (a : address) = operand_regs a.base

let registers_read insn =
  let of_kind = function
    | Ld { addr; _ } -> address_regs addr
    | St { src; addr; _ } -> operand_regs src @ address_regs addr
    | Atom { addr; src; src2; _ } ->
        address_regs addr @ operand_regs src
        @ (match src2 with Some o -> operand_regs o | None -> [])
    | Setp { a; b; _ } | Binop { a; b; _ } -> operand_regs a @ operand_regs b
    | Mad { a; b; c; _ } -> operand_regs a @ operand_regs b @ operand_regs c
    | Selp { a; b; pred; _ } -> operand_regs a @ operand_regs b @ [ pred ]
    | Mov { src; _ } | Not { src; _ } | Cvt { src; _ } -> operand_regs src
    | Membar _ | Bar_sync _ | Bra _ | Ret | Exit | Nop -> []
  in
  let guard = match insn.guard with Some (_, p) -> [ p ] | None -> [] in
  guard @ of_kind insn.kind

let register_written insn =
  match insn.kind with
  | Ld { dst; _ }
  | Atom { dst; _ }
  | Setp { dst; _ }
  | Mov { dst; _ }
  | Binop { dst; _ }
  | Mad { dst; _ }
  | Selp { dst; _ }
  | Not { dst; _ }
  | Cvt { dst; _ } ->
      Some dst
  | St _ | Membar _ | Bar_sync _ | Bra _ | Ret | Exit | Nop -> None

let pp_space ppf s =
  Format.pp_print_string ppf
    (match s with
    | Global -> "global"
    | Shared -> "shared"
    | Local -> "local"
    | Param -> "param")

let pp_fence_scope ppf s =
  Format.pp_print_string ppf
    (match s with Cta -> "cta" | Gl -> "gl" | Sys -> "sys")

let pp_atom_op ppf op =
  Format.pp_print_string ppf
    (match op with
    | A_add -> "add"
    | A_exch -> "exch"
    | A_cas -> "cas"
    | A_min -> "min"
    | A_max -> "max"
    | A_and -> "and"
    | A_or -> "or"
    | A_xor -> "xor"
    | A_inc -> "inc"
    | A_dec -> "dec")

let equal_space (a : space) (b : space) = a = b
