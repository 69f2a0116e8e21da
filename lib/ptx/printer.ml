open Ast

let sreg_name = function
  | Tid -> "%tid.x"
  | Ntid -> "%ntid.x"
  | Ctaid -> "%ctaid.x"
  | Nctaid -> "%nctaid.x"
  | Laneid -> "%laneid"
  | Warpid -> "%warpid"
  | Tid_y -> "%tid.y"
  | Tid_z -> "%tid.z"
  | Ntid_y -> "%ntid.y"
  | Ntid_z -> "%ntid.z"
  | Ctaid_y -> "%ctaid.y"
  | Ctaid_z -> "%ctaid.z"
  | Nctaid_y -> "%nctaid.y"
  | Nctaid_z -> "%nctaid.z"

let pp_operand ppf = function
  | Reg r -> Format.pp_print_string ppf r
  | Imm v -> Format.fprintf ppf "%Ld" v
  | Sym s -> Format.pp_print_string ppf s
  | Sreg s -> Format.pp_print_string ppf (sreg_name s)

let pp_address ppf { base; offset } =
  if offset = 0 then Format.fprintf ppf "[%a]" pp_operand base
  else Format.fprintf ppf "[%a+%d]" pp_operand base offset

let space_suffix = function
  | Global -> ".global"
  | Shared -> ".shared"
  | Local -> ".local"
  | Param -> ".param"

let cache_suffix = function
  | Ca -> "" (* default; omit *)
  | Cg -> ".cg"
  | Cs -> ".cs"
  | Cv -> ".cv"
  | Wb -> ".wb"
  | Wt -> ".wt"

let width_suffix = function
  | 1 -> ".u8"
  | 2 -> ".u16"
  | 4 -> ".u32"
  | 8 -> ".u64"
  | n -> Printf.sprintf ".b%d" (n * 8)

let atom_suffix = function
  | A_add -> ".add"
  | A_exch -> ".exch"
  | A_cas -> ".cas"
  | A_min -> ".min"
  | A_max -> ".max"
  | A_and -> ".and"
  | A_or -> ".or"
  | A_xor -> ".xor"
  | A_inc -> ".inc"
  | A_dec -> ".dec"

let cmp_suffix = function
  | C_eq -> ".eq"
  | C_ne -> ".ne"
  | C_lt -> ".lt"
  | C_le -> ".le"
  | C_gt -> ".gt"
  | C_ge -> ".ge"

let binop_mnemonic = function
  | B_add -> "add.s64"
  | B_sub -> "sub.s64"
  | B_mul -> "mul.lo.s64"
  | B_div -> "div.s64"
  | B_rem -> "rem.s64"
  | B_min -> "min.s64"
  | B_max -> "max.s64"
  | B_and -> "and.b64"
  | B_or -> "or.b64"
  | B_xor -> "xor.b64"
  | B_shl -> "shl.b64"
  | B_shr -> "shr.b64"

let pp_kind ppf = function
  | Ld { space; cache; width; dst; addr } ->
      Format.fprintf ppf "ld%s%s%s %s, %a" (space_suffix space)
        (cache_suffix cache) (width_suffix width) dst pp_address addr
  | St { space; cache; width; src; addr } ->
      Format.fprintf ppf "st%s%s%s %a, %a" (space_suffix space)
        (cache_suffix cache) (width_suffix width) pp_address addr pp_operand
        src
  | Atom { space; op; width; dst; addr; src; src2 } -> (
      Format.fprintf ppf "atom%s%s%s %s, %a, %a" (space_suffix space)
        (atom_suffix op) (width_suffix width) dst pp_address addr pp_operand
        src;
      match src2 with
      | Some o -> Format.fprintf ppf ", %a" pp_operand o
      | None -> ())
  | Membar scope ->
      Format.fprintf ppf "membar.%a" Ast.pp_fence_scope scope
  | Bar_sync n -> Format.fprintf ppf "bar.sync %d" n
  | Bra { uni; target } ->
      Format.fprintf ppf "bra%s %s" (if uni then ".uni" else "") target
  | Setp { cmp; dst; a; b } ->
      Format.fprintf ppf "setp%s.s64 %s, %a, %a" (cmp_suffix cmp) dst
        pp_operand a pp_operand b
  | Mov { dst; src } -> Format.fprintf ppf "mov.b64 %s, %a" dst pp_operand src
  | Binop { op; dst; a; b } ->
      Format.fprintf ppf "%s %s, %a, %a" (binop_mnemonic op) dst pp_operand a
        pp_operand b
  | Mad { dst; a; b; c } ->
      Format.fprintf ppf "mad.lo.s64 %s, %a, %a, %a" dst pp_operand a
        pp_operand b pp_operand c
  | Selp { dst; a; b; pred } ->
      Format.fprintf ppf "selp.b64 %s, %a, %a, %s" dst pp_operand a pp_operand
        b pred
  | Not { dst; src } ->
      Format.fprintf ppf "not.pred %s, %a" dst pp_operand src
  | Cvt { dst; src } ->
      Format.fprintf ppf "cvt.s64.s64 %s, %a" dst pp_operand src
  | Ret -> Format.pp_print_string ppf "ret"
  | Exit -> Format.pp_print_string ppf "exit"
  | Nop -> Format.pp_print_string ppf "nop"

let pp_insn ppf insn =
  (match insn.label with
  | Some l -> Format.fprintf ppf "%s:@\n" l
  | None -> ());
  (match insn.guard with
  | Some (true, p) -> Format.fprintf ppf "    @@%s " p
  | Some (false, p) -> Format.fprintf ppf "    @@!%s " p
  | None -> Format.fprintf ppf "    ");
  Format.fprintf ppf "%a;" pp_kind insn.kind

let pp_kernel ppf k =
  Format.fprintf ppf ".visible .entry %s (" k.kname;
  List.iteri
    (fun i p ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf ".param .u64 %s" p)
    k.params;
  Format.fprintf ppf ")@\n{@\n";
  List.iter
    (fun (name, size) ->
      Format.fprintf ppf "    .shared .align 4 .b8 %s[%d];@\n" name size)
    k.shared_decls;
  Array.iter (fun insn -> Format.fprintf ppf "%a@\n" pp_insn insn) k.body;
  Format.fprintf ppf "}@\n"

let kernel_to_string k = Format.asprintf "%a" pp_kernel k
