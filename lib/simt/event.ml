type access_kind = Load | Store | Atomic of Ptx.Ast.atom_op

type mem_access = {
  warp : int;
  insn : int;
  kind : access_kind;
  space : Ptx.Ast.space;
  mask : int;
  addrs : int array;
  values : int64 array;
  width : int;
}

type t =
  | Access of mem_access
  | Fence of { warp : int; insn : int; scope : Ptx.Ast.fence_scope; mask : int }
  | Branch_if of { warp : int; insn : int; then_mask : int; else_mask : int }
  | Branch_else of { warp : int; mask : int }
  | Branch_fi of { warp : int; mask : int }
  | Barrier of { block : int }
  | Barrier_divergence of { warp : int; insn : int; mask : int; expected : int }
  | Kernel_done

let mask_lanes mask =
  let rec go l acc =
    if 1 lsl l > mask then List.rev acc
    else go (l + 1) (if mask land (1 lsl l) <> 0 then l :: acc else acc)
  in
  go 0 []

let pp_kind ppf = function
  | Load -> Format.pp_print_string ppf "ld"
  | Store -> Format.pp_print_string ppf "st"
  | Atomic op -> Format.fprintf ppf "atom.%a" Ptx.Ast.pp_atom_op op

let pp ppf = function
  | Access a ->
      Format.fprintf ppf "access w%d i%d %a.%a mask=%#x" a.warp a.insn pp_kind
        a.kind Ptx.Ast.pp_space a.space a.mask
  | Fence f ->
      Format.fprintf ppf "fence w%d i%d .%a mask=%#x" f.warp f.insn
        Ptx.Ast.pp_fence_scope f.scope f.mask
  | Branch_if b ->
      Format.fprintf ppf "if w%d i%d then=%#x else=%#x" b.warp b.insn
        b.then_mask b.else_mask
  | Branch_else b -> Format.fprintf ppf "else w%d mask=%#x" b.warp b.mask
  | Branch_fi b -> Format.fprintf ppf "fi w%d mask=%#x" b.warp b.mask
  | Barrier b -> Format.fprintf ppf "bar block=%d" b.block
  | Barrier_divergence b ->
      Format.fprintf ppf "barrier-divergence w%d i%d mask=%#x expected=%#x"
        b.warp b.insn b.mask b.expected
  | Kernel_done -> Format.pp_print_string ppf "kernel-done"
