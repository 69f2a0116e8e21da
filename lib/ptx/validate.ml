type issue = { index : int; message : string }

let pp_issue ppf { index; message } =
  if index < 0 then Format.fprintf ppf "kernel: %s" message
  else Format.fprintf ppf "insn %d: %s" index message

module Sset = Set.Make (String)

let check (k : Ast.kernel) =
  let issues = ref [] in
  let add index fmt =
    Format.kasprintf (fun message -> issues := { index; message } :: !issues) fmt
  in
  (* duplicate labels *)
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun i insn ->
      match insn.Ast.label with
      | None -> ()
      | Some l ->
          if Hashtbl.mem labels l then add i "duplicate label %s" l
          else Hashtbl.add labels l i)
    k.body;
  (* duplicate shared decls *)
  let shared_names =
    List.fold_left
      (fun acc (name, size) ->
        if size <= 0 then add (-1) "shared array %s has size %d" name size;
        if Sset.mem name acc then begin
          add (-1) "duplicate shared declaration %s" name;
          acc
        end
        else Sset.add name acc)
      Sset.empty k.shared_decls
  in
  let params = Sset.of_list k.params in
  let known_sym s = Sset.mem s shared_names || Sset.mem s params in
  let check_operand i = function
    | Ast.Sym s when not (known_sym s) -> add i "unknown symbol %s" s
    | Ast.Sym _ | Ast.Reg _ | Ast.Imm _ | Ast.Sreg _ -> ()
  in
  let check_address i (a : Ast.address) = check_operand i a.base in
  let check_width i w =
    match w with
    | 1 | 2 | 4 | 8 -> ()
    | _ -> add i "unsupported access width %d" w
  in
  Array.iteri
    (fun i insn ->
      (match insn.Ast.guard with
      | Some (_, p) when String.length p < 2 || p.[0] <> '%' ->
          add i "guard %s is not a register" p
      | _ -> ());
      match insn.Ast.kind with
      | Ast.Ld { addr; width; space; _ } ->
          check_address i addr;
          check_width i width;
          if space = Ast.Param && addr.offset <> 0 then
            add i "ld.param [%a+%d]: a parameter is read whole, at offset 0"
              Printer.pp_operand addr.base addr.offset
      | Ast.St { addr; src; width; space; _ } ->
          check_address i addr;
          check_operand i src;
          check_width i width;
          if space = Ast.Param then add i "st.param: kernel parameters are read-only"
      | Ast.Atom { addr; src; src2; op; width; space; _ } ->
          if space = Ast.Param then add i "atom.param: kernel parameters are read-only";
          check_address i addr;
          check_operand i src;
          check_width i width;
          (match src2 with Some o -> check_operand i o | None -> ());
          (match op, src2 with
          | Ast.A_cas, None -> add i "atom.cas needs two sources"
          | Ast.A_cas, Some _ -> ()
          | _, Some _ -> add i "only atom.cas takes two sources"
          | _, None -> ())
      | Ast.Bra { target; _ } ->
          if not (Hashtbl.mem labels target) then
            add i "branch to unknown label %s" target
      | Ast.Setp { a; b; _ } | Ast.Binop { a; b; _ } ->
          check_operand i a;
          check_operand i b
      | Ast.Mad { a; b; c; _ } ->
          check_operand i a;
          check_operand i b;
          check_operand i c
      | Ast.Selp { a; b; _ } ->
          check_operand i a;
          check_operand i b
      | Ast.Mov { src; _ } | Ast.Not { src; _ } | Ast.Cvt { src; _ } ->
          check_operand i src
      | Ast.Membar _ | Ast.Bar_sync _ | Ast.Ret | Ast.Exit | Ast.Nop -> ())
    k.body;
  List.rev !issues

let fail (k : Ast.kernel) issues =
  invalid_arg
    (Format.asprintf "@[<v>kernel %s is ill-formed:@,%a@]" k.kname
       (Format.pp_print_list pp_issue)
       issues)

let check_exn k = match check k with [] -> () | issues -> fail k issues
