(* Affine abstract values over the special registers that vary by
   thread.  A form describes, for every thread that executes the
   instruction, the value

     base + tid*%tid.x + gbase*(%ctaid.x * %ntid.x)
          + ctaid*%ctaid.x + ntid*%ntid.x + nctaid*%nctaid.x + const

   as computed by the machine's wrapping Int64 arithmetic.  The [gbase]
   term captures the flat global-tid idiom (mad %g, %ctaid, %ntid,
   %tid): when tid = gbase the form is linear in the flat thread id.

   Anything the analysis cannot pin down exactly — loads, atomics,
   y/z-dimension registers, lane ids, divisions — is Top.  Bot marks a
   register on a path that has not produced a value yet; joining Bot
   with anything keeps the other side. *)

type base = No_base | Param of string

type form = {
  base : base;
  tid : int64;
  gbase : int64;
  ctaid : int64;
  ntid : int64;
  nctaid : int64;
  const : int64;
}

type t = Bot | Aff of form | Top

let zero_coeffs =
  { base = No_base; tid = 0L; gbase = 0L; ctaid = 0L; ntid = 0L;
    nctaid = 0L; const = 0L }

let const c = Aff { zero_coeffs with const = c }
let of_param p = Aff { zero_coeffs with base = Param p }

let of_sreg = function
  | Ptx.Ast.Tid -> Aff { zero_coeffs with tid = 1L }
  | Ptx.Ast.Ntid -> Aff { zero_coeffs with ntid = 1L }
  | Ptx.Ast.Ctaid -> Aff { zero_coeffs with ctaid = 1L }
  | Ptx.Ast.Nctaid -> Aff { zero_coeffs with nctaid = 1L }
  | _ -> Top

let equal_form (a : form) (b : form) = a = b

let equal a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Aff f, Aff g -> equal_form f g
  | _ -> false

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Aff f, Aff g -> if equal_form f g then a else Top

(* Pure integer forms: no base pointer, no thread-varying terms. *)
let as_const f =
  if
    f.base = No_base && f.tid = 0L && f.gbase = 0L && f.ctaid = 0L
    && f.ntid = 0L && f.nctaid = 0L
  then Some f.const
  else None

let combine_bases a b =
  match (a, b) with
  | No_base, x | x, No_base -> Some x
  | Param _, Param _ -> None (* sum of two pointers: not representable *)

let add2 f g =
  match combine_bases f.base g.base with
  | None -> Top
  | Some base ->
      Aff
        {
          base;
          tid = Int64.add f.tid g.tid;
          gbase = Int64.add f.gbase g.gbase;
          ctaid = Int64.add f.ctaid g.ctaid;
          ntid = Int64.add f.ntid g.ntid;
          nctaid = Int64.add f.nctaid g.nctaid;
          const = Int64.add f.const g.const;
        }

let sub2 f g =
  let base =
    match (f.base, g.base) with
    | x, No_base -> Some x
    | Param p, Param q when p = q -> Some No_base
    | _ -> None
  in
  match base with
  | None -> Top
  | Some base ->
      Aff
        {
          base;
          tid = Int64.sub f.tid g.tid;
          gbase = Int64.sub f.gbase g.gbase;
          ctaid = Int64.sub f.ctaid g.ctaid;
          ntid = Int64.sub f.ntid g.ntid;
          nctaid = Int64.sub f.nctaid g.nctaid;
          const = Int64.sub f.const g.const;
        }

let scale c f =
  if c = 0L then const 0L
  else if f.base <> No_base && c <> 1L then Top
  else
    Aff
      {
        f with
        tid = Int64.mul c f.tid;
        gbase = Int64.mul c f.gbase;
        ctaid = Int64.mul c f.ctaid;
        ntid = Int64.mul c f.ntid;
        nctaid = Int64.mul c f.nctaid;
        const = Int64.mul c f.const;
      }

(* Exactly c * %ctaid.x (no other terms). *)
let pure_ctaid f =
  if
    f.base = No_base && f.tid = 0L && f.gbase = 0L && f.ntid = 0L
    && f.nctaid = 0L && f.const = 0L && f.ctaid <> 0L
  then Some f.ctaid
  else None

let pure_ntid f =
  if
    f.base = No_base && f.tid = 0L && f.gbase = 0L && f.ctaid = 0L
    && f.nctaid = 0L && f.const = 0L && f.ntid <> 0L
  then Some f.ntid
  else None

let mul2 f g =
  match (as_const f, as_const g) with
  | Some c, _ -> scale c g
  | _, Some c -> scale c f
  | None, None -> (
      (* the flat-tid product: ctaid * ntid in either order *)
      match (pure_ctaid f, pure_ntid g) with
      | Some c, Some d -> Aff { zero_coeffs with gbase = Int64.mul c d }
      | _ -> (
          match (pure_ntid f, pure_ctaid g) with
          | Some d, Some c -> Aff { zero_coeffs with gbase = Int64.mul c d }
          | _ -> Top))

let lift2 op a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, _ | _, Top -> Top
  | Aff f, Aff g -> op f g

let add a b = lift2 add2 a b
let sub a b = lift2 sub2 a b
let mul a b = lift2 mul2 a b

let shl a b =
  match b with
  | Aff g -> (
      match as_const g with
      | Some c when c >= 0L && c < 63L ->
          mul a (const (Int64.shift_left 1L (Int64.to_int c)))
      | _ -> Top)
  | Bot -> Bot
  | Top -> Top

let binop op a b =
  match op with
  | Ptx.Ast.B_add -> add a b
  | Ptx.Ast.B_sub -> sub a b
  | Ptx.Ast.B_mul -> mul a b
  | Ptx.Ast.B_shl -> shl a b
  | Ptx.Ast.B_div | Ptx.Ast.B_rem | Ptx.Ast.B_min | Ptx.Ast.B_max
  | Ptx.Ast.B_and | Ptx.Ast.B_or | Ptx.Ast.B_xor | Ptx.Ast.B_shr ->
      Top

let pp_base ppf = function
  | No_base -> ()
  | Param p -> Format.fprintf ppf "%s+" p

let pp_term ppf name c =
  if c <> 0L then Format.fprintf ppf "%Ld*%s+" c name

let pp ppf = function
  | Bot -> Format.pp_print_string ppf "_"
  | Top -> Format.pp_print_string ppf "?"
  | Aff f ->
      Format.fprintf ppf "%a%a%a%a%a%a%Ld" pp_base f.base
        (fun ppf () -> pp_term ppf "tid" f.tid) ()
        (fun ppf () -> pp_term ppf "ctaid*ntid" f.gbase) ()
        (fun ppf () -> pp_term ppf "ctaid" f.ctaid) ()
        (fun ppf () -> pp_term ppf "ntid" f.ntid) ()
        (fun ppf () -> pp_term ppf "nctaid" f.nctaid) ()
        f.const

(* ------------------------------------------------------------------ *)
(* Register environments and the per-kernel forward dataflow.          *)

module Smap = Map.Make (String)

type ctx = { params : (string, unit) Hashtbl.t; shared : (string * int) list }

let make_ctx (k : Ptx.Ast.kernel) =
  let params = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace params p ()) k.Ptx.Ast.params;
  { params; shared = Ptx.Ast.shared_offsets k }

module Env = struct
  type value = t
  type nonrec t = value Smap.t

  let empty : t = Smap.empty

  (* A register never written on this path reads as an unknown value. *)
  let find env r = match Smap.find_opt r env with Some v -> v | None -> Top
  let set env r v = Smap.add r v env
  let join a b = Smap.merge (fun _ x y -> Some (join (Option.value x ~default:Top) (Option.value y ~default:Top))) a b
  let equal a b = Smap.equal equal a b
end

let eval ctx env = function
  | Ptx.Ast.Reg r -> Env.find env r
  | Ptx.Ast.Imm v -> const v
  | Ptx.Ast.Sym s ->
      (* the machine resolves params first, then shared offsets *)
      if Hashtbl.mem ctx.params s then of_param s
      else (
        match List.assoc_opt s ctx.shared with
        | Some o -> const (Int64.of_int o)
        | None -> Top)
  | Ptx.Ast.Sreg s -> of_sreg s

(* Transfer one instruction.  A guarded register write merges with the
   old value: lanes whose predicate is false keep what they had. *)
let transfer ctx env (insn : Ptx.Ast.insn) =
  let assign dst v =
    let v = if insn.Ptx.Ast.guard = None then v else join (Env.find env dst) v in
    Env.set env dst v
  in
  match insn.Ptx.Ast.kind with
  | Ptx.Ast.Mov { dst; src } | Ptx.Ast.Cvt { dst; src } ->
      assign dst (eval ctx env src)
  | Ptx.Ast.Binop { op; dst; a; b } ->
      assign dst (binop op (eval ctx env a) (eval ctx env b))
  | Ptx.Ast.Mad { dst; a; b; c } ->
      assign dst (add (mul (eval ctx env a) (eval ctx env b)) (eval ctx env c))
  | Ptx.Ast.Selp { dst; a; b; pred = _ } ->
      assign dst (join (eval ctx env a) (eval ctx env b))
  | Ptx.Ast.Ld { space = Ptx.Ast.Param; dst; addr; _ } ->
      (* a parameter load is a register move of the argument value;
         the machine ignores the offset *)
      assign dst (eval ctx env addr.Ptx.Ast.base)
  | Ptx.Ast.Ld { dst; _ } | Ptx.Ast.Atom { dst; _ } -> assign dst Top
  | Ptx.Ast.Setp { dst; _ } | Ptx.Ast.Not { dst; _ } -> assign dst Top
  | Ptx.Ast.St _ | Ptx.Ast.Membar _ | Ptx.Ast.Bar_sync _ | Ptx.Ast.Bra _
  | Ptx.Ast.Ret | Ptx.Ast.Exit | Ptx.Ast.Nop ->
      env

(* Fixpoint over the block graph: [entry_env i] is the environment in
   force just before instruction [i], for every thread reaching it.
   [succs]/[preds] are the (possibly adjusted) block edges; unreachable
   blocks are left without a state and report Top for everything. *)
let run ctx (k : Ptx.Ast.kernel) ~(blocks : Cfg.Graph.block array)
    ~(preds : int -> int list) ~(nblocks : int) =
  let n = Array.length k.Ptx.Ast.body in
  let in_state : Env.t option array = Array.make nblocks None in
  let out_state : Env.t option array = Array.make nblocks None in
  (* [nblocks] may exceed the block array: synthetic nodes (the exit
     node) carry no instructions, so their out state is their in
     state. *)
  let flow_out b env =
    if b >= Array.length blocks then env
    else begin
      let env = ref env in
      for i = blocks.(b).Cfg.Graph.first to blocks.(b).Cfg.Graph.last do
        env := transfer ctx !env k.Ptx.Ast.body.(i)
      done;
      !env
    end
  in
  (* Block 0 starts unseeded so its first visit is stale and computes
     out_state.(0) — seeding in_state.(0) here would leave every
     successor joining over all-None out states forever. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to nblocks - 1 do
      let joined =
        if b = 0 then Some Env.empty
        else
          List.fold_left
            (fun acc p ->
              match out_state.(p) with
              | None -> acc
              | Some e -> (
                  match acc with
                  | None -> Some e
                  | Some a -> Some (Env.join a e)))
            None (preds b)
      in
      match joined with
      | None -> ()
      | Some e ->
          let stale =
            match in_state.(b) with
            | Some old -> not (Env.equal old e)
            | None -> true
          in
          if stale then begin
            in_state.(b) <- Some e;
            out_state.(b) <- Some (flow_out b e);
            changed := true
          end
    done
  done;
  (* materialize per-instruction entry environments *)
  let at = Array.make n None in
  Array.iteri
    (fun b (blk : Cfg.Graph.block) ->
      match in_state.(b) with
      | None -> ()
      | Some e ->
          let env = ref e in
          for i = blk.Cfg.Graph.first to blk.Cfg.Graph.last do
            at.(i) <- Some !env;
            env := transfer ctx !env k.Ptx.Ast.body.(i)
          done)
    blocks;
  at

(* The affine value of a memory operand's address at instruction [i]. *)
let address_of ctx env (addr : Ptx.Ast.address) =
  add (eval ctx env addr.Ptx.Ast.base) (const (Int64.of_int addr.Ptx.Ast.offset))
