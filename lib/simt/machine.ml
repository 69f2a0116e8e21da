type policy = Round_robin | Random of int
type status = Completed | Max_steps of int | Deadline of int

(* Execution telemetry.  Instructions retired is the hot counter, so it
   is accumulated in the launch context and flushed once per launch;
   divergence events are rare and counted at their emission sites. *)
let m_instructions =
  Telemetry.Registry.counter
    ~help:"Dynamic warp-level instructions retired"
    Telemetry.Registry.default "barracuda_simt_instructions_retired_total"

let m_branch_div =
  Telemetry.Registry.counter
    ~help:"Divergent branches executed (SIMT stack splits)"
    Telemetry.Registry.default "barracuda_simt_divergent_branches_total"

let m_barrier_div =
  Telemetry.Registry.counter
    ~help:"Barrier-divergence events observed"
    Telemetry.Registry.default "barracuda_simt_barrier_divergence_total"

let m_launches =
  Telemetry.Registry.counter ~help:"Kernel launches executed"
    Telemetry.Registry.default "barracuda_simt_launches_total"

type result = {
  status : status;
  dyn_instructions : int;
  barrier_divergence : bool;
}

type t = {
  layout : Vclock.Layout.t;
  policy : policy;
  global : Memory.t;
  shared : Memory.t array; (* per block *)
  mutable global_brk : int; (* bump allocator for global memory *)
}

let create ?(policy = Round_robin) ~layout () =
  {
    layout;
    policy;
    global = Memory.create ();
    shared = Array.init layout.Vclock.Layout.blocks (fun _ -> Memory.create ());
    global_brk = 0x1000;
  }

let layout t = t.layout

let alloc_global t bytes =
  let base = t.global_brk in
  t.global_brk <- (t.global_brk + bytes + 7) land lnot 7;
  base

let global_memory t = t.global
let shared_memory t ~block = t.shared.(block)
let peek t ~addr ~width = Memory.read t.global ~addr ~width
let poke t ~addr ~width v = Memory.write t.global ~addr ~width v

(* ------------------------------------------------------------------ *)
(* The kernel's program, resolved once per kernel content              *)

(* Registers are dense indices in sorted name order; a parameter is its
   slot in the launch's argument array, a shared symbol its offset. *)
type operand = Reg of int | Const of int64 | Param of int | Sreg of Ptx.Ast.sreg

(* Register-to-register instructions, executed lane by lane. *)
type alu =
  | Move of { dst : int; src : operand } (* mov, cvt and ld.param *)
  | Not of { dst : int; src : operand }
  | Setp of { cmp : Ptx.Ast.cmp; dst : int; a : operand; b : operand }
  | Binop of { bop : Ptx.Ast.binop; dst : int; a : operand; b : operand }
  | Mad of { dst : int; a : operand; b : operand; c : operand }
  | Selp of { dst : int; a : operand; b : operand; pred : int }

type access = {
  kind : Event.access_kind;
  space : Ptx.Ast.space;
  width : int;
  dst : int; (* loads and atomics *)
  base : operand;
  offset : int;
  src : operand; (* stores and atomics *)
  src2 : operand; (* atom.cas *)
}

type op =
  | Alu of alu
  | Access of access
  | Bra of { target : int; reconv : int }
  | Bar
  | Membar of Ptx.Ast.fence_scope
  | Ret (* ret and exit *)
  | Nop

type insn = { guard : int; (* predicate register, -1 if unguarded *) want : bool; op : op }

(* Immutable once built: every launch of the kernel, on any domain,
   reads the same one. *)
type program = { code : insn array; nregs : int }

let resolve (kernel : Ptx.Ast.kernel) =
  let names =
    Array.fold_left
      (fun acc insn ->
        Option.to_list (Ptx.Ast.register_written insn) @ Ptx.Ast.registers_read insn @ acc)
      [] kernel.body
    |> List.sort_uniq compare
  in
  let index = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.replace index name i) names;
  let reg = Hashtbl.find index in
  let params = List.mapi (fun i name -> (name, i)) kernel.params in
  let shared = Ptx.Ast.shared_offsets kernel in
  (* [Validate] has rejected unknown symbols; a parameter shadows a
     shared array of the same name. *)
  let operand = function
    | Ptx.Ast.Reg r -> Reg (reg r)
    | Ptx.Ast.Imm v -> Const v
    | Ptx.Ast.Sym s -> (
        match List.assoc_opt s params with
        | Some i -> Param i
        | None -> Const (Int64.of_int (List.assoc s shared)))
    | Ptx.Ast.Sreg s -> Sreg s
  in
  let access kind space width dst (addr : Ptx.Ast.address) src src2 =
    let src2 = match src2 with Some o -> operand o | None -> Const 0L in
    Access { kind; space; width; dst; base = operand addr.base; offset = addr.offset; src; src2 }
  in
  let labels = Ptx.Ast.label_index kernel in
  let reconv = Cfg.Dominance.reconvergence_pcs kernel in
  let resolve_kind pc = function
    | Ptx.Ast.Ld { space = Ptx.Ast.Param; dst; addr; _ } ->
        (* a parameter load is a register move, no memory event *)
        Alu (Move { dst = reg dst; src = operand addr.base })
    | Ptx.Ast.Ld { space; width; dst; addr; _ } ->
        access Event.Load space width (reg dst) addr (Const 0L) None
    | Ptx.Ast.St { space; width; src; addr; _ } ->
        access Event.Store space width (-1) addr (operand src) None
    | Ptx.Ast.Atom { space; op; width; dst; addr; src; src2 } ->
        access (Event.Atomic op) space width (reg dst) addr (operand src) src2
    | Ptx.Ast.Mov { dst; src } | Ptx.Ast.Cvt { dst; src } ->
        Alu (Move { dst = reg dst; src = operand src })
    | Ptx.Ast.Not { dst; src } -> Alu (Not { dst = reg dst; src = operand src })
    | Ptx.Ast.Setp { cmp; dst; a; b } ->
        Alu (Setp { cmp; dst = reg dst; a = operand a; b = operand b })
    | Ptx.Ast.Binop { op; dst; a; b } ->
        Alu (Binop { bop = op; dst = reg dst; a = operand a; b = operand b })
    | Ptx.Ast.Mad { dst; a; b; c } ->
        Alu (Mad { dst = reg dst; a = operand a; b = operand b; c = operand c })
    | Ptx.Ast.Selp { dst; a; b; pred } ->
        Alu (Selp { dst = reg dst; a = operand a; b = operand b; pred = reg pred })
    | Ptx.Ast.Bra { target; _ } ->
        (* a conditional branch pops at its reconvergence pc *)
        Bra { target = Hashtbl.find labels target; reconv = reconv.(pc) }
    | Ptx.Ast.Bar_sync _ -> Bar
    | Ptx.Ast.Membar scope -> Membar scope
    | Ptx.Ast.Ret | Ptx.Ast.Exit -> Ret
    | Ptx.Ast.Nop -> Nop
  in
  let code =
    Array.mapi
      (fun pc (insn : Ptx.Ast.insn) ->
        let guard, want =
          match insn.guard with Some (want, p) -> (reg p, want) | None -> (-1, true)
        in
        { guard; want; op = resolve_kind pc insn.kind })
      kernel.body
  in
  { code; nregs = List.length names }

let memo_capacity = 128
let memo : (Ptx.Ast.kernel, program) Lru.t = Lru.create ~capacity:memo_capacity ()
let memo_stats () = Lru.stats memo

(* ------------------------------------------------------------------ *)
(* Per-launch state                                                    *)

type warp_state = {
  wid : int; (* global warp id *)
  block : int;
  in_block : int; (* warp index within its block *)
  init_mask : int;
  stack : Simt_stack.t;
  regs : Bytes.t; (* register r of lane l: int64 at ((r * ws) + l) * 8 *)
  touched : Bytes.t; (* per register: read or written by some lane *)
  local : Memory.t option array; (* per-lane local memory, lazily built *)
  mutable retired : int; (* lanes that executed ret/exit *)
  mutable at_barrier : bool;
  mutable finished : bool;
}

let local_memory w lane =
  match w.local.(lane) with
  | Some m -> m
  | None ->
      let m = Memory.create () in
      w.local.(lane) <- Some m;
      m

type launch_ctx = {
  m : t;
  prog : insn array;
  args : int64 array;
  ws : int;
  warps : warp_state array;
  emit : Event.t -> unit;
  mutable dyn_instructions : int;
  mutable barrier_divergence : bool;
  mutable rng : int;
}

let next_rand ctx =
  (* xorshift64* *)
  let x = ctx.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  ctx.rng <- x land max_int;
  ctx.rng

let get_reg ctx w r lane =
  Bytes.unsafe_set w.touched r '\001';
  Bytes.get_int64_le w.regs (((r * ctx.ws) + lane) lsl 3)

let set_reg ctx w r lane v =
  Bytes.unsafe_set w.touched r '\001';
  Bytes.set_int64_le w.regs (((r * ctx.ws) + lane) lsl 3) v

(* Special registers, from the lane's in-block index and the block id
   decomposed against the block and grid shapes (x fastest). *)
let sreg_value ctx w lane sreg =
  let layout = ctx.m.layout in
  let bd = layout.Vclock.Layout.block_dim and gd = layout.Vclock.Layout.grid_dim in
  let tid = ((w.in_block * ctx.ws) + lane) mod layout.Vclock.Layout.threads_per_block in
  Int64.of_int
    (match sreg with
    | Ptx.Ast.Tid -> tid mod bd.x
    | Ptx.Ast.Tid_y -> tid / bd.x mod bd.y
    | Ptx.Ast.Tid_z -> tid / (bd.x * bd.y)
    | Ptx.Ast.Ntid -> bd.x
    | Ptx.Ast.Ntid_y -> bd.y
    | Ptx.Ast.Ntid_z -> bd.z
    | Ptx.Ast.Ctaid -> w.block mod gd.x
    | Ptx.Ast.Ctaid_y -> w.block / gd.x mod gd.y
    | Ptx.Ast.Ctaid_z -> w.block / (gd.x * gd.y)
    | Ptx.Ast.Nctaid -> gd.x
    | Ptx.Ast.Nctaid_y -> gd.y
    | Ptx.Ast.Nctaid_z -> gd.z
    | Ptx.Ast.Laneid -> lane
    | Ptx.Ast.Warpid -> w.in_block)

let operand_value ctx w lane = function
  | Reg r -> get_reg ctx w r lane
  | Const v -> v
  | Param i -> ctx.args.(i)
  | Sreg s -> sreg_value ctx w lane s

(* Local memory is per lane.  [Validate] rejects stores and atomics on
   [.param], and a parameter load resolves to a move. *)
let memory_for ctx w lane = function
  | Ptx.Ast.Global -> ctx.m.global
  | Ptx.Ast.Shared -> ctx.m.shared.(w.block)
  | Ptx.Ast.Local -> local_memory w lane
  | Ptx.Ast.Param -> assert false

let truncate_width width v =
  if width >= 8 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L (8 * width)) 1L)

let eval_binop op a b =
  let open Int64 in
  match op with
  | Ptx.Ast.B_add -> add a b
  | Ptx.Ast.B_sub -> sub a b
  | Ptx.Ast.B_mul -> mul a b
  | Ptx.Ast.B_div -> if b = 0L then 0L else div a b
  | Ptx.Ast.B_rem -> if b = 0L then 0L else rem a b
  | Ptx.Ast.B_min -> if compare a b <= 0 then a else b
  | Ptx.Ast.B_max -> if compare a b >= 0 then a else b
  | Ptx.Ast.B_and -> logand a b
  | Ptx.Ast.B_or -> logor a b
  | Ptx.Ast.B_xor -> logxor a b
  | Ptx.Ast.B_shl -> shift_left a (to_int (logand b 63L))
  | Ptx.Ast.B_shr -> shift_right_logical a (to_int (logand b 63L))

let eval_cmp cmp a b =
  let c = Int64.compare a b in
  match cmp with
  | Ptx.Ast.C_eq -> c = 0
  | Ptx.Ast.C_ne -> c <> 0
  | Ptx.Ast.C_lt -> c < 0
  | Ptx.Ast.C_le -> c <= 0
  | Ptx.Ast.C_gt -> c > 0
  | Ptx.Ast.C_ge -> c >= 0

let eval_atom op ~old ~src ~src2 =
  let open Int64 in
  match op with
  | Ptx.Ast.A_add -> add old src
  | Ptx.Ast.A_exch -> src
  | Ptx.Ast.A_cas -> if old = src then src2 else old
  | Ptx.Ast.A_min -> if compare src old < 0 then src else old
  | Ptx.Ast.A_max -> if compare src old > 0 then src else old
  | Ptx.Ast.A_and -> logand old src
  | Ptx.Ast.A_or -> logor old src
  | Ptx.Ast.A_xor -> logxor old src
  | Ptx.Ast.A_inc -> if compare old src >= 0 then 0L else add old 1L
  | Ptx.Ast.A_dec ->
      if old = 0L || compare old src > 0 then src else sub old 1L

(* Lanes of [mask] where the instruction's guard predicate holds. *)
let guarded_mask ctx w mask insn =
  if insn.guard < 0 then mask
  else begin
    let taken = ref 0 in
    for lane = 0 to ctx.ws - 1 do
      if mask land (1 lsl lane) <> 0
         && (get_reg ctx w insn.guard lane <> 0L) = insn.want
      then taken := !taken lor (1 lsl lane)
    done;
    !taken
  end

(* Pop reconvergence entries reached by the current pc, emitting
   else/fi transitions.  Events are emitted even when every lane of the
   activated path has retired (mask 0): the analysis mirrors the SIMT
   stack pop-for-pop, so eliding a pop would desynchronize it. *)
let rec drain_pops ctx w =
  match Simt_stack.try_pop w.stack with
  | None -> ()
  | Some (Simt_stack.Switched e) ->
      ctx.emit (Event.Branch_else { warp = w.wid; mask = e.Simt_stack.mask });
      drain_pops ctx w
  | Some (Simt_stack.Reconverged e) ->
      ctx.emit (Event.Branch_fi { warp = w.wid; mask = e.Simt_stack.mask });
      drain_pops ctx w

(* One active lane's register-to-register instruction. *)
let exec_lane ctx w lane = function
  | Move { dst; src } -> set_reg ctx w dst lane (operand_value ctx w lane src)
  | Not { dst; src } ->
      let v = operand_value ctx w lane src in
      set_reg ctx w dst lane (if v = 0L then 1L else 0L)
  | Setp { cmp; dst; a; b } ->
      let va = operand_value ctx w lane a in
      let vb = operand_value ctx w lane b in
      set_reg ctx w dst lane (if eval_cmp cmp va vb then 1L else 0L)
  | Binop { bop; dst; a; b } ->
      let va = operand_value ctx w lane a in
      let vb = operand_value ctx w lane b in
      set_reg ctx w dst lane (eval_binop bop va vb)
  | Mad { dst; a; b; c } ->
      let va = operand_value ctx w lane a in
      let vb = operand_value ctx w lane b in
      let vc = operand_value ctx w lane c in
      set_reg ctx w dst lane (Int64.add (Int64.mul va vb) vc)
  | Selp { dst; a; b; pred } ->
      let v =
        if get_reg ctx w pred lane <> 0L then operand_value ctx w lane a
        else operand_value ctx w lane b
      in
      set_reg ctx w dst lane v

(* One warp-wide memory access: lane by lane, so atomics serialize in
   lane order.  The event gets fresh arrays, though no consumer keeps
   them past the event: the session copies them into the record's
   cell. *)
let exec_access ctx w pc active a =
  let addrs = Array.make ctx.ws 0 and values = Array.make ctx.ws 0L in
  for lane = 0 to ctx.ws - 1 do
    if active land (1 lsl lane) <> 0 then begin
      let addr = Int64.to_int (operand_value ctx w lane a.base) + a.offset in
      let mem = memory_for ctx w lane a.space and width = a.width in
      addrs.(lane) <- addr;
      values.(lane) <-
        (match a.kind with
        | Event.Load ->
            let v = Memory.read mem ~addr ~width in
            set_reg ctx w a.dst lane v;
            v
        | Event.Store ->
            let v = truncate_width width (operand_value ctx w lane a.src) in
            Memory.write mem ~addr ~width v;
            v
        | Event.Atomic op ->
            let old = Memory.read mem ~addr ~width in
            let src = operand_value ctx w lane a.src in
            let src2 = operand_value ctx w lane a.src2 in
            let v = truncate_width width (eval_atom op ~old ~src ~src2) in
            Memory.write mem ~addr ~width v;
            set_reg ctx w a.dst lane old;
            v)
    end
  done;
  ctx.emit
    (Event.Access
       { warp = w.wid; insn = pc; kind = a.kind; space = a.space; mask = active; addrs;
         values; width = a.width })

(* Execute one instruction for warp [w].  Returns [true] if the warp made
   progress (it was runnable). *)
let step_warp ctx w =
  if w.finished || w.at_barrier then false
  else begin
    (* Skip entries whose lanes all retired, and take pending pops. *)
    let rec settle () =
      if Simt_stack.is_done w.stack then w.finished <- true
      else begin
        drain_pops ctx w;
        let e = Simt_stack.top w.stack in
        if e.Simt_stack.mask = 0 then begin
          (* all lanes of this path retired: fast-forward to its pop *)
          if e.Simt_stack.reconv = max_int then w.finished <- true
          else begin
            Simt_stack.set_pc w.stack e.Simt_stack.reconv;
            settle ()
          end
        end
        else if Simt_stack.pc w.stack >= Array.length ctx.prog then begin
          (* fell off the end: implicit ret for the active path *)
          let lanes = Simt_stack.active_mask w.stack in
          Simt_stack.retire w.stack lanes;
          settle ()
        end
      end
    in
    settle ();
    if w.finished then false
    else begin
      let pc = Simt_stack.pc w.stack in
      let insn = ctx.prog.(pc) in
      let path_mask = Simt_stack.active_mask w.stack in
      ctx.dyn_instructions <- ctx.dyn_instructions + 1;
      (* a nop's guard is never read *)
      let active =
        match insn.op with Nop -> 0 | _ -> guarded_mask ctx w path_mask insn
      in
      (match insn.op with
      | Bra { target; reconv } ->
          let not_taken = path_mask land lnot active in
          if active = 0 then Simt_stack.set_pc w.stack (pc + 1)
          else if not_taken = 0 then Simt_stack.set_pc w.stack target
          else begin
            Telemetry.Metric.counter_incr m_branch_div;
            ctx.emit
              (Event.Branch_if
                 { warp = w.wid; insn = pc; then_mask = not_taken; else_mask = active });
            (* fallthrough path executes first, taken path second *)
            Simt_stack.diverge w.stack ~reconv ~first:(pc + 1, not_taken)
              ~second:(target, active)
          end
      | Ret ->
          w.retired <- w.retired lor active;
          Simt_stack.retire w.stack active;
          if active <> path_mask then Simt_stack.set_pc w.stack (pc + 1)
      | Bar ->
          let live = w.init_mask land lnot w.retired in
          if active <> live then begin
            ctx.barrier_divergence <- true;
            Telemetry.Metric.counter_incr m_barrier_div;
            ctx.emit
              (Event.Barrier_divergence
                 { warp = w.wid; insn = pc; mask = active; expected = live })
          end;
          w.at_barrier <- true;
          Simt_stack.set_pc w.stack (pc + 1)
      | Membar scope ->
          ctx.emit (Event.Fence { warp = w.wid; insn = pc; scope; mask = active });
          Simt_stack.set_pc w.stack (pc + 1)
      | Access a ->
          if active <> 0 then exec_access ctx w pc active a;
          Simt_stack.set_pc w.stack (pc + 1)
      | Alu alu ->
          for lane = 0 to ctx.ws - 1 do
            if active land (1 lsl lane) <> 0 then exec_lane ctx w lane alu
          done;
          Simt_stack.set_pc w.stack (pc + 1)
      | Nop -> Simt_stack.set_pc w.stack (pc + 1));
      true
    end
  end

(* A block's barrier opens when every unfinished warp of the block is
   waiting at it.  Finished warps count as arrived so the simulation
   makes progress, but a warp that terminated without reaching a
   barrier its siblings wait at is a barrier divergence (real code
   "is likely to hang", §3.3.2) and is reported as such. *)
let release_barrier_of_block ctx b =
  let wpb = Vclock.Layout.warps_per_block ctx.m.layout in
  let first = b * wpb in
  let waiting = ref false and all_arrived = ref true in
  for i = first to first + wpb - 1 do
    let w = ctx.warps.(i) in
    if w.at_barrier then waiting := true
    else if not w.finished then all_arrived := false
  done;
  if !waiting && !all_arrived then begin
    for i = first to first + wpb - 1 do
      let w = ctx.warps.(i) in
      if w.finished && not w.at_barrier then begin
        ctx.barrier_divergence <- true;
        Telemetry.Metric.counter_incr m_barrier_div;
        ctx.emit
          (Event.Barrier_divergence
             { warp = w.wid; insn = -1; mask = 0; expected = w.init_mask })
      end
    done;
    ctx.emit (Event.Barrier { block = b });
    for i = first to first + wpb - 1 do
      ctx.warps.(i).at_barrier <- false
    done
  end

let release_barriers ctx =
  for b = 0 to ctx.m.layout.Vclock.Layout.blocks - 1 do
    release_barrier_of_block ctx b
  done

let launch ?(max_steps = 50_000_000) ?deadline_ns ?fault ?(on_event = fun _ -> ())
    t kernel args =
  let check_arity () =
    if List.length kernel.Ptx.Ast.params <> Array.length args then
      invalid_arg
        (Printf.sprintf "kernel %s expects %d arguments, got %d"
           kernel.Ptx.Ast.kname
           (List.length kernel.Ptx.Ast.params)
           (Array.length args))
  in
  (* A miss reports in the order a launch always has: validation, the
     argument count, then resolution. *)
  let { code; nregs }, _ =
    Lru.find_or_build memo kernel ~build:(fun () ->
        Ptx.Validate.check_exn kernel;
        check_arity ();
        resolve kernel)
  in
  check_arity ();
  let layout = t.layout in
  let ws = layout.Vclock.Layout.warp_size in
  let warps =
    Array.init (Vclock.Layout.total_warps layout) (fun wid ->
        let mask = Vclock.Layout.full_mask layout ~warp:wid in
        let block = Vclock.Layout.block_of_warp layout wid in
        {
          wid;
          block;
          in_block = wid - (block * Vclock.Layout.warps_per_block layout);
          init_mask = mask;
          stack = Simt_stack.create ~pc:0 ~mask;
          regs = Bytes.make (nregs * ws * 8) '\000';
          touched = Bytes.make nregs '\000';
          local = Array.make ws None;
          retired = 0;
          at_barrier = false;
          finished = false;
        })
  in
  let ctx =
    {
      m = t;
      prog = code;
      args;
      ws;
      warps;
      emit = on_event;
      dyn_instructions = 0;
      barrier_divergence = false;
      rng = (match t.policy with Random s -> (s lor 1) land max_int | Round_robin -> 1);
    }
  in
  let nw = Array.length warps in
  let steps = ref 0 in
  let cursor = ref 0 in
  let finished_run = ref false in
  let deadline_hit = ref false in
  (* gpuFI-style architectural fault schedule: seeded (step, fault)
     pairs, applied when execution reaches each step.  Raw selectors
     are reduced modulo the live population at injection time; faults
     scheduled past the end of a short run never fire. *)
  let mfaults =
    match fault with Some p -> Fault.Plan.machine_faults p | None -> [||]
  in
  let mfi = ref 0 in
  let apply_machine_fault = function
    | Fault.Plan.Reg_flip { warp_r; reg_r; lane_r; bit } -> (
        (* among the registers the warp has touched, in name order *)
        let w = warps.(warp_r mod nw) in
        match List.filter (fun r -> Bytes.get w.touched r <> '\000') (List.init nregs Fun.id) with
        | [] -> ()
        | touched ->
            let r = List.nth touched (reg_r mod List.length touched) in
            let at = ((r * ws) + (lane_r mod ws)) * 8 in
            Bytes.set_int64_le w.regs at
              (Int64.logxor (Bytes.get_int64_le w.regs at) (Int64.shift_left 1L (bit land 63)));
            Option.iter Fault.Plan.note_reg_applied fault)
    | Fault.Plan.Smem_flip { block_r; addr_r; bit } ->
        let mem = t.shared.(block_r mod layout.Vclock.Layout.blocks) in
        let fp = Memory.footprint mem in
        if fp > 0 then begin
          let addr = addr_r mod fp in
          let v = Memory.read mem ~addr ~width:1 in
          Memory.write mem ~addr ~width:1
            (Int64.logxor v (Int64.shift_left 1L (bit land 7)));
          Option.iter Fault.Plan.note_smem_applied fault
        end
  in
  (try
     while not !finished_run do
       if !steps >= max_steps then raise Stdlib.Exit;
       (match deadline_ns with
       | Some d ->
           (* Cooperative wall-clock budget, polled every 1024 steps so
              the clock read stays off the per-instruction path. *)
           if !steps land 1023 = 0 && Telemetry.Clock.now_ns () >= d then begin
             deadline_hit := true;
             raise Stdlib.Exit
           end
       | None -> ());
       while
         !mfi < Array.length mfaults && fst mfaults.(!mfi) <= !steps
       do
         apply_machine_fault (snd mfaults.(!mfi));
         incr mfi
       done;
       (* pick a runnable warp *)
       let picked = ref (-1) in
       let start =
         match t.policy with
         | Round_robin -> !cursor
         | Random _ -> next_rand ctx mod nw
       in
       let i = ref 0 in
       while !picked < 0 && !i < nw do
         let c = (start + !i) mod nw in
         let w = warps.(c) in
         if (not w.finished) && not w.at_barrier then picked := c;
         incr i
       done;
       if !picked < 0 then begin
         (* everyone blocked or done: open barriers or finish *)
         if Array.for_all (fun w -> w.finished) warps then finished_run := true
         else begin
           release_barriers ctx;
           if Array.for_all (fun w -> w.finished || w.at_barrier) warps then begin
             (* nothing opened: stuck block(s); report and force-release *)
             Array.iter
               (fun w ->
                 if w.at_barrier then begin
                   ctx.barrier_divergence <- true;
                   w.at_barrier <- false
                 end)
               warps;
             release_barriers ctx
           end
         end
       end
       else begin
         let w = warps.(!picked) in
         if step_warp ctx w then incr steps;
         cursor := (!picked + 1) mod nw;
         if w.at_barrier || w.finished then
           release_barrier_of_block ctx w.block
       end
     done
   with Stdlib.Exit -> ());
  on_event Event.Kernel_done;
  Telemetry.Metric.counter_incr m_launches;
  Telemetry.Metric.counter_add m_instructions ctx.dyn_instructions;
  {
    status =
      (if !finished_run then Completed
       else if !deadline_hit then Deadline !steps
       else Max_steps !steps);
    dyn_instructions = ctx.dyn_instructions;
    barrier_divergence = ctx.barrier_divergence;
  }
