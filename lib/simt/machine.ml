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
(* Per-launch state                                                    *)

type warp_state = {
  wid : int; (* global warp id *)
  block : int;
  init_mask : int;
  stack : Simt_stack.t;
  regs : (string, int64 array) Hashtbl.t; (* reg -> per-lane values *)
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
  kernel : Ptx.Ast.kernel;
  labels : (string, int) Hashtbl.t;
  params : (string * int64) list;
  shared_syms : (string * int) list; (* symbol -> offset in block segment *)
  reconv_pc : int array; (* per conditional-branch insn: reconvergence pc *)
  warps : warp_state array;
  emit : Event.t -> unit;
  end_pc : int; (* = body length; virtual return point *)
  mutable dyn_instructions : int;
  mutable barrier_divergence : bool;
  mutable rng : int;
}

let ws_of ctx = ctx.m.layout.Vclock.Layout.warp_size

let next_rand ctx =
  (* xorshift64* *)
  let x = ctx.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  ctx.rng <- x land max_int;
  ctx.rng

let get_reg ctx w name lane =
  match Hashtbl.find_opt w.regs name with
  | Some arr -> arr.(lane)
  | None ->
      let arr = Array.make (ws_of ctx) 0L in
      Hashtbl.add w.regs name arr;
      arr.(lane)

let set_reg ctx w name lane v =
  let arr =
    match Hashtbl.find_opt w.regs name with
    | Some arr -> arr
    | None ->
        let arr = Array.make (ws_of ctx) 0L in
        Hashtbl.add w.regs name arr;
        arr
  in
  arr.(lane) <- v

let sreg_value ctx w lane sreg =
  let layout = ctx.m.layout in
  let in_block_tid () =
    let tid = Vclock.Layout.tid_of_warp_lane layout ~warp:w.wid ~lane in
    tid - Vclock.Layout.first_tid_of_block layout w.block
  in
  Int64.of_int
    (match sreg with
    | Ptx.Ast.Tid -> (Vclock.Layout.thread_coords layout (in_block_tid ())).x
    | Ptx.Ast.Tid_y -> (Vclock.Layout.thread_coords layout (in_block_tid ())).y
    | Ptx.Ast.Tid_z -> (Vclock.Layout.thread_coords layout (in_block_tid ())).z
    | Ptx.Ast.Ntid -> layout.Vclock.Layout.block_dim.x
    | Ptx.Ast.Ntid_y -> layout.Vclock.Layout.block_dim.y
    | Ptx.Ast.Ntid_z -> layout.Vclock.Layout.block_dim.z
    | Ptx.Ast.Ctaid -> (Vclock.Layout.block_coords layout w.block).x
    | Ptx.Ast.Ctaid_y -> (Vclock.Layout.block_coords layout w.block).y
    | Ptx.Ast.Ctaid_z -> (Vclock.Layout.block_coords layout w.block).z
    | Ptx.Ast.Nctaid -> layout.Vclock.Layout.grid_dim.x
    | Ptx.Ast.Nctaid_y -> layout.Vclock.Layout.grid_dim.y
    | Ptx.Ast.Nctaid_z -> layout.Vclock.Layout.grid_dim.z
    | Ptx.Ast.Laneid -> lane
    | Ptx.Ast.Warpid ->
        let wpb = Vclock.Layout.warps_per_block layout in
        w.wid - (w.block * wpb))

let sym_value ctx name =
  match List.assoc_opt name ctx.params with
  | Some v -> v
  | None -> (
      match List.assoc_opt name ctx.shared_syms with
      | Some off -> Int64.of_int off
      | None -> invalid_arg ("unknown symbol " ^ name))

let operand_value ctx w lane = function
  | Ptx.Ast.Reg r -> get_reg ctx w r lane
  | Ptx.Ast.Imm v -> v
  | Ptx.Ast.Sym s -> sym_value ctx s
  | Ptx.Ast.Sreg s -> sreg_value ctx w lane s

let address_value ctx w lane (a : Ptx.Ast.address) =
  Int64.to_int (operand_value ctx w lane a.base) + a.offset

(* Local memory is resolved per-lane at the access sites. *)
let memory_for ctx w = function
  | Ptx.Ast.Global -> ctx.m.global
  | Ptx.Ast.Shared -> ctx.m.shared.(w.block)
  | Ptx.Ast.Local | Ptx.Ast.Param ->
      invalid_arg "memory_for: local/param resolved elsewhere"

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
  | Ptx.Ast.A_cas -> (
      match src2 with
      | Some value -> if old = src then value else old
      | None -> assert false)
  | Ptx.Ast.A_min -> if compare src old < 0 then src else old
  | Ptx.Ast.A_max -> if compare src old > 0 then src else old
  | Ptx.Ast.A_and -> logand old src
  | Ptx.Ast.A_or -> logor old src
  | Ptx.Ast.A_xor -> logxor old src
  | Ptx.Ast.A_inc -> if compare old src >= 0 then 0L else add old 1L
  | Ptx.Ast.A_dec ->
      if old = 0L || compare old src > 0 then src else sub old 1L

(* Lanes of [mask] where the instruction's guard predicate holds. *)
let guarded_mask ctx w mask = function
  | None -> mask
  | Some (want, p) ->
      List.fold_left
        (fun acc lane ->
          let v = get_reg ctx w p lane in
          if (v <> 0L) = want then acc lor (1 lsl lane) else acc)
        0
        (Event.mask_lanes mask)

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

let exec_memory_access ctx w insn_idx active kind =
  let ws = ws_of ctx in
  match kind with
  | Ptx.Ast.Ld { space = Ptx.Ast.Param; dst; addr; _ } ->
      (* parameter load: a register move, no memory event *)
      List.iter
        (fun lane ->
          let v =
            match addr.Ptx.Ast.base with
            | Ptx.Ast.Sym s -> sym_value ctx s
            | o -> operand_value ctx w lane o
          in
          set_reg ctx w dst lane v)
        (Event.mask_lanes active)
  | Ptx.Ast.Ld { space; width; dst; addr; _ } ->
      let addrs = Array.make ws 0 in
      let values = Array.make ws 0L in
      List.iter
        (fun lane ->
          let a = address_value ctx w lane addr in
          let mem =
            match space with
            | Ptx.Ast.Local -> local_memory w lane
            | _ -> memory_for ctx w space
          in
          let v = Memory.read mem ~addr:a ~width in
          addrs.(lane) <- a;
          values.(lane) <- v;
          set_reg ctx w dst lane v)
        (Event.mask_lanes active);
      ctx.emit
        (Event.Access
           {
             warp = w.wid;
             insn = insn_idx;
             kind = Event.Load;
             space;
             mask = active;
             addrs;
             values;
             width;
           })
  | Ptx.Ast.St { space; width; src; addr; _ } ->
      let addrs = Array.make ws 0 in
      let values = Array.make ws 0L in
      List.iter
        (fun lane ->
          let a = address_value ctx w lane addr in
          let v = truncate_width width (operand_value ctx w lane src) in
          let mem =
            match space with
            | Ptx.Ast.Local -> local_memory w lane
            | _ -> memory_for ctx w space
          in
          Memory.write mem ~addr:a ~width v;
          addrs.(lane) <- a;
          values.(lane) <- v)
        (Event.mask_lanes active);
      ctx.emit
        (Event.Access
           {
             warp = w.wid;
             insn = insn_idx;
             kind = Event.Store;
             space;
             mask = active;
             addrs;
             values;
             width;
           })
  | Ptx.Ast.Atom { space; op; width; dst; addr; src; src2 } ->
      let addrs = Array.make ws 0 in
      let values = Array.make ws 0L in
      List.iter
        (fun lane ->
          let a = address_value ctx w lane addr in
          let mem =
            match space with
            | Ptx.Ast.Local -> local_memory w lane
            | _ -> memory_for ctx w space
          in
          let old = Memory.read mem ~addr:a ~width in
          let sv = operand_value ctx w lane src in
          let s2 = Option.map (operand_value ctx w lane) src2 in
          let nv = truncate_width width (eval_atom op ~old ~src:sv ~src2:s2) in
          Memory.write mem ~addr:a ~width nv;
          set_reg ctx w dst lane old;
          addrs.(lane) <- a;
          values.(lane) <- nv)
        (Event.mask_lanes active);
      ctx.emit
        (Event.Access
           {
             warp = w.wid;
             insn = insn_idx;
             kind = Event.Atomic op;
             space;
             mask = active;
             addrs;
             values;
             width;
           })
  | _ -> assert false

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
        else if Simt_stack.pc w.stack >= ctx.end_pc then begin
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
      let insn = ctx.kernel.Ptx.Ast.body.(pc) in
      let path_mask = Simt_stack.active_mask w.stack in
      ctx.dyn_instructions <- ctx.dyn_instructions + 1;
      (match insn.Ptx.Ast.kind with
      | Ptx.Ast.Bra { target; _ } ->
          let tgt = Hashtbl.find ctx.labels target in
          let taken = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          let not_taken = path_mask land lnot taken in
          if taken = 0 then Simt_stack.set_pc w.stack (pc + 1)
          else if not_taken = 0 then Simt_stack.set_pc w.stack tgt
          else begin
            let reconv = ctx.reconv_pc.(pc) in
            Telemetry.Metric.counter_incr m_branch_div;
            ctx.emit
              (Event.Branch_if
                 { warp = w.wid; insn = pc; then_mask = not_taken; else_mask = taken });
            (* fallthrough path executes first, taken path second *)
            Simt_stack.diverge w.stack ~reconv ~first:(pc + 1, not_taken)
              ~second:(tgt, taken)
          end
      | Ptx.Ast.Ret | Ptx.Ast.Exit ->
          let lanes = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          w.retired <- w.retired lor lanes;
          Simt_stack.retire w.stack lanes;
          if lanes <> path_mask then Simt_stack.set_pc w.stack (pc + 1)
      | Ptx.Ast.Bar_sync _ ->
          let live = w.init_mask land lnot w.retired in
          let active = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          if active <> live then begin
            ctx.barrier_divergence <- true;
            Telemetry.Metric.counter_incr m_barrier_div;
            ctx.emit
              (Event.Barrier_divergence
                 { warp = w.wid; insn = pc; mask = active; expected = live })
          end;
          w.at_barrier <- true;
          Simt_stack.set_pc w.stack (pc + 1)
      | Ptx.Ast.Membar scope ->
          let active = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          ctx.emit
            (Event.Fence { warp = w.wid; insn = pc; scope; mask = active });
          Simt_stack.set_pc w.stack (pc + 1)
      | Ptx.Ast.Ld _ | Ptx.Ast.St _ | Ptx.Ast.Atom _ ->
          let active = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          if active <> 0 then
            exec_memory_access ctx w pc active insn.Ptx.Ast.kind;
          Simt_stack.set_pc w.stack (pc + 1)
      | Ptx.Ast.Setp { cmp; dst; a; b } ->
          let active = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          List.iter
            (fun lane ->
              let va = operand_value ctx w lane a in
              let vb = operand_value ctx w lane b in
              set_reg ctx w dst lane (if eval_cmp cmp va vb then 1L else 0L))
            (Event.mask_lanes active);
          Simt_stack.set_pc w.stack (pc + 1)
      | Ptx.Ast.Mov { dst; src } | Ptx.Ast.Cvt { dst; src } ->
          let active = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          List.iter
            (fun lane -> set_reg ctx w dst lane (operand_value ctx w lane src))
            (Event.mask_lanes active);
          Simt_stack.set_pc w.stack (pc + 1)
      | Ptx.Ast.Not { dst; src } ->
          let active = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          List.iter
            (fun lane ->
              let v = operand_value ctx w lane src in
              set_reg ctx w dst lane (if v = 0L then 1L else 0L))
            (Event.mask_lanes active);
          Simt_stack.set_pc w.stack (pc + 1)
      | Ptx.Ast.Binop { op; dst; a; b } ->
          let active = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          List.iter
            (fun lane ->
              let va = operand_value ctx w lane a in
              let vb = operand_value ctx w lane b in
              set_reg ctx w dst lane (eval_binop op va vb))
            (Event.mask_lanes active);
          Simt_stack.set_pc w.stack (pc + 1)
      | Ptx.Ast.Mad { dst; a; b; c } ->
          let active = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          List.iter
            (fun lane ->
              let va = operand_value ctx w lane a in
              let vb = operand_value ctx w lane b in
              let vc = operand_value ctx w lane c in
              set_reg ctx w dst lane (Int64.add (Int64.mul va vb) vc))
            (Event.mask_lanes active);
          Simt_stack.set_pc w.stack (pc + 1)
      | Ptx.Ast.Selp { dst; a; b; pred } ->
          let active = guarded_mask ctx w path_mask insn.Ptx.Ast.guard in
          List.iter
            (fun lane ->
              let p = get_reg ctx w pred lane in
              let v =
                if p <> 0L then operand_value ctx w lane a
                else operand_value ctx w lane b
              in
              set_reg ctx w dst lane v)
            (Event.mask_lanes active);
          Simt_stack.set_pc w.stack (pc + 1)
      | Ptx.Ast.Nop -> Simt_stack.set_pc w.stack (pc + 1));
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
  Ptx.Validate.check_exn kernel;
  if List.length kernel.Ptx.Ast.params <> Array.length args then
    invalid_arg
      (Printf.sprintf "kernel %s expects %d arguments, got %d"
         kernel.Ptx.Ast.kname
         (List.length kernel.Ptx.Ast.params)
         (Array.length args));
  let layout = t.layout in
  let g = Cfg.Graph.of_kernel kernel in
  let pdoms = Cfg.Dominance.post_dominators g in
  let n = Array.length kernel.Ptx.Ast.body in
  let reconv_pc =
    Array.init n (fun i ->
        if Cfg.Graph.is_conditional_branch g i then
          let rb = Cfg.Dominance.reconvergence_block g pdoms i in
          if rb = Cfg.Graph.exit_node g then n
          else (Cfg.Graph.blocks g).(rb).Cfg.Graph.first
        else -1)
  in
  (* Shared symbol offsets, in declaration order. *)
  let shared_syms =
    let off = ref 0 in
    List.map
      (fun (name, size) ->
        let base = !off in
        off := (!off + size + 7) land lnot 7;
        (name, base))
      kernel.Ptx.Ast.shared_decls
  in
  let params = List.combine kernel.Ptx.Ast.params (Array.to_list args) in
  let ws = layout.Vclock.Layout.warp_size in
  let warps =
    Array.init (Vclock.Layout.total_warps layout) (fun wid ->
        let mask = Vclock.Layout.full_mask layout ~warp:wid in
        {
          wid;
          block = Vclock.Layout.block_of_warp layout wid;
          init_mask = mask;
          stack = Simt_stack.create ~pc:0 ~mask;
          regs = Hashtbl.create 32;
          local = Array.make ws None;
          retired = 0;
          at_barrier = false;
          finished = false;
        })
  in
  let ctx =
    {
      m = t;
      kernel;
      labels = Ptx.Ast.label_index kernel;
      params;
      shared_syms;
      reconv_pc;
      warps;
      emit = on_event;
      end_pc = n;
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
        let w = warps.(warp_r mod nw) in
        let names =
          List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) w.regs [])
        in
        match names with
        | [] -> ()
        | _ :: _ ->
            let name = List.nth names (reg_r mod List.length names) in
            let arr = Hashtbl.find w.regs name in
            let lane = lane_r mod Array.length arr in
            arr.(lane) <-
              Int64.logxor arr.(lane) (Int64.shift_left 1L (bit land 63));
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
