type result = {
  kernel : Ptx.Ast.kernel;
  origin : int array;
  logged : bool array;
  stats : Stats.t;
}

(* Instrumentation telemetry: the "instrument" stage span plus static
   rewrite totals (what Figure 9 reports per benchmark). *)
let m_kernels =
  Telemetry.Registry.counter ~help:"Kernels instrumented"
    Telemetry.Registry.default "barracuda_instrument_kernels_total"

let m_logged =
  Telemetry.Registry.counter
    ~help:"Static instructions given logging calls"
    Telemetry.Registry.default "barracuda_instrument_logged_total"

let m_pruned =
  Telemetry.Registry.counter
    ~help:"Static instructions whose logging was pruned"
    Telemetry.Registry.default "barracuda_instrument_pruned_total"

let m_pruned_block =
  Telemetry.Registry.counter
    ~help:"Logging pruned by intra-block redundancy elimination"
    Telemetry.Registry.default "barracuda_instrument_pruned_block_total"

let m_pruned_static =
  Telemetry.Registry.counter
    ~help:"Logging pruned by the static race analysis"
    Telemetry.Registry.default "barracuda_instrument_pruned_static_total"

(* Model of one device-side logging call: compute the record slot,
   stash the access address into the (thread-private) record, bump the
   local cursor.  Uses reserved %lg registers so it can never clash
   with application registers. *)
let logging_call ~guard seq =
  let tag = Int64.of_int seq in
  [
    Ptx.Ast.mk ?guard (Ptx.Ast.Mov { dst = "%lg1"; src = Ptx.Ast.Imm tag });
    Ptx.Ast.mk ?guard
      (Ptx.Ast.Mad
         {
           dst = "%lg2";
           a = Ptx.Ast.Reg "%lgtid";
           b = Ptx.Ast.Imm 8L;
           c = Ptx.Ast.Reg "%lg1";
         });
    Ptx.Ast.mk ?guard
      (Ptx.Ast.St
         {
           space = Ptx.Ast.Local;
           cache = Ptx.Ast.Ca;
           width = 8;
           src = Ptx.Ast.Reg "%lg2";
           addr = { Ptx.Ast.base = Ptx.Ast.Imm 0L; offset = 0 };
         });
    Ptx.Ast.mk ?guard
      (Ptx.Ast.Binop
         {
           op = Ptx.Ast.B_add;
           dst = "%lg3";
           a = Ptx.Ast.Reg "%lg3";
           b = Ptx.Ast.Imm 1L;
         });
  ]

(* The unique-TID preamble: tid = ctaid * ntid + tid.x (§4.1). *)
let tid_preamble =
  [
    Ptx.Ast.mk
      (Ptx.Ast.Mad
         {
           dst = "%lgtid";
           a = Ptx.Ast.Sreg Ptx.Ast.Ctaid;
           b = Ptx.Ast.Sreg Ptx.Ast.Ntid;
           c = Ptx.Ast.Sreg Ptx.Ast.Tid;
         });
  ]

let needs_logging kind =
  match kind with
  | Ptx.Ast.Ld { space = Ptx.Ast.Global | Ptx.Ast.Shared; _ }
  | Ptx.Ast.St { space = Ptx.Ast.Global | Ptx.Ast.Shared; _ }
  | Ptx.Ast.Atom { space = Ptx.Ast.Global | Ptx.Ast.Shared; _ }
  | Ptx.Ast.Membar _ | Ptx.Ast.Bar_sync _ ->
      true
  | Ptx.Ast.Ld _ | Ptx.Ast.St _ | Ptx.Ast.Atom _ | Ptx.Ast.Bra _
  | Ptx.Ast.Setp _ | Ptx.Ast.Mov _ | Ptx.Ast.Binop _ | Ptx.Ast.Mad _
  | Ptx.Ast.Selp _ | Ptx.Ast.Not _ | Ptx.Ast.Cvt _ | Ptx.Ast.Ret
  | Ptx.Ast.Exit | Ptx.Ast.Nop ->
      false

let is_guarded_access insn =
  insn.Ptx.Ast.guard <> None && needs_logging insn.Ptx.Ast.kind
  &&
  match insn.Ptx.Ast.kind with
  | Ptx.Ast.Ld _ | Ptx.Ast.St _ | Ptx.Ast.Atom _ -> true
  | _ -> false

(* Convergence points: the first instruction of every reconvergence
   block of a conditional branch, short of the exit. *)
let convergence_points (k : Ptx.Ast.kernel) =
  let n = Array.length k.Ptx.Ast.body in
  let points = Array.make n false in
  Array.iter
    (fun pc -> if pc >= 0 && pc < n then points.(pc) <- true)
    (Cfg.Dominance.reconvergence_pcs k);
  points

let instrument_run ~prune ~static ~layout (k : Ptx.Ast.kernel) =
  let n = Array.length k.Ptx.Ast.body in
  let static_safe =
    if static then Static.Plan.drops (Static.Plan.of_kernel k) ~layout
    else Array.make n false
  in
  let redundant =
    if prune then Prune.redundant ~exclude:static_safe k
    else Array.make n false
  in
  let conv = convergence_points k in
  let logged = Array.make n false in
  let out = ref [] in
  let origin = ref [] in
  let seq = ref 0 in
  let stats_mem = ref 0
  and stats_sync = ref 0
  and stats_conv = ref 0
  and stats_pruned_block = ref 0
  and stats_pruned_static = ref 0
  and stats_pred = ref 0 in
  let fresh_label_counter = ref 0 in
  let emit ~orig insn =
    out := insn :: !out;
    origin := orig :: !origin
  in
  let emit_logging ~label ~guard =
    incr seq;
    List.iteri
      (fun idx insn ->
        let insn =
          if idx = 0 then { insn with Ptx.Ast.label } else insn
        in
        emit ~orig:(-1) insn)
      (logging_call ~guard !seq)
  in
  List.iter (emit ~orig:(-1)) tid_preamble;
  Array.iteri
    (fun i insn ->
      let conv_here = conv.(i) in
      if conv_here then begin
        incr stats_conv;
        (* convergence logging absorbs the instruction's label so jumps
           to the join point hit the logging call first *)
        emit_logging ~label:insn.Ptx.Ast.label ~guard:None;
        if is_guarded_access insn || not (needs_logging insn.Ptx.Ast.kind)
        then ()
      end;
      let insn =
        if conv_here then { insn with Ptx.Ast.label = None } else insn
      in
      if needs_logging insn.Ptx.Ast.kind then begin
        let count_kind () =
          match insn.Ptx.Ast.kind with
          | Ptx.Ast.Membar _ | Ptx.Ast.Bar_sync _ -> incr stats_sync
          | _ -> incr stats_mem
        in
        if static_safe.(i) then begin
          (* provably race-free (or provably private/dead): keep the
             instruction, drop its logging *)
          incr stats_pruned_static;
          emit ~orig:i insn
        end
        else if redundant.(i) then begin
          incr stats_pruned_block;
          emit ~orig:i insn
        end
        else if is_guarded_access insn then begin
          (* predicated access: rewrite to a branch over logging+access *)
          incr stats_pred;
          count_kind ();
          logged.(i) <- true;
          let want, p =
            match insn.Ptx.Ast.guard with
            | Some g -> g
            | None -> assert false
          in
          incr fresh_label_counter;
          let skip =
            Printf.sprintf "L_lg_%s_%d" k.Ptx.Ast.kname !fresh_label_counter
          in
          emit ~orig:(-1)
            (Ptx.Ast.mk ~guard:(not want, p) ?label:insn.Ptx.Ast.label
               (Ptx.Ast.Bra { uni = false; target = skip }));
          emit_logging ~label:None ~guard:None;
          emit ~orig:i { insn with Ptx.Ast.label = None; guard = None };
          emit ~orig:(-1) (Ptx.Ast.mk ~label:skip Ptx.Ast.Nop)
        end
        else begin
          count_kind ();
          logged.(i) <- true;
          emit_logging ~label:insn.Ptx.Ast.label ~guard:insn.Ptx.Ast.guard;
          emit ~orig:i { insn with Ptx.Ast.label = None }
        end
      end
      else emit ~orig:i insn)
    k.Ptx.Ast.body;
  let body = Array.of_list (List.rev !out) in
  let origin = Array.of_list (List.rev !origin) in
  let stats =
    {
      Stats.total_static = n;
      mem_logged = !stats_mem;
      sync_logged = !stats_sync;
      convergence_logged = !stats_conv;
      pruned_block = !stats_pruned_block;
      pruned_static = !stats_pruned_static;
      predicated_rewritten = !stats_pred;
    }
  in
  let kernel = { k with Ptx.Ast.body } in
  { kernel; origin; logged; stats }

let instrument ?(prune = true) ?(static = true) ~layout (k : Ptx.Ast.kernel) =
  let r =
    Telemetry.Span.with_ ~name:"instrument" (fun () ->
        instrument_run ~prune ~static ~layout k)
  in
  Telemetry.Metric.counter_incr m_kernels;
  Telemetry.Metric.counter_add m_logged
    (Stats.instrumented r.stats);
  Telemetry.Metric.counter_add m_pruned (Stats.pruned r.stats);
  Telemetry.Metric.counter_add m_pruned_block
    r.stats.Stats.pruned_block;
  Telemetry.Metric.counter_add m_pruned_static
    r.stats.Stats.pruned_static;
  r
