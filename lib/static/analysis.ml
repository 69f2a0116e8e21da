(* Per-access race verdicts.

   Soundness contract (the HB model is the detector's: program order,
   warp-lockstep join after every access record, block barriers, and
   fence-induced acquire/release):

   - [Safe] accesses may have their logging dropped without changing
     the detected race set.  Every rule proves the access's footprint
     can never be part of a cross-thread conflicting pair:
       * distinct spaces / both-loads pairs cannot conflict;
       * slot-per-thread and constant-distinct footprints are disjoint
         for every pair of distinct threads (cross-thread privacy means
         every shadow cell the access touches is only ever touched by
         its own thread, so all shadow interactions stay intra-thread
         and HB-ordered);
       * shared-space pairs separated by a chain barrier are ordered by
         that barrier's block-wide clock merge for every thread pair.
     Distinct kernel pointer parameters prove nothing: a launch may
     bind two of them to one buffer ([int:] argument specs do).
     Slot-per-thread footprints are written over [%tid.x] and
     [%ctaid.x], so their disjointness holds on 1-D launches only;
     {!Plan} applies the verdicts there alone.
     Accesses with fence-induced (non-Plain) roles and atomics are
     never Safe: their records carry synchronization/shadow side
     effects for *other* accesses.

   - [Racy] pairs must be certainly wrong: both accesses execute in
     every thread (their blocks dominate exit), in the same pinned
     barrier phase, at provably overlapping uniform addresses, with at
     least one plain store, in a kernel with no fences (so no sync
     edge can order them) — any two threads from different warps then
     produce an unordered conflicting pair.  Same-instruction pairs
     are excluded (the detector's same-value write filter may suppress
     them).  A pair still needs enough warps in the launch layout to
     materialize; [report] checks that. *)

type klass = Thread_uniform | Lane_affine | Thread_private | Unknown_addr

type safe_reason =
  | Read_only
  | Disjoint_footprints
  | Barrier_phased
  | Private_space
  | Dead_code

type layout_need = { min_warps : int; min_block_warps : int }

type racy_pair = {
  a_insn : int;
  b_insn : int;
  pair_space : Ptx.Ast.space;
  base_param : string option; (* global base parameter, when any *)
  addr : int64; (* byte offset: absolute/segment, or param-relative *)
  pair_width : int;
  a_write : bool;
  b_write : bool;
  need : layout_need;
}

type verdict = Safe of safe_reason | Racy | Unknown

type access = {
  insn : int;
  space : Ptx.Ast.space;
  width : int;
  is_store : bool;
  is_atomic : bool;
  guarded : bool;
  plain : bool; (* fence-role-free *)
  addr : Affine.t;
  block : int;
  dead : bool;
}

type t = {
  kernel : Ptx.Ast.kernel;
  roles : Gtrace.Roles.t array;
  accesses : access array;
  verdicts : verdict option array; (* per insn; None = not a memory access *)
  classes : klass array; (* per insn; Unknown_addr for non-accesses *)
  pairs : racy_pair list;
}

(* ---- telemetry --------------------------------------------------- *)

let m_kernels =
  Telemetry.Registry.counter ~help:"Kernels statically analyzed"
    Telemetry.Registry.default "barracuda_static_kernels_total"

let m_safe =
  Telemetry.Registry.counter
    ~help:"Accesses proven race-free by the static analysis"
    Telemetry.Registry.default "barracuda_static_safe_total"

let m_racy =
  Telemetry.Registry.counter
    ~help:"Accesses proven racy by the static analysis"
    Telemetry.Registry.default "barracuda_static_racy_total"

let m_unknown =
  Telemetry.Registry.counter
    ~help:"Accesses the static analysis left for dynamic checking"
    Telemetry.Registry.default "barracuda_static_unknown_total"

let m_pairs =
  Telemetry.Registry.counter ~help:"Provably-racy access pairs found"
    Telemetry.Registry.default "barracuda_static_racy_pairs_total"

(* ---- footprint comparisons --------------------------------------- *)

let iabs v = if Int64.compare v 0L < 0 then Int64.neg v else v

(* d + w <= |s|, computed safely under wrapping. *)
let slots_apart ~stride ~delta ~width =
  let s = iabs stride and d = iabs delta in
  Int64.compare s 0L > 0
  && Int64.compare d 0L >= 0
  && Int64.compare (Int64.add d (Int64.of_int width)) s <= 0

let intervals_disjoint ca wa cb wb =
  Int64.compare (Int64.add ca (Int64.of_int wa)) cb <= 0
  || Int64.compare (Int64.add cb (Int64.of_int wb)) ca <= 0

let uniform_terms_equal (f : Affine.form) (g : Affine.form) =
  f.Affine.ntid = g.Affine.ntid && f.Affine.nctaid = g.Affine.nctaid

(* Cross-thread disjointness of two footprints in the same space with
   the same base.  Shared conflicts are same-block only, so the
   block-varying terms just have to cancel; global conflicts span
   blocks, so per-thread slots must follow the flat global tid. *)
let disjoint_same_base space (f : Affine.form) wa (g : Affine.form) wb =
  if not (uniform_terms_equal f g) then false
  else
    let delta = Int64.sub f.Affine.const g.Affine.const in
    let width = max wa wb in
    match space with
    | Ptx.Ast.Shared ->
        let blockwise_equal =
          f.Affine.gbase = g.Affine.gbase && f.Affine.ctaid = g.Affine.ctaid
        in
        blockwise_equal
        && (f.Affine.tid = g.Affine.tid && f.Affine.tid <> 0L
            && slots_apart ~stride:f.Affine.tid ~delta ~width
           || f.Affine.tid = 0L && g.Affine.tid = 0L
              && intervals_disjoint f.Affine.const wa g.Affine.const wb)
    | Ptx.Ast.Global ->
        let flat s (h : Affine.form) =
          h.Affine.tid = s && h.Affine.gbase = s && h.Affine.ctaid = 0L
        in
        (f.Affine.tid = g.Affine.tid && f.Affine.tid <> 0L
         && flat f.Affine.tid f && flat f.Affine.tid g
         && slots_apart ~stride:f.Affine.tid ~delta ~width)
        || flat 0L f && flat 0L g
           && intervals_disjoint f.Affine.const wa g.Affine.const wb
    | Ptx.Ast.Local | Ptx.Ast.Param -> true

(* Uniform within the conflict scope: the address is the same for every
   thread that can conflict (all threads for global, block threads for
   shared — block-varying terms still must vanish for global). *)
let uniform_form (h : Affine.form) =
  h.Affine.tid = 0L && h.Affine.gbase = 0L && h.Affine.ctaid = 0L

(* ---- the analysis ------------------------------------------------ *)

let collect_accesses ctx k envs roles block_of reachable =
  let acc = ref [] in
  Array.iteri
    (fun i (insn : Ptx.Ast.insn) ->
      let mk space width is_store is_atomic (addr : Ptx.Ast.address) =
        let block = block_of i in
        let dead = not reachable.(i) in
        let value =
          match envs.(i) with
          | Some env -> Affine.address_of ctx env addr
          | None -> Affine.Top
        in
        acc :=
          {
            insn = i;
            space;
            width;
            is_store;
            is_atomic;
            guarded = insn.Ptx.Ast.guard <> None;
            plain = Gtrace.Roles.equal roles.(i) Gtrace.Roles.Plain;
            addr = value;
            block;
            dead;
          }
          :: !acc
      in
      match insn.Ptx.Ast.kind with
      | Ptx.Ast.Ld { space; width; addr; _ } -> mk space width false false addr
      | Ptx.Ast.St { space; width; addr; _ } -> mk space width true false addr
      | Ptx.Ast.Atom { space; width; addr; _ } -> mk space width true true addr
      | _ -> ())
    k.Ptx.Ast.body;
  Array.of_list (List.rev !acc)

let classify_access a =
  match a.space with
  | Ptx.Ast.Local | Ptx.Ast.Param -> Thread_private
  | Ptx.Ast.Global | Ptx.Ast.Shared -> (
      match a.addr with
      | Affine.Aff f ->
          if uniform_form f then Thread_uniform
          else if f.Affine.tid <> 0L || f.Affine.gbase <> 0L then Lane_affine
          else Unknown_addr
      | Affine.Top | Affine.Bot -> Unknown_addr)

(* Why a pair cannot race; [None] = could race. *)
type pair_ok = Space | Read_read | Disjoint | Phased | Dead

let nonracing phases a b =
  if a.dead || b.dead then Some Dead
  else if not (Ptx.Ast.equal_space a.space b.space) then Some Space
  else if (not a.is_store) && not b.is_store then Some Read_read
  else
    let structural =
      match (a.addr, b.addr) with
      | Affine.Aff f, Affine.Aff g
        when f.Affine.base = g.Affine.base
             && disjoint_same_base a.space f a.width g b.width ->
          Some Disjoint
      | _ -> None
    in
    match structural with
    | Some _ as ok -> ok
    | None ->
        if
          Ptx.Ast.equal_space a.space Ptx.Ast.Shared
          && (Phase.separated phases a.insn b.insn
             || Phase.separated phases b.insn a.insn)
        then Some Phased
        else None

let find_racy_pairs ~no_membar phases accesses =
  if not (no_membar && Phase.all_chained phases) then []
  else
    let n = Array.length accesses in
    let pairs = ref [] in
    for ia = 0 to n - 1 do
      for ib = ia + 1 to n - 1 do
        let a = accesses.(ia) and b = accesses.(ib) in
        let candidate =
          (not a.dead) && (not b.dead)
          && Ptx.Ast.equal_space a.space b.space
          && (match a.space with
             | Ptx.Ast.Global | Ptx.Ast.Shared -> true
             | _ -> false)
          && (not a.is_atomic) && not b.is_atomic
          && (a.is_store || b.is_store)
          && (not a.guarded) && not b.guarded
          && a.plain && b.plain
          && Phase.dominates_exit phases ~block:a.block
          && Phase.dominates_exit phases ~block:b.block
        in
        if candidate then begin
          match
            ( Phase.pinned phases a.insn,
              Phase.pinned phases b.insn,
              a.addr,
              b.addr )
          with
          | Some pa, Some pb, Affine.Aff f, Affine.Aff g
            when pa = pb && uniform_form f && uniform_form g
                 && uniform_terms_equal f g
                 && f.Affine.base = g.Affine.base
                 && not
                      (intervals_disjoint f.Affine.const a.width
                         g.Affine.const b.width) ->
              let base_param =
                match f.Affine.base with
                | Affine.Param p -> Some p
                | Affine.No_base -> None
              in
              let shared = Ptx.Ast.equal_space a.space Ptx.Ast.Shared in
              (* a shared address must be a concrete segment offset to
                 name the location *)
              if (not shared) || base_param = None then
                pairs :=
                  {
                    a_insn = a.insn;
                    b_insn = b.insn;
                    pair_space = a.space;
                    base_param;
                    addr = Int64.max f.Affine.const g.Affine.const;
                    pair_width = min a.width b.width;
                    a_write = a.is_store;
                    b_write = b.is_store;
                    need =
                      (if shared then { min_warps = 2; min_block_warps = 2 }
                       else { min_warps = 2; min_block_warps = 1 });
                  }
                  :: !pairs
          | _ -> ()
        end
      done
    done;
    List.rev !pairs

let analyze_run (k : Ptx.Ast.kernel) =
  let n = Array.length k.Ptx.Ast.body in
  let g = Cfg.Graph.of_kernel k in
  let phases = Phase.build k g in
  let ctx = Affine.make_ctx k in
  let blocks = Cfg.Graph.blocks g in
  let nb = Array.length blocks in
  let preds b = Phase.preds phases b in
  let envs = Affine.run ctx k ~blocks ~preds ~nblocks:(nb + 1) in
  let roles = Gtrace.Roles.classify k in
  let block_of i = Cfg.Graph.block_of_insn g i in
  let insn_reachable =
    Array.init n (fun i -> Phase.block_reachable phases (block_of i))
  in
  let accesses = collect_accesses ctx k envs roles block_of insn_reachable in
  let no_membar =
    not
      (Array.exists
         (fun (insn : Ptx.Ast.insn) ->
           match insn.Ptx.Ast.kind with Ptx.Ast.Membar _ -> true | _ -> false)
         k.Ptx.Ast.body)
  in
  let pairs = find_racy_pairs ~no_membar phases accesses in
  let racy_insns = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Hashtbl.replace racy_insns p.a_insn ();
      Hashtbl.replace racy_insns p.b_insn ())
    pairs;
  let verdicts = Array.make n None in
  let classes = Array.make n Unknown_addr in
  Array.iter
    (fun a ->
      classes.(a.insn) <- classify_access a;
      let v =
        match a.space with
        | Ptx.Ast.Local | Ptx.Ast.Param -> Safe Private_space
        | Ptx.Ast.Global | Ptx.Ast.Shared ->
            if a.dead then Safe Dead_code
            else if a.is_atomic || not a.plain then
              (* records with shadow/sync side effects for other
                 accesses: never pruned *)
              if Hashtbl.mem racy_insns a.insn then Racy else Unknown
            else begin
              let used_phase = ref false and used_disjoint = ref false in
              let all_ok =
                Array.for_all
                  (fun b ->
                    match nonracing phases a b with
                    | Some Phased ->
                        used_phase := true;
                        true
                    | Some Disjoint ->
                        used_disjoint := true;
                        true
                    | Some _ -> true
                    | None -> false)
                  accesses
              in
              if all_ok then
                Safe
                  (if !used_phase then Barrier_phased
                   else if !used_disjoint then Disjoint_footprints
                   else Read_only)
              else if Hashtbl.mem racy_insns a.insn then Racy
              else Unknown
            end
      in
      verdicts.(a.insn) <- Some v)
    accesses;
  { kernel = k; roles; accesses; verdicts; classes; pairs }

let analyze k =
  let t = Telemetry.Span.with_ ~name:"static.analyze" (fun () -> analyze_run k) in
  let safe = ref 0 and racy = ref 0 and unknown = ref 0 in
  Array.iter
    (function
      | Some (Safe _) -> incr safe
      | Some Racy -> incr racy
      | Some Unknown -> incr unknown
      | None -> ())
    t.verdicts;
  Telemetry.Metric.counter_incr m_kernels;
  Telemetry.Metric.counter_add m_safe !safe;
  Telemetry.Metric.counter_add m_racy !racy;
  Telemetry.Metric.counter_add m_unknown !unknown;
  Telemetry.Metric.counter_add m_pairs (List.length t.pairs);
  t

(* ---- consumers --------------------------------------------------- *)

(* Instructions whose logging the instrumentation pass may drop. *)
let safe_mask t =
  let n = Array.length t.kernel.Ptx.Ast.body in
  Array.init n (fun i ->
      match t.verdicts.(i) with Some (Safe _) -> true | _ -> false)

let roles t = t.roles
let verdict t i = t.verdicts.(i)
let klass t i = t.classes.(i)
let pairs t = t.pairs

let counts t =
  let safe = ref 0 and racy = ref 0 and unknown = ref 0 in
  Array.iter
    (function
      | Some (Safe _) -> incr safe
      | Some Racy -> incr racy
      | Some Unknown -> incr unknown
      | None -> ())
    t.verdicts;
  (!safe, !racy, !unknown)

let realizable need layout =
  Vclock.Layout.total_warps layout >= need.min_warps
  && Vclock.Layout.warps_per_block layout >= need.min_block_warps

let realizable_pairs t ~layout =
  List.filter (fun p -> realizable p.need layout) t.pairs

let provably_racy t ~layout = realizable_pairs t ~layout <> []

(* ---- printing ---------------------------------------------------- *)

let klass_name = function
  | Thread_uniform -> "uniform"
  | Lane_affine -> "lane-affine"
  | Thread_private -> "private"
  | Unknown_addr -> "unknown"

let reason_name = function
  | Read_only -> "read-only"
  | Disjoint_footprints -> "disjoint"
  | Barrier_phased -> "phased"
  | Private_space -> "private"
  | Dead_code -> "dead"

let verdict_name = function
  | Safe _ -> "safe"
  | Racy -> "racy"
  | Unknown -> "unknown"

let pp_verdict ppf = function
  | Safe r -> Format.fprintf ppf "safe(%s)" (reason_name r)
  | Racy -> Format.pp_print_string ppf "racy"
  | Unknown -> Format.pp_print_string ppf "unknown"

let pp_pair ppf (p : racy_pair) =
  let kind w = if w then "write" else "read" in
  Format.fprintf ppf "static race: %s %s at insn %d vs %s at insn %d (%a @%s%Ld, width %d)"
    (match p.pair_space with Ptx.Ast.Shared -> "shared" | _ -> "global")
    (kind p.a_write) p.a_insn (kind p.b_write) p.b_insn Ptx.Ast.pp_space
    p.pair_space
    (match p.base_param with Some b -> b ^ "+" | None -> "")
    p.addr p.pair_width
