(* Random structured kernels for property-based testing.

   Programs are trees of statements over one global array ("g") and one
   shared array; barriers only appear at the top level so they are
   always convergent.  Most accesses are whole 4-byte words; the
   [Bytes_*] leaves are 1-, 2- and 8-byte accesses at any byte offset
   inside the data words, so sub-word and misaligned accesses meet the
   word accesses in the same words.  The small grid (warp size 4, 2
   warps per block, 2 blocks) keeps the reference detector cheap while
   still exercising intra-warp, inter-warp and inter-block
   interactions. *)

module Ast = Ptx.Ast
module B = Ptx.Builder

let layout = Vclock.Layout.make ~warp_size:4 ~threads_per_block:8 ~blocks:2

let words = 8 (* data words in the global and shared arrays *)

let sync_words = 4
(* Synchronization locations live in g[words .. words+sync_words):
   release/acquire operations store values outside race checking, so
   their final contents are schedule-dependent and memory-comparison
   properties must skip them. *)

type value = Const of int | Lane_dependent

type stmt =
  | Global_store of int * value
  | Global_load of int
  | Shared_store of int * value
  | Shared_load of int
  | Atomic_add of int
  | Bytes_store of Ast.space * int * int * value
      (* space, width, byte offset: a store at any offset in the data *)
  | Bytes_load of Ast.space * int * int
  | Store_own_slot  (* g[gtid] = tid: never races *)
  | Fence of Ast.fence_scope
  | Barrier
  | Release_store of Ast.fence_scope * int
      (* fence; st g[i]: inferred as a release on g[i] *)
  | Acquire_load of Ast.fence_scope * int
      (* ld g[i]; fence: inferred as an acquire on g[i] *)
  | Acqrel_atomic of Ast.fence_scope * int
      (* fence; atom.add g[i]; fence: an acquire-release *)
  | If_tid_lt of int * stmt list * stmt list
  | If_parity of stmt list * stmt list
  | If_block of stmt list  (* restrict to block 0 *)

type program = stmt list

let operand = function Const c -> B.imm c | Lane_dependent -> Ast.Sreg Ast.Tid

let data_array = function Ast.Shared -> B.sym "smem" | _ -> B.sym "g"

let rec emit_stmt b = function
  | Global_store (i, v) -> B.st ~offset:(4 * i) b (B.sym "g") (operand v)
  | Global_load i ->
      let r = B.fresh_reg b in
      B.ld ~offset:(4 * i) b r (B.sym "g")
  | Shared_store (i, v) ->
      B.st ~space:Ast.Shared ~offset:(4 * i) b (B.sym "smem") (operand v)
  | Shared_load i ->
      let r = B.fresh_reg b in
      B.ld ~space:Ast.Shared ~offset:(4 * i) b r (B.sym "smem")
  | Atomic_add i ->
      let r = B.fresh_reg b in
      B.atom ~offset:(4 * i) b Ast.A_add r (B.sym "g") (B.imm 1)
  | Bytes_store (space, width, offset, v) ->
      B.st ~space ~width ~offset b (data_array space) (operand v)
  | Bytes_load (space, width, offset) ->
      let r = B.fresh_reg b in
      B.ld ~space ~width ~offset b r (data_array space)
  | Store_own_slot ->
      let g = B.global_tid b in
      let a = B.fresh_reg ~cls:"rd" b in
      B.mad b a (B.reg g) (B.imm 4) (B.sym "g");
      B.st ~offset:(4 * (words + sync_words)) b (B.reg a) (Ast.Sreg Ast.Tid)
  | Fence scope ->
      B.membar b scope;
      (* separator so a random fence cannot bundle with a following
         store into an unintended release *)
      B.mov b (B.fresh_reg b) (B.imm 0)
  | Barrier -> B.bar b
  | Release_store (scope, i) ->
      B.membar b scope;
      B.st ~offset:(4 * (words + i)) b (B.sym "g") (Ast.Sreg Ast.Tid)
  | Acquire_load (scope, i) ->
      let r = B.fresh_reg b in
      B.ld ~offset:(4 * (words + i)) b r (B.sym "g");
      B.membar b scope;
      B.mov b (B.fresh_reg b) (B.imm 0)
  | Acqrel_atomic (scope, i) ->
      B.membar b scope;
      let r = B.fresh_reg b in
      B.atom ~offset:(4 * (words + i)) b Ast.A_add r (B.sym "g") (B.imm 1);
      B.membar b scope;
      B.mov b (B.fresh_reg b) (B.imm 0)
  | If_tid_lt (n, then_, else_) ->
      B.if_else b Ast.C_lt (Ast.Sreg Ast.Tid) (B.imm n)
        (fun b -> emit_body b then_)
        (fun b -> emit_body b else_)
  | If_parity (then_, else_) ->
      let p = B.fresh_reg b in
      B.binop b Ast.B_and p (Ast.Sreg Ast.Tid) (B.imm 1);
      B.if_else b Ast.C_eq (B.reg p) (B.imm 0)
        (fun b -> emit_body b then_)
        (fun b -> emit_body b else_)
  | If_block body ->
      B.if_ b Ast.C_eq (Ast.Sreg Ast.Ctaid) (B.imm 0) (fun b ->
          emit_body b body)

and emit_body b stmts = List.iter (emit_stmt b) stmts

let kernel_of_program ?(name = "qcheck_kernel") prog =
  let b =
    B.create ~params:[ "g" ]
      ~shared:[ ("smem", words * 4) ]
      name
  in
  emit_body b prog;
  B.finish b

let setup machine =
  (* data words, sync words, then one own-slot word per thread *)
  let total = words + sync_words + Vclock.Layout.total_threads layout in
  [| Int64.of_int (Simt.Machine.alloc_global machine (4 * total)) |]

(* Word offsets whose final contents are deterministic for race-free
   programs (everything except the sync words). *)
let comparable_word_offsets () =
  let total = words + sync_words + Vclock.Layout.total_threads layout in
  List.filter (fun w -> w < words || w >= words + sync_words)
    (List.init total Fun.id)

(* ---- QCheck generators ------------------------------------------- *)

open QCheck2.Gen

let gen_value = oneof [ return Lane_dependent; map (fun c -> Const c) (int_range 0 3) ]
let gen_index = int_range 0 (words - 1)

let gen_scope = oneof [ return Ast.Cta; return Ast.Gl ]

(* space, width and byte offset of an access inside the data words *)
let gen_bytes =
  let* space = oneofl [ Ast.Global; Ast.Shared ] in
  let* width = oneofl [ 1; 2; 8 ] in
  let* offset = int_range 0 ((4 * words) - width) in
  return (space, width, offset)

let gen_leaf =
  oneof
    [
      map2 (fun i v -> Global_store (i, v)) gen_index gen_value;
      map (fun i -> Global_load i) gen_index;
      map2 (fun i v -> Shared_store (i, v)) gen_index gen_value;
      map (fun i -> Shared_load i) gen_index;
      map (fun i -> Atomic_add i) gen_index;
      map2 (fun (s, w, o) v -> Bytes_store (s, w, o, v)) gen_bytes gen_value;
      map (fun (s, w, o) -> Bytes_load (s, w, o)) gen_bytes;
      return Store_own_slot;
      return (Fence Ast.Cta);
      return (Fence Ast.Gl);
      map2 (fun s i -> Release_store (s, i)) gen_scope (int_range 0 (sync_words - 1));
      map2 (fun s i -> Acquire_load (s, i)) gen_scope (int_range 0 (sync_words - 1));
      map2 (fun s i -> Acqrel_atomic (s, i)) gen_scope (int_range 0 (sync_words - 1));
    ]

(* nested statements: no barriers below the top level *)
let gen_nested_stmt =
  sized_size (int_range 0 2) @@ fun depth ->
  let rec go depth =
    if depth = 0 then gen_leaf
    else
      frequency
        [
          (4, gen_leaf);
          ( 1,
            map2
              (fun t e -> If_parity (t, e))
              (list_size (int_range 1 3) (go (depth - 1)))
              (list_size (int_range 0 2) (go (depth - 1))) );
          ( 1,
            map2
              (fun n t -> If_tid_lt (n, t, []))
              (int_range 1 7)
              (list_size (int_range 1 3) (go (depth - 1))) );
        ]
  in
  go depth

let gen_top_stmt =
  frequency
    [ (6, gen_nested_stmt); (1, return Barrier);
      (1, map (fun body -> If_block body) (list_size (int_range 1 3) gen_nested_stmt)) ]

let gen_program = list_size (int_range 1 12) gen_top_stmt

let array_name = function Ast.Shared -> "s" | _ -> "g"

let rec pp_stmt ppf = function
  | Global_store (i, Const c) -> Format.fprintf ppf "g[%d]=%d" i c
  | Global_store (i, Lane_dependent) -> Format.fprintf ppf "g[%d]=tid" i
  | Global_load i -> Format.fprintf ppf "r=g[%d]" i
  | Shared_store (i, Const c) -> Format.fprintf ppf "s[%d]=%d" i c
  | Shared_store (i, Lane_dependent) -> Format.fprintf ppf "s[%d]=tid" i
  | Shared_load i -> Format.fprintf ppf "r=s[%d]" i
  | Atomic_add i -> Format.fprintf ppf "atomic(g[%d])" i
  | Bytes_store (space, w, o, Const c) ->
      Format.fprintf ppf "%s+%d:%d=%d" (array_name space) o w c
  | Bytes_store (space, w, o, Lane_dependent) ->
      Format.fprintf ppf "%s+%d:%d=tid" (array_name space) o w
  | Bytes_load (space, w, o) ->
      Format.fprintf ppf "r=%s+%d:%d" (array_name space) o w
  | Store_own_slot -> Format.fprintf ppf "own"
  | Fence s -> Format.fprintf ppf "fence.%a" Ast.pp_fence_scope s
  | Barrier -> Format.fprintf ppf "bar"
  | Release_store (s, i) ->
      Format.fprintf ppf "rel.%a(g[%d])" Ast.pp_fence_scope s i
  | Acquire_load (s, i) ->
      Format.fprintf ppf "acq.%a(g[%d])" Ast.pp_fence_scope s i
  | Acqrel_atomic (s, i) ->
      Format.fprintf ppf "acqrel.%a(g[%d])" Ast.pp_fence_scope s i
  | If_tid_lt (n, t, e) ->
      Format.fprintf ppf "if(tid<%d){%a}else{%a}" n pp_body t pp_body e
  | If_parity (t, e) ->
      Format.fprintf ppf "if(even){%a}else{%a}" pp_body t pp_body e
  | If_block body -> Format.fprintf ppf "if(blk0){%a}" pp_body body

and pp_body ppf stmts =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
    pp_stmt ppf stmts

let print_program prog = Format.asprintf "%a" pp_body prog

(* Run a generated program through the simulator + inference pipeline
   and return its recorded trace (shared by the gtrace and predict
   property tests). *)
let trace_of_program prog =
  let m = Simt.Machine.create ~layout () in
  let k = kernel_of_program prog in
  let args = setup m in
  Gtrace.Infer.run ~layout m k args

(* ---- Race sets ----------------------------------------------------- *)

(* Comparisons need every report: a detector, or a shard, hitting
   [max_reports] would under-report legitimately. *)
let detector_config =
  { Barracuda.Detector.default_config with max_reports = 100000 }

(* A race without its instruction ids or its place in the detection
   order. *)
type race_key = {
  loc : Gtrace.Loc.t;
  prev_tid : int;
  prev_kind : Barracuda.Report.access_kind;
  cur_tid : int;
  cur_kind : Barracuda.Report.access_kind;
}

(* The distinct races of an error list, in a canonical order. *)
let race_keys errors =
  let key : Barracuda.Report.error -> race_key option = function
    | Race { loc; prev_tid; prev_kind; cur_tid; cur_kind; _ } ->
        Some { loc; prev_tid; prev_kind; cur_tid; cur_kind }
    | Barrier_divergence _ -> None
  in
  List.sort_uniq Stdlib.compare (List.filter_map key errors)

let race_set report = race_keys (Barracuda.Report.errors report)

let pp_race_key ppf k =
  Format.fprintf ppf "%a: %a t%d vs %a t%d" Gtrace.Loc.pp k.loc
    Barracuda.Report.pp_kind k.prev_kind k.prev_tid Barracuda.Report.pp_kind
    k.cur_kind k.cur_tid

(* Replay a recorded stream through a streaming session ([sink] picks
   the backend), cut by the cyclic sizes in [cuts] and checkpointed
   every [every] chunks (0: never); the final progress. *)
let replay ?sink ~layout (cuts, every) kernel bytes =
  let module S = Gpu_runtime.Session in
  let st = S.open_stream ?sink ~detector:detector_config ~layout kernel in
  let total = String.length bytes in
  let rec feed pos i =
    if pos < total then begin
      let len = min cuts.(i mod Array.length cuts) (total - pos) in
      S.feed_chunk st ~pos ~len bytes;
      if every > 0 && (i + 1) mod every = 0 then ignore (S.checkpoint st);
      feed (pos + len) (i + 1)
    end
  in
  match feed 0 0 with
  | () -> S.close_stream st
  | exception e ->
      S.abort_stream st;
      raise e

(* [needle] occurs in [haystack]. *)
let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Telemetry on, from zero, for [f ()]. *)
let with_telemetry f =
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset Telemetry.Registry.default;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled false) f

(* ---- Byte mutations of untrusted inputs -------------------------- *)

(* 1-4 byte flips, deletions, insertions or cuts, at seeded positions. *)
let gen_mutations = list_size (int_range 1 4) (triple (int_range 0 3) nat char)

let mutate s muts =
  List.fold_left
    (fun s (op, at, c) ->
      let n = String.length s in
      let i = at mod (n + 1) in
      match op with
      | 0 when i < n -> String.mapi (fun j d -> if j = i then c else d) s
      | 1 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | _ -> String.sub s 0 i)
    s muts

(* ---- Deterministic property runs --------------------------------- *)

(* Property tests draw from a pinned PRNG seed so a CI failure
   reproduces locally; override with QCHECK_SEED=<int>.  The seed in
   effect is printed whenever a property fails. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None | Some "" -> 0x5ca1ab1e
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None ->
          Printf.ksprintf failwith "QCHECK_SEED must be an integer, got %S" s)

(* Drop-in for [QCheck_alcotest.to_alcotest], seeded with
   [qcheck_seed] instead of self-initialized randomness. *)
let to_alcotest test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| qcheck_seed |])
      test
  in
  ( name,
    speed,
    fun arg ->
      try run arg
      with e ->
        Printf.eprintf "[qcheck] reproduce with QCHECK_SEED=%d\n%!" qcheck_seed;
        raise e )
