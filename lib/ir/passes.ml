(* Optimization passes over lil graphs: constant folding (canonicalization),
   common-subexpression elimination, and dead-code elimination. These mirror
   MLIR's canonicalization infrastructure the paper relies on ("constant
   registers are internalized into the ISAX module and subject to MLIR's
   usual canonicalization patterns"). *)

open Mir

(* ops with side effects must never be removed or deduplicated *)
let has_side_effect op =
  match op.opname with
  | "lil.write_rd" | "lil.write_pc" | "lil.write_custreg" | "lil.write_mem" | "lil.sink"
  | "coredsl.set" | "coredsl.store" ->
      true
  | _ -> false

(* interface reads are kept even when pure: they anchor the schedule *)
let is_interface_read op =
  match op.opname with
  | "lil.instr_word" | "lil.read_rs1" | "lil.read_rs2" | "lil.read_pc" | "lil.read_custreg"
  | "lil.read_mem" | "lil.rom" | "coredsl.get" | "coredsl.load" | "coredsl.rom"
  | "coredsl.field" ->
      true
  | _ -> false

(* ---- constant folding ---- *)

let fold_constants (g : graph) : graph * bool =
  let const_of : (int, Bitvec.t) Hashtbl.t = Hashtbl.create 32 in
  let subst = Hashtbl.create 16 in
  let changed = ref false in
  let body =
    List.filter_map
      (fun op ->
        match op.opname with
        | "hw.constant" ->
            (match (op.results, attr_bv op "value") with
            | [ r ], Some v -> Hashtbl.replace const_of r.vid v
            | _ -> ());
            Some op
        | name when Comb_eval.is_comb name && op.results <> [] -> (
            let operand_consts =
              List.map (fun v -> Hashtbl.find_opt const_of v.vid) op.operands
            in
            if List.for_all Option.is_some operand_consts then begin
              let vals = List.map Option.get operand_consts in
              let r = List.hd op.results in
              match
                (try Some (Comb_eval.eval ~name ~attrs:op.attrs ~ops:vals ~result_width:r.vty.Bitvec.width)
                 with _ -> None)
              with
              | Some folded ->
                  changed := true;
                  Hashtbl.replace const_of r.vid folded;
                  (* replace with a fresh constant op reusing the result *)
                  Some { op with opname = "hw.constant"; operands = []; attrs = [ ("value", A_bv folded) ] }
              | None -> Some op
            end
            else begin
              (* simple mux canonicalization: constant condition *)
              match (op.opname, op.operands) with
              | "comb.mux", [ c; t; f ] -> (
                  match Hashtbl.find_opt const_of c.vid with
                  | Some cv ->
                      changed := true;
                      let keep = if Bitvec.to_bool cv then t else f in
                      Hashtbl.replace subst (List.hd op.results).vid keep;
                      None
                  | None -> Some op)
              | _ -> Some op
            end)
        | _ -> Some op)
      g.body
  in
  let g = { g with body } in
  ((if Hashtbl.length subst > 0 then rewrite g ~subst ~keep:(fun _ -> true) else g), !changed)

(* ---- common-subexpression elimination ---- *)

let cse (g : graph) : graph * bool =
  let table : (string, value list) Hashtbl.t = Hashtbl.create 32 in
  let subst : (int, value) Hashtbl.t = Hashtbl.create 16 in
  let canon v = match Hashtbl.find_opt subst v.vid with Some v' -> v' | None -> v in
  let key op =
    let operands = List.map (fun v -> string_of_int (canon v).vid) op.operands in
    (* result types are part of the identity: the same extract/concat can
       produce different widths *)
    let results = List.map (fun r -> Bitvec.ty_to_string r.vty) op.results in
    let attrs =
      List.map
        (fun (k, a) ->
          Printf.sprintf "%s=%s" k
            (match a with
            | A_int i -> string_of_int i
            | A_str s -> s
            | A_bv v -> Bitvec.to_hex_string v ^ "/" ^ string_of_int (Bitvec.width v)
            | A_bool b -> string_of_bool b))
        op.attrs
    in
    Printf.sprintf "%s(%s){%s}:%s" op.opname (String.concat "," operands)
      (String.concat "," attrs) (String.concat "," results)
  in
  let body =
    List.filter
      (fun op ->
        if has_side_effect op || op.results = [] then true
        else begin
          let k = key op in
          match Hashtbl.find_opt table k with
          | Some prior ->
              List.iter2 (fun r p -> Hashtbl.replace subst r.vid p) op.results prior;
              false
          | None ->
              Hashtbl.replace table k op.results;
              true
        end)
      g.body
  in
  (* nothing merged: [body] is [g.body] *)
  if Hashtbl.length subst = 0 then ({ g with body }, false)
  else (rewrite { g with body } ~subst ~keep:(fun _ -> true), true)

(* ---- dead-code elimination ---- *)

(* One reverse sweep over the SSA-ordered body: by the time an op is
   reached, every op that could read its results has been decided, so an
   op is live iff it has a side effect, is an interface read, or one of
   its results is read by a live op. A live region op keeps every value
   its nested ops read; a nested op reading its own parent's result keeps
   the parent, as a use-count fixpoint would. *)
let dce (g : graph) : graph * bool =
  let live : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let mark v = Hashtbl.replace live v.vid () in
  let removed = ref false in
  let body =
    List.fold_left
      (fun kept op ->
        let nested = List.concat_map all_ops_in op.regions in
        let reads_own_result (o : op) =
          List.exists (fun v -> List.exists (fun r -> r.vid = v.vid) op.results) o.operands
        in
        if
          has_side_effect op || is_interface_read op
          || List.exists (fun r -> Hashtbl.mem live r.vid) op.results
          || List.exists reads_own_result nested
        then begin
          List.iter mark op.operands;
          List.iter (fun (o : op) -> List.iter mark o.operands) nested;
          op :: kept
        end
        else begin
          removed := true;
          kept
        end)
      [] (List.rev g.body)
  in
  ({ g with body }, !removed)

(* Also drop interface *reads* that are completely unused (e.g. a register
   read whose value was optimized away). Writes are always kept. *)
let dce_interface_reads (g : graph) : graph * bool =
  let uses = use_map g in
  let removed = ref false in
  let body =
    List.filter
      (fun op ->
        if not (is_interface_read op) then true
        else begin
          let used =
            List.exists
              (fun r ->
                match Hashtbl.find_opt uses r.vid with Some (_ :: _) -> true | _ -> false)
              op.results
          in
          if not used then removed := true;
          used
        end)
      g.body
  in
  ({ g with body }, !removed)

(* ---- constant-shift lowering ---- *)

(* A shift by a compile-time-constant amount is pure wiring in hardware:
   rewrite it to extract/concat/replicate so that neither the scheduler
   nor the timing analysis charges barrel-shifter delay or area for it.
   (Rotations expressed as shl|shru, as in the sparkle ISAX, become free.) *)
let lower_constant_shifts (g : graph) : graph * bool =
  let const_of : (int, Bitvec.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun op ->
      match (op.opname, op.results, attr_bv op "value") with
      | "hw.constant", [ r ], Some v -> Hashtbl.replace const_of r.vid v
      | _ -> ())
    (all_ops g);
  let b = builder () in
  (* continue id numbering above the existing graph to keep SSA ids unique *)
  List.iter
    (fun op ->
      b.next_o <- max b.next_o (op.oid + 1);
      List.iter (fun r -> b.next_v <- max b.next_v (r.vid + 1)) op.results)
    (all_ops g);
  (* keep existing value ids stable by tracking a substitution for results *)
  let subst : (int, value) Hashtbl.t = Hashtbl.create 16 in
  let s v = match Hashtbl.find_opt subst v.vid with Some v' -> v' | None -> v in
  let lowered = ref false in
  let u w = Bitvec.unsigned_ty w in
  let rewrite_shift op kind x k =
    (* replacement wiring inherits the span of the shift it stands in for *)
    set_loc b op.oloc;
    let w = x.vty.Bitvec.width in
    let r = List.hd op.results in
    let replacement =
      if k = 0 then s x
      else if k >= w then begin
        match kind with
        | `Shl | `Shru ->
            add_op1 b "hw.constant" [] (u w) ~attrs:[ ("value", A_bv (Bitvec.zero (u w))) ]
        | `Shrs ->
            let sign =
              add_op1 b "comb.extract" [ s x ] (u 1) ~attrs:[ ("lowBit", A_int (w - 1)) ]
            in
            add_op1 b "comb.replicate" [ sign ] (u w)
      end
      else begin
        match kind with
        | `Shl ->
            let kept =
              add_op1 b "comb.extract" [ s x ] (u (w - k)) ~attrs:[ ("lowBit", A_int 0) ]
            in
            let zeros =
              add_op1 b "hw.constant" [] (u k) ~attrs:[ ("value", A_bv (Bitvec.zero (u k))) ]
            in
            add_op1 b "comb.concat" [ kept; zeros ] (u w)
        | `Shru ->
            let kept =
              add_op1 b "comb.extract" [ s x ] (u (w - k)) ~attrs:[ ("lowBit", A_int k) ]
            in
            let zeros =
              add_op1 b "hw.constant" [] (u k) ~attrs:[ ("value", A_bv (Bitvec.zero (u k))) ]
            in
            add_op1 b "comb.concat" [ zeros; kept ] (u w)
        | `Shrs ->
            let kept =
              add_op1 b "comb.extract" [ s x ] (u (w - k)) ~attrs:[ ("lowBit", A_int k) ]
            in
            let sign =
              add_op1 b "comb.extract" [ s x ] (u 1) ~attrs:[ ("lowBit", A_int (w - 1)) ]
            in
            let rep = add_op1 b "comb.replicate" [ sign ] (u k) in
            add_op1 b "comb.concat" [ rep; kept ] (u w)
      end
    in
    Hashtbl.replace subst r.vid replacement;
    lowered := true
  in
  List.iter
    (fun op ->
      match (op.opname, op.operands) with
      | ("comb.shl" | "comb.shru" | "comb.shrs"), [ x; amt ]
        when Hashtbl.mem const_of amt.vid ->
          let k =
            match Bitvec.to_int_opt (Hashtbl.find const_of amt.vid) with
            | Some k when k >= 0 -> k
            | _ -> max_int
          in
          if k = max_int then
            b.ops <- { op with operands = List.map s op.operands } :: b.ops
          else
            rewrite_shift op
              (match op.opname with
              | "comb.shl" -> `Shl
              | "comb.shru" -> `Shru
              | _ -> `Shrs)
              x k
      | _ -> b.ops <- { op with operands = List.map s op.operands } :: b.ops)
    g.body;
  (* fresh value ids from the builder may collide with existing ones; remap
     everything through a final rewrite that only applies the subst *)
  ({ g with body = List.rev b.ops }, !lowered)

(* ---- instrumented pass manager ---- *)

(* Each optimization pass is registered here by name so the pass manager
   can wrap it uniformly: per run it records wall time and before/after
   op- and edge-counts into the profiling scope, and the fixpoint driver
   reports its rounds-to-convergence. This is the measurement substrate
   for all later compile-time work (caching, parallel compile, sharing). *)

type pass = { pass_name : string; pass_fn : graph -> graph * bool }

let all_passes : pass list =
  [
    { pass_name = "fold_constants"; pass_fn = fold_constants };
    { pass_name = "lower_constant_shifts"; pass_fn = lower_constant_shifts };
    { pass_name = "cse"; pass_fn = cse };
    { pass_name = "dce"; pass_fn = dce };
    { pass_name = "dce_interface_reads"; pass_fn = dce_interface_reads };
  ]

let find_pass name = List.find (fun p -> p.pass_name = name) all_passes

(* IR-size metrics: number of operations (including region bodies) and
   def-use edges (operand references). *)
let op_count (g : graph) = List.length (all_ops g)
let edge_count (g : graph) = List.fold_left (fun a (o : op) -> a + List.length o.operands) 0 (all_ops g)

type pass_stat = {
  ps_pass : string;
  ps_ops_before : int;
  ps_ops_after : int;
  ps_edges_before : int;
  ps_edges_after : int;
  ps_changed : bool;
}

(* Run one pass, recording a "pass:NAME" child span with before/after
   sizes. Returns the rewritten graph and the stat record. *)
let run_pass ?obs (p : pass) (g : graph) : graph * pass_stat =
  Obs.span_opt obs ("pass:" ^ p.pass_name) (fun obs ->
      let ops_before = op_count g and edges_before = edge_count g in
      let g', changed = p.pass_fn g in
      let st =
        {
          ps_pass = p.pass_name;
          ps_ops_before = ops_before;
          ps_ops_after = op_count g';
          ps_edges_before = edges_before;
          ps_edges_after = edge_count g';
          ps_changed = changed;
        }
      in
      Obs.metric_int_opt obs "ops_before" st.ps_ops_before;
      Obs.metric_int_opt obs "ops_after" st.ps_ops_after;
      Obs.metric_int_opt obs "edges_before" st.ps_edges_before;
      Obs.metric_int_opt obs "edges_after" st.ps_edges_after;
      (g', st))

(* Standard pipeline: fold + lower shifts once, then fold/cse to fixpoint
   (bounded by [fold_rounds]), then strip dead logic. With [obs] set, every
   pass execution appears as a "pass:*" child span of the caller's scope,
   and the number of fold/cse rounds actually taken is recorded as the
   "fold_rounds" metric. *)
let optimize_with_stats ?obs ?verify_each ?(fold_rounds = 4) (g : graph) :
    graph * pass_stat list =
  let stats = ref [] in
  let run_changed name g =
    let g', st = run_pass ?obs (find_pass name) g in
    stats := st :: !stats;
    (match verify_each with Some f -> f ~pass_name:name g' | None -> ());
    (g', st.ps_changed)
  in
  let run name g = fst (run_changed name g) in
  let g = run "fold_constants" g in
  let g = run "lower_constant_shifts" g in
  let g = ref g and rounds = ref 0 and converged = ref false in
  while (not !converged) && !rounds < fold_rounds do
    incr rounds;
    let g1, folded = run_changed "fold_constants" !g in
    let g2, merged = run_changed "cse" g1 in
    g := g2;
    (* fold and cse only ever remove or rename ops, so "neither rewrote
       anything" is exactly "the round left the graph unchanged" *)
    if not (folded || merged) then converged := true
  done;
  g := run "dce" !g;
  g := run "dce_interface_reads" !g;
  g := run "dce" !g;
  (match obs with
  | Some s ->
      Obs.metric_int s "fold_rounds" !rounds;
      Obs.metric_int s "ops_before" (List.nth (List.rev !stats) 0).ps_ops_before;
      Obs.metric_int s "ops_after" (List.hd !stats).ps_ops_after;
      Obs.metric_int s "edges_before" (List.nth (List.rev !stats) 0).ps_edges_before;
      Obs.metric_int s "edges_after" (List.hd !stats).ps_edges_after
  | None -> ());
  (!g, List.rev !stats)

let optimize ?obs ?verify_each ?fold_rounds (g : graph) : graph =
  fst (optimize_with_stats ?obs ?verify_each ?fold_rounds g)
