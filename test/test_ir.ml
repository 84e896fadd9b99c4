(* Tests for the IR layer: Hlir lowering (unrolling, inlining,
   predication), Lil lowering (interface mapping, hwarith legalization),
   and the optimization passes. *)

open Ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile_instr ?(extra_state = "") body =
  let src =
    Printf.sprintf
      {|
import "RV32I.core_desc"
InstructionSet T extends RV32I {
  architectural_state { %s }
  instructions {
    TEST {
      encoding: 12'd0 :: rs1[4:0] :: 3'b111 :: rd[4:0] :: 7'b1111011;
      behavior: { %s }
    }
  }
}
|}
      extra_state body
  in
  let tu = Coredsl.compile ~target:"T" src in
  let ti = Option.get (Coredsl.Tast.find_tinstr tu "TEST") in
  (tu, ti)

let lower ?extra_state body =
  let tu, ti = compile_instr ?extra_state body in
  let hg = Hlir.lower_instruction tu ti in
  Mir.verify hg;
  let lg = Lil.of_hlir tu.elab ~fields:ti.fields hg in
  Mir.verify lg;
  let lg = Passes.optimize lg in
  Mir.verify lg;
  (tu, ti, hg, lg)

let count_ops g name =
  List.length (List.filter (fun (o : Mir.op) -> o.opname = name) (Mir.all_ops g))

(* ---- Hlir ---- *)

let test_addi_shape () =
  (* the running example of Figure 5: X[rd] = X[rs1] + imm *)
  let tu = Coredsl.compile_rv32i () in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let hg = Hlir.lower_instruction tu addi in
  Mir.verify hg;
  check_int "one get" 1 (count_ops hg "coredsl.get");
  check_int "one set" 1 (count_ops hg "coredsl.set");
  check_int "one add" 1 (count_ops hg "hwarith.add");
  check_bool "has casts" true (count_ops hg "hwarith.cast" >= 1)

let test_loop_unrolling () =
  let _, _, hg, _ =
    lower
      "signed<32> acc = 0; for (int i = 0; i < 4; i += 1) { acc += (signed) X[rs1][i+7:i]; } \
       X[rd] = (unsigned) acc;"
  in
  (* four unrolled additions *)
  check_bool "unrolled adds" true (count_ops hg "hwarith.add" >= 1);
  (* the loop is gone: lowering a constant-bound loop terminates and
     produces a pure dataflow graph *)
  check_int "no loop ops remain" 0 (count_ops hg "scf.for")

let test_loop_fully_constant_folds () =
  (* loop over constants folds to a single constant write *)
  let _, _, _, lg =
    lower "signed<32> acc = 0; for (int i = 0; i < 4; i += 1) { acc += i; } X[rd] = (unsigned) acc;"
  in
  (* 0+1+2+3 = 6 must appear as a constant *)
  let has_six =
    List.exists
      (fun (o : Mir.op) ->
        o.opname = "hw.constant"
        && match Mir.attr_bv o "value" with Some v -> Bitvec.to_int v = 6 | None -> false)
      (Mir.all_ops lg)
  in
  check_bool "constant 6" true has_six

let test_function_inlining_no_muxes () =
  (* a pure helper called under a predicate must not generate per-assignment
     muxes (scope-aware predication) *)
  let tu = Isax.Registry.compile_by_name "sparkle" in
  let ti = Option.get (Coredsl.Tast.find_tinstr tu "ALZ_X") in
  let hg = Hlir.lower_instruction tu ti in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:ti.fields hg) in
  check_int "no muxes in alzette datapath" 0 (count_ops lg "comb.mux")

let test_if_conversion () =
  let _, _, _, lg = lower "if (X[rs1] > 5) X[rd] = (unsigned<32>)1; else X[rd] = (unsigned<32>)2;" in
  (* both branches merge into one predicated write_rd with a mux *)
  check_int "single write_rd" 1 (count_ops lg "lil.write_rd");
  check_bool "mux present" true (count_ops lg "comb.mux" >= 1)

let test_spawn_attr_propagation () =
  let tu = Isax.Registry.compile_by_name "sqrt_decoupled" in
  let ti = Option.get (Coredsl.Tast.find_tinstr tu "SQRT_D") in
  let hg = Hlir.lower_instruction tu ti in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:ti.fields hg) in
  let wr = List.find (fun (o : Mir.op) -> o.opname = "lil.write_rd") (Mir.all_ops lg) in
  check_bool "write_rd marked spawn" true (Mir.attr_bool wr "spawn")

let test_write_merging () =
  (* two conditional writes to the same register merge into one *)
  let _, _, _, lg =
    lower ~extra_state:"register unsigned<32> R;"
      "if (X[rs1] > 5) R = X[rs1]; if (X[rs1] > 9) R = (unsigned<32>)0;"
  in
  check_int "one custreg write" 1 (count_ops lg "lil.write_custreg")

let test_read_after_write () =
  (* a read after a write observes the written value: the final value of
     R2 is rs1+1, computed from the written R, not a second read *)
  let _, _, _, lg =
    lower ~extra_state:"register unsigned<32> R; register unsigned<32> R2;"
      "R = (unsigned<32>)(X[rs1] + 1); R2 = R;"
  in
  check_int "only one custreg read (none)" 0 (count_ops lg "lil.read_custreg");
  check_int "two writes" 2 (count_ops lg "lil.write_custreg")

(* ---- Lil ---- *)

let test_lil_interface_mapping () =
  let tu = Coredsl.compile_rv32i () in
  let lw = Option.get (Coredsl.Tast.find_tinstr tu "LW") in
  let hg = Hlir.lower_instruction tu lw in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:lw.fields hg) in
  check_int "read_rs1" 1 (count_ops lg "lil.read_rs1");
  check_int "read_mem" 1 (count_ops lg "lil.read_mem");
  check_int "write_rd" 1 (count_ops lg "lil.write_rd");
  Lil.validate_single_use lg

let test_lil_rejects_arbitrary_x_index () =
  let tu, ti = compile_instr "X[5] = (unsigned<32>)1;" in
  let hg = Hlir.lower_instruction tu ti in
  (try
     ignore (Lil.of_hlir tu.elab ~fields:ti.fields hg);
     Alcotest.fail "expected lil error"
   with Lil.Lil_error _ -> ())

let test_lil_single_use_enforcement () =
  (* two loads from different addresses exceed the single RdMem budget *)
  let tu, ti = compile_instr "X[rd] = (unsigned<32>)(MEM[X[rs1]] + MEM[(unsigned<32>)(X[rs1]+100)]);" in
  let hg = Hlir.lower_instruction tu ti in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:ti.fields hg) in
  (try
     Lil.validate_single_use lg;
     Alcotest.fail "expected single-use violation"
   with Lil.Lil_error _ -> ())

let test_legalization_sign_extension () =
  (* signed cast becomes replicate + concat, like Figure 5c *)
  let tu = Coredsl.compile_rv32i () in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let hg = Hlir.lower_instruction tu addi in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:addi.fields hg) in
  check_bool "replicate" true (count_ops lg "comb.replicate" >= 1);
  check_bool "concat" true (count_ops lg "comb.concat" >= 1);
  check_int "one comb.add" 1 (count_ops lg "comb.add")

(* ---- passes ---- *)

let test_cse_dedups_reads () =
  (* X[rs1] read twice collapses to one read_rs1 *)
  let _, _, _, lg = lower "X[rd] = (unsigned<32>)(X[rs1] + X[rs1]);" in
  check_int "one rs1 read" 1 (count_ops lg "lil.read_rs1")

let test_dce_removes_dead_logic () =
  let _, _, _, lg = lower "unsigned<64> dead = X[rs1] * X[rs1]; X[rd] = X[rs1];" in
  check_int "dead multiply removed" 0 (count_ops lg "comb.mul")

let test_constant_fold () =
  let _, _, _, lg = lower "X[rd] = (unsigned<32>)(2 + 3);" in
  check_int "no adds" 0 (count_ops lg "comb.add")

let test_constant_shift_lowering () =
  let _, _, _, lg = lower "X[rd] = (unsigned<32>)(X[rs1] << 3);" in
  check_int "no shifter" 0 (count_ops lg "comb.shl");
  check_bool "wiring instead" true (count_ops lg "comb.concat" >= 1)

let test_dynamic_shift_stays () =
  let _, _, _, lg =
    lower
      ~extra_state:"register unsigned<32> AMT;"
      "X[rd] = (unsigned<32>)(X[rs1] << (AMT & 31));"
  in
  check_int "real shifter" 1 (count_ops lg "comb.shl")

let test_dot_export () =
  let tu = Coredsl.compile_rv32i () in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let hg = Hlir.lower_instruction tu addi in
  let lg = Passes.optimize (Lil.of_hlir tu.elab ~fields:addi.fields hg) in
  let dot = Dot.of_graph lg in
  let contains needle =
    let nl = String.length needle and hl = String.length dot in
    let rec go i = i + nl <= hl && (String.sub dot i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "digraph" true (contains "digraph \"ADDI\"");
  check_bool "interface node" true (contains "lil.read_rs1");
  check_bool "edges with widths" true (contains ":34b");
  (* with a schedule, nodes are clustered by time step *)
  let core = Scaiev.Datasheet.vexriscv in
  let f = Longnail.Flow.compile_functionality core tu (`Instr addi) in
  let dot2 =
    Dot.of_graph
      ~time_of:(fun oid ->
        try Some (Longnail.Sched_build.start_time f.cf_built
                    (List.find (fun (o : Mir.op) -> o.oid = oid) (Mir.all_ops f.cf_lil)))
        with _ -> None)
      f.cf_lil
  in
  let contains2 needle =
    let nl = String.length needle and hl = String.length dot2 in
    let rec go i = i + nl <= hl && (String.sub dot2 i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "clustered by time" true (contains2 "subgraph cluster_t")

(* semantics preservation: optimized vs unoptimized graph agree when
   evaluated on random inputs through the comb interpreter *)
let eval_graph (g : Mir.graph) ~(inputs : (string * Bitvec.t) list) =
  (* evaluate all comb ops; interface reads take values from [inputs] *)
  let values : (int, Bitvec.t) Hashtbl.t = Hashtbl.create 64 in
  let u w = Bitvec.unsigned_ty w in
  let result = ref None in
  List.iter
    (fun (op : Mir.op) ->
      let set v x = Hashtbl.replace values v.Mir.vid x in
      let get v = Hashtbl.find values v.Mir.vid in
      match op.Mir.opname with
      | "lil.instr_word" -> set (List.hd op.results) (List.assoc "instr_word" inputs)
      | "lil.read_rs1" -> set (List.hd op.results) (List.assoc "rs1" inputs)
      | "lil.read_rs2" -> set (List.hd op.results) (List.assoc "rs2" inputs)
      | "lil.read_pc" -> set (List.hd op.results) (List.assoc "pc" inputs)
      | "lil.write_rd" -> result := Some (get (List.hd op.operands))
      | "lil.sink" -> ()
      | name when Comb_eval.is_comb name ->
          let r = List.hd op.results in
          set r
            (Comb_eval.eval ~name ~attrs:op.attrs
               ~ops:(List.map (fun v -> Bitvec.cast (u v.Mir.vty.Bitvec.width) (get v)) op.operands)
               ~result_width:r.Mir.vty.Bitvec.width)
      | other -> Alcotest.failf "eval_graph: unsupported op %s" other)
    g.Mir.body;
  !result

let prop_optimize_preserves_semantics =
  QCheck.Test.make ~name:"optimize preserves dotprod semantics" ~count:100
    (QCheck.pair (QCheck.int_bound 0xFFFFFF) (QCheck.int_bound 0xFFFFFF)) (fun (a, b) ->
      let tu = Isax.Registry.compile_by_name "dotprod" in
      let ti = Option.get (Coredsl.Tast.find_tinstr tu "DOTP") in
      let hg = Hlir.lower_instruction tu ti in
      let raw = Lil.of_hlir tu.elab ~fields:ti.fields hg in
      let opt = Passes.optimize raw in
      let u32 = Bitvec.unsigned_ty 32 in
      let inputs =
        [
          ("instr_word", Bitvec.of_int u32 0x0020_80EB);
          ("rs1", Bitvec.of_int u32 a);
          ("rs2", Bitvec.of_int u32 b);
        ]
      in
      match (eval_graph raw ~inputs, eval_graph opt ~inputs) with
      | Some x, Some y -> Bitvec.equal_value x y
      | _ -> false)

(* ---- the passes against the drivers they replaced ---- *)

(* Reference DCE: drop unused pure ops, rebuilding the use map until
   nothing changes. *)
let dce_fixpoint (g : Mir.graph) : Mir.graph =
  let changed = ref true and g = ref g in
  while !changed do
    changed := false;
    let uses = Mir.use_map !g in
    let body =
      List.filter
        (fun (op : Mir.op) ->
          Passes.has_side_effect op || Passes.is_interface_read op
          ||
          let live =
            List.exists
              (fun (r : Mir.value) ->
                match Hashtbl.find_opt uses r.Mir.vid with Some (_ :: _) -> true | _ -> false)
              op.results
          in
          if not live then changed := true;
          live)
        !g.Mir.body
    in
    g := { !g with body }
  done;
  !g

(* Reference pipeline: the fold/cse fixpoint is detected by printing the
   graph before and after each round, and DCE is [dce_fixpoint]. *)
let optimize_reference ?(fold_rounds = 4) g =
  let stats = ref [] in
  let run name g =
    let pass =
      if name = "dce" then { Passes.pass_name = "dce"; pass_fn = (fun g -> (dce_fixpoint g, false)) }
      else Passes.find_pass name
    in
    let g', st = Passes.run_pass pass g in
    stats := st :: !stats;
    g'
  in
  let g = run "fold_constants" g in
  let g = run "lower_constant_shifts" g in
  let g = ref g and rounds = ref 0 and converged = ref false in
  while (not !converged) && !rounds < fold_rounds do
    incr rounds;
    let before = Mir.graph_to_string !g in
    g := run "fold_constants" !g;
    g := run "cse" !g;
    if Mir.graph_to_string !g = before then converged := true
  done;
  g := run "dce" !g;
  g := run "dce_interface_reads" !g;
  g := run "dce" !g;
  (!g, List.rev !stats)

(* the pass trace without the changed flag, which the reference's DCE
   does not report *)
let trace stats =
  List.map
    (fun (st : Passes.pass_stat) ->
      Printf.sprintf "%s %d->%d %d->%d" st.ps_pass st.ps_ops_before st.ps_ops_after
        st.ps_edges_before st.ps_edges_after)
    stats

let same_as_reference ?fold_rounds what g =
  let g1, s1 = Passes.optimize_with_stats ?fold_rounds g in
  let g2, s2 = optimize_reference ?fold_rounds g in
  Alcotest.(check string) (what ^ ": graph") (Mir.graph_to_string g2) (Mir.graph_to_string g1);
  Alcotest.(check (list string)) (what ^ ": passes") (trace s2) (trace s1)

let test_optimize_matches_reference_bundled () =
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let tu = Isax.Registry.compile e in
      List.iter
        (fun (ti : Coredsl.Tast.tinstr) ->
          if Longnail.Flow.is_isax_instruction ti then
            same_as_reference (e.name ^ "/" ^ ti.ti_name)
              (Lil.of_hlir tu.elab ~fields:ti.fields (Hlir.lower_instruction tu ti)))
        tu.tinstrs;
      List.iter
        (fun (ta : Coredsl.Tast.talways) ->
          same_as_reference (e.name ^ "/" ^ ta.ta_name)
            (Lil.of_hlir tu.elab ~fields:[] (Hlir.lower_always tu ta)))
        tu.talways)
    Isax.Registry.all

(* A mux with a constant condition is replaced by its kept operand only
   when the fold pass ends, so an add of that operand and a constant
   folds one round later, and cse has nothing to merge in that round:
   the fixpoint needs a second round to see that nothing changes. *)
let test_fold_only_round () =
  let b = Mir.builder () in
  let u w = Bitvec.unsigned_ty w in
  let const w v = Mir.add_op1 b "hw.constant" [] (u w) ~attrs:[ ("value", Mir.A_bv (Bitvec.of_int (u w) v)) ] in
  let x = Mir.add_op1 b "lil.read_rs1" [] (u 8) in
  let m = Mir.add_op1 b "comb.mux" [ const 1 1; const 8 5; x ] (u 8) in
  let s = Mir.add_op1 b "comb.add" [ m; const 8 3 ] (u 8) in
  ignore (Mir.add_op b "lil.write_rd" [ s ] []);
  let g = Mir.finish b ~name:"fold_only" ~kind:`Instruction () in
  same_as_reference "fold-only round" g;
  let _, stats = Passes.optimize_with_stats g in
  let folds = List.filter (fun (st : Passes.pass_stat) -> st.ps_pass = "fold_constants") stats in
  Alcotest.(check (list bool)) "second fold rewrites, third does not" [ true; true; false ]
    (List.map (fun (st : Passes.pass_stat) -> st.ps_changed) folds)

(* A random lil-like graph over 8-bit values: interface reads, constants
   (often repeated, so cse has work), arithmetic, compares feeding muxes,
   constant shifts, pure ops without results, region ops whose nested ops
   read outer values and sometimes the region op's own result, and
   register writes. Most values end up unused, so DCE finds dead chains. *)
let random_graph seed =
  let st = Random.State.make [| seed |] in
  let rand n = Random.State.int st n in
  let b = Mir.builder () in
  let u w = Bitvec.unsigned_ty w in
  (* a third of the graphs are small with spread-out constants, so that
     some fold rounds leave nothing for cse to merge *)
  let small = rand 3 = 0 in
  let cmax = if small then 256 else 4 in
  let pool = ref [ Mir.add_op1 b "lil.read_rs1" [] (u 8) ] in
  let bools = ref [] in
  let pick l = List.nth l (rand (List.length l)) in
  let const w v = Mir.add_op1 b "hw.constant" [] (u w) ~attrs:[ ("value", Mir.A_bv (Bitvec.of_int (u w) v)) ] in
  let nested_op opname operands =
    let r = Mir.fresh_value b (u 8) in
    let op =
      { Mir.oid = b.next_o; opname; operands; results = [ r ]; attrs = []; regions = []; oloc = None }
    in
    b.next_o <- b.next_o + 1;
    op
  in
  for _ = 1 to (if small then 2 + rand 6 else 4 + rand 30) do
    match rand 12 with
    | 0 -> pool := const 8 (rand cmax) :: !pool
    | 1 -> pool := Mir.add_op1 b "lil.read_rs2" [] (u 8) :: !pool
    | 2 | 3 ->
        let name = pick [ "comb.add"; "comb.and"; "comb.xor"; "comb.or"; "comb.sub" ] in
        pool := Mir.add_op1 b name [ pick !pool; pick !pool ] (u 8) :: !pool
    | 4 -> bools := Mir.add_op1 b "comb.icmp_eq" [ pick !pool; pick !pool ] (u 1) :: !bools
    | 5 ->
        let c = if !bools = [] || rand 3 = 0 then const 1 (rand 2) else pick !bools in
        pool := Mir.add_op1 b "comb.mux" [ c; pick !pool; pick !pool ] (u 8) :: !pool
    | 6 ->
        let amt = const 8 (rand 10) in
        pool := Mir.add_op1 b (pick [ "comb.shl"; "comb.shru"; "comb.shrs" ]) [ pick !pool; amt ] (u 8) :: !pool
    | 7 -> ignore (Mir.add_op b "test.probe" [ pick !pool ] [])
    | 8 ->
        let r = Mir.fresh_value b (u 8) in
        let outer = pick !pool in
        let nested =
          nested_op "comb.add" [ outer; pick !pool ]
          :: (if rand 3 = 0 then [ nested_op "comb.xor" [ r; outer ] ] else [])
        in
        let op =
          {
            Mir.oid = b.next_o;
            opname = "test.region";
            operands = [ pick !pool ];
            results = [ r ];
            attrs = [];
            regions = [ nested ];
            oloc = None;
          }
        in
        b.next_o <- b.next_o + 1;
        b.ops <- op :: b.ops;
        pool := r :: !pool
    | 9 -> ignore (Mir.add_op b "lil.write_rd" [ pick !pool ] [])
    | 10 ->
        (* constant-condition mux feeding an add: folds a round late *)
        let m = Mir.add_op1 b "comb.mux" [ const 1 (rand 2); const 8 (rand cmax); pick !pool ] (u 8) in
        pool := Mir.add_op1 b "comb.add" [ m; const 8 (rand cmax) ] (u 8) :: !pool
    | _ -> pool := Mir.add_op1 b "comb.add" [ pick !pool; const 8 (rand cmax) ] (u 8) :: !pool
  done;
  ignore (Mir.add_op b "lil.write_rd" [ pick !pool ] []);
  Mir.finish b ~name:"random" ~kind:`Instruction ()

let arb_graph = QCheck.make ~print:(fun seed -> Mir.graph_to_string (random_graph seed)) QCheck.Gen.int

let prop_dce_matches_fixpoint =
  QCheck.Test.make ~name:"one-sweep dce equals the fixpoint dce" ~count:500 arb_graph (fun seed ->
      let g = random_graph seed in
      let swept, removed = Passes.dce g in
      let reference = dce_fixpoint g in
      Mir.graph_to_string swept = Mir.graph_to_string reference
      && removed = (Passes.op_count reference <> Passes.op_count g))

let prop_optimize_matches_reference =
  QCheck.Test.make ~name:"optimize equals the printing-fixpoint reference" ~count:300
    (QCheck.pair arb_graph (QCheck.int_range 1 4)) (fun (seed, fold_rounds) ->
      let g = random_graph seed in
      same_as_reference ~fold_rounds "random" g;
      same_as_reference "random" g;
      true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_optimize_preserves_semantics; prop_dce_matches_fixpoint; prop_optimize_matches_reference ]

let () =
  Alcotest.run "ir"
    [
      ( "hlir",
        [
          Alcotest.test_case "ADDI shape (fig 5b)" `Quick test_addi_shape;
          Alcotest.test_case "loop unrolling" `Quick test_loop_unrolling;
          Alcotest.test_case "constant loop folds" `Quick test_loop_fully_constant_folds;
          Alcotest.test_case "inlining without muxes" `Quick test_function_inlining_no_muxes;
          Alcotest.test_case "if conversion" `Quick test_if_conversion;
          Alcotest.test_case "spawn attribute" `Quick test_spawn_attr_propagation;
          Alcotest.test_case "write merging" `Quick test_write_merging;
          Alcotest.test_case "read after write" `Quick test_read_after_write;
        ] );
      ( "lil",
        [
          Alcotest.test_case "interface mapping" `Quick test_lil_interface_mapping;
          Alcotest.test_case "arbitrary X index rejected" `Quick test_lil_rejects_arbitrary_x_index;
          Alcotest.test_case "single-use enforcement" `Quick test_lil_single_use_enforcement;
          Alcotest.test_case "sign-extension legalization" `Quick test_legalization_sign_extension;
        ] );
      ( "passes",
        [
          Alcotest.test_case "cse dedups reads" `Quick test_cse_dedups_reads;
          Alcotest.test_case "dce removes dead logic" `Quick test_dce_removes_dead_logic;
          Alcotest.test_case "optimize matches reference on bundled ISAXes" `Quick
            test_optimize_matches_reference_bundled;
          Alcotest.test_case "a fold-only round" `Quick test_fold_only_round;
          Alcotest.test_case "constant folding" `Quick test_constant_fold;
          Alcotest.test_case "constant shift lowering" `Quick test_constant_shift_lowering;
          Alcotest.test_case "dynamic shift stays" `Quick test_dynamic_shift_stays;
          Alcotest.test_case "dot export" `Quick test_dot_export;
        ] );
      ("properties", qcheck_cases);
    ]
