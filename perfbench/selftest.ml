(* Fault injection: every output check of the benchmark must pass on
   correct output and fire on a corrupted one. `bench selftest`, from the
   checkout root, runs it. *)

open Perfbench

let failures = ref 0

let expect name ~fires errors =
  let fired = errors <> [] in
  if fired <> fires then begin
    incr failures;
    Printf.printf "FAIL %s: expected the check to %s, got %s\n" name
      (if fires then "fire" else "pass")
      (if fired then String.concat "; " errors else "no error")
  end
  else Printf.printf "ok   %s\n" name

let vex = Scaiev.Datasheet.vexriscv

(* grid_cold: a target's digest against the pinned list *)
let grid () =
  let pinned = Checks.read_pinned Checks.digests_file in
  let c = Longnail.Flow.compile vex (Isax.Registry.compile_by_name "dotprod") in
  let check c = Checks.check_digest ~pinned ~isax:"dotprod" ~core:"VexRiscv" (Checks.digest_of_compiled c) in
  expect "grid digest matches the pinned list" ~fires:false (check c);
  let f = List.hd c.funcs in
  let corrupt = { c with funcs = { f with cf_sv = f.cf_sv ^ " " } :: List.tl c.funcs } in
  expect "grid digest catches one extra SV byte" ~fires:true (check corrupt);
  expect "grid digest catches a YAML change" ~fires:true (check { c with config_yaml = c.config_yaml ^ "#" });
  expect "grid digest catches an unpinned target" ~fires:true
    (Checks.check_digest ~pinned ~isax:"dotprod" ~core:"NoSuchCore" (Checks.digest_of_compiled c))

(* verify_narrow: RTL-in-the-loop against the reference machine, with a
   miscompiled module standing in for a broken flow *)
let verify () =
  let program =
    {
      Inputs.p_name = "chksum";
      p_isax = "chksum";
      p_asm =
        "li a1, 0x2000\nlw a3, 0(a1)\nlw a6, 4(a1)\n.isax CHKSUM rd=a4, rs1=a3, rs2=a6\nsw a4, 8(a1)\nebreak";
      p_memory = [ (0x2000, 0x12345679); (0x2004, 0x7edcba98) ];
      p_observe = [ 0x2008 ];
      p_isax_instret = 1;
    }
  in
  let tu = Isax.Registry.compile_by_name "chksum" in
  let good = Longnail.Flow.compile vex tu in
  let words = Riscv.Asm.assemble ~custom:(Riscv.Machine.isax_encoder tu) program.p_asm in
  let run_rtl (c : Longnail.Flow.compiled) =
    let rl = Riscv.Rtl_loop.create c in
    Riscv.Rtl_loop.load_program rl words;
    List.iter
      (fun (a, v) ->
        Coredsl.Interp.write_mem rl.Riscv.Rtl_loop.st "MEM" a 4 (Bitvec.of_int (Bitvec.unsigned_ty 32) v))
      program.p_memory;
    ignore (Riscv.Rtl_loop.run rl);
    Checks.rtl_state ~observe:program.p_observe rl
  in
  let m = Riscv.Machine.of_compiled good in
  Riscv.Machine.load_program m words;
  List.iter (fun (a, v) -> Riscv.Machine.store_word m a v) program.p_memory;
  ignore (Riscv.Machine.run m);
  let reference = Checks.machine_state ~observe:program.p_observe m in
  let check rtl = Checks.check_states ~program:"chksum" ~rtl ~reference in
  let rtl = run_rtl good in
  expect "RTL-in-the-loop state equals the reference machine" ~fires:false (check rtl);
  let broken =
    let src =
      Inputs.replace_first (Isax.Registry.find_exn "chksum").source ~needle:"0x0000FFFF" ~by:"0x0000FFFE"
    in
    Longnail.Flow.compile vex (Coredsl.compile ~provider:Isax.Registry.provider ~target:"X_CHKSUM" src)
  in
  expect "state check catches a miscompiled module" ~fires:true (check (run_rtl broken));
  expect "state check catches a register difference" ~fires:true
    (check { rtl with regs = Array.mapi (fun i r -> if i = 14 then r lxor 1 else r) rtl.regs });
  expect "state check catches a memory difference" ~fires:true
    (check { rtl with memory = List.map (fun (a, v) -> (a, v + 1)) rtl.memory });
  expect "state check catches an instruction-count difference" ~fires:true
    (check { rtl with instret = rtl.instret + 1 })

(* serve_edit: a response against the cold compile of its request *)
let serve () =
  let expected = [ ("VexRiscv", "aa"); ("ORCA", "bb") ] in
  let check got = Checks.check_response ~label:"dotprod" ~expected got in
  expect "serve response equal to the cold compile" ~fires:false (check expected);
  expect "serve check catches different SV/YAML" ~fires:true (check [ ("VexRiscv", "aa"); ("ORCA", "bc") ]);
  expect "serve check catches a missing target" ~fires:true (check [ ("VexRiscv", "aa") ]);
  expect "serve check catches a target for the wrong core" ~fires:true (check [ ("ORCA", "bb"); ("VexRiscv", "aa") ])

(* dse_sweep: the point list of a pass against the first pass *)
let dse () =
  let point i =
    {
      Longnail.Dse.dp_label = Printf.sprintf "p%d" i;
      dp_scheduler = Longnail.Sched_build.Ilp;
      dp_cycle_factor = float_of_int i;
      dp_physical = false;
      dp_area_pct = 10.0 +. float_of_int i;
      dp_freq_mhz = 500.0 -. float_of_int i;
      dp_latency = i;
      dp_pipe_bits = 100 * i;
      dp_pareto = true;
    }
  in
  let points = List.init 4 point in
  let check ?(reference = points) ?(memo_hits = 0) got = Checks.check_sweep ~reference ~memo_hits got in
  expect "DSE check passes on identical passes" ~fires:false (check points);
  expect "DSE check catches a changed point" ~fires:true
    (check (List.map (fun (p : Longnail.Dse.point) -> { p with dp_area_pct = p.dp_area_pct +. 0.5 }) points));
  expect "DSE check catches too few distinct points" ~fires:true
    (check ~reference:[ point 0; point 1 ] [ point 0; point 1 ]);
  expect "DSE check catches measure-memo hits" ~fires:true (check ~memo_hits:1 points)

(* counter determinism: across the passes of a run and across runs *)
let counters () =
  let tally = Common.tally () in
  Common.same_counters tally "t" [ [ ("a", 1); ("b", 2) ]; [ ("a", 1); ("b", 2) ] ];
  expect "equal pass counters pass" ~fires:false (if tally.failed > 0 then [ "failed" ] else []);
  Common.same_counters tally "t" [ [ ("a", 1) ]; [ ("a", 2) ] ];
  expect "a pass counter that differs is a failure" ~fires:true (if tally.failed > 0 then [ "failed" ] else []);
  if not (Sys.file_exists Common.out_dir) then Sys.mkdir Common.out_dir 0o755;
  let cfg = { Common.workload = "selftest"; seed = 1; seconds = 1.0; trace = false } in
  let path = Common.ledger_path cfg in
  if Sys.file_exists path then Sys.remove path;
  let ledger counters =
    let t = Common.tally () in
    Common.ledger_check cfg t counters;
    if t.failed > 0 then t.messages else []
  in
  expect "first run records its counters" ~fires:false (ledger [ ("a", 1) ]);
  expect "a rerun with equal counters passes" ~fires:false (ledger [ ("a", 1) ]);
  expect "a rerun with a different counter is a failure" ~fires:true (ledger [ ("a", 2) ])

(* QoR counts against their pins: worse fails, equal or better passes *)
let qor () =
  let pins = Checks.read_qor_pins Checks.qor_pins_file in
  let pin w c = (List.find (fun (p : Checks.qor_pin) -> p.q_workload = w && p.q_counter = c) pins).q_value in
  let bits = pin "verify_narrow" "hw_pipe_reg_bits" and pareto = pin "dse_sweep" "dse_pareto_points" in
  let check w counters = Checks.check_qor pins ~workload:w counters in
  expect "pinned pipeline-register bits pass" ~fires:false (check "verify_narrow" [ ("hw_pipe_reg_bits", bits) ]);
  expect "fewer pipeline-register bits pass" ~fires:false
    (check "verify_narrow" [ ("hw_pipe_reg_bits", bits - 1) ]);
  expect "QoR check catches more pipeline-register bits" ~fires:true
    (check "verify_narrow" [ ("hw_pipe_reg_bits", bits + 1) ]);
  expect "QoR check catches a lost Pareto point" ~fires:true
    (check "dse_sweep" [ ("dse_points", pin "dse_sweep" "dse_points"); ("dse_pareto_points", pareto - 1) ]);
  expect "QoR check catches a missing count" ~fires:true (check "dse_sweep" [ ("dse_pareto_points", pareto) ])

let run () =
  grid ();
  verify ();
  serve ();
  dse ();
  counters ();
  qor ();
  if !failures > 0 then begin
    Printf.printf "%d self-test failures\n" !failures;
    exit 1
  end
