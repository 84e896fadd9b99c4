(* verify_narrow: paper Section 5.3. Every pass compiles sqrt_tightly,
   sqrt_decoupled, chksum and autoinc+zol with translation-validated
   width narrowing on VexRiscv in a fresh session, then runs seeded
   assembler programs through the RTL-in-the-loop executor and checks
   each final register file, pc, observed memory and instruction count
   against the reference machine (ISS plus CoreDSL interpreter). *)

open Common

let core = Scaiev.Datasheet.vexriscv
let stack_top = 0x8000

type prepared = {
  programs : (Inputs.program * int list) list;  (** with assembled words *)
  encoders : (string * Riscv.Asm.custom_encoder) list;
}

let prepare seed =
  let encoders =
    List.map
      (fun name -> (name, Riscv.Machine.isax_encoder (Isax.Registry.compile_by_name name)))
      Inputs.verify_isaxes
  in
  let programs =
    List.map
      (fun (p : Inputs.program) ->
        (p, Riscv.Asm.assemble ~custom:(List.assoc p.p_isax encoders) p.p_asm))
      (Inputs.programs seed)
  in
  { programs; encoders }

type program_run = {
  program : Inputs.program;
  rtl : Checks.arch_state;
  reference : Checks.arch_state;
  rtl_s : float;
  reference_s : float;
}

type outcome = {
  compiled : (string * Longnail.Flow.compiled) list;
  runs : program_run list;
  session : Longnail.Flow.session;
  frontend_s : float;
  obs : Obs.span option;
}

let run_program tr (c : Longnail.Flow.compiled) ((p : Inputs.program), words) =
  let rtl, rtl_s =
    call tr ("riscv.rtl_loop:" ^ p.p_name) (fun () ->
        let t0 = now () in
        let rl = Riscv.Rtl_loop.create c in
        Riscv.Rtl_loop.load_program rl words;
        (Coredsl.Interp.reg_array rl.Riscv.Rtl_loop.st "X").(2) <- Bitvec.of_int (Bitvec.unsigned_ty 32) stack_top;
        List.iter
          (fun (a, v) -> Coredsl.Interp.write_mem rl.Riscv.Rtl_loop.st "MEM" a 4 (Bitvec.of_int (Bitvec.unsigned_ty 32) v))
          p.p_memory;
        ignore (Riscv.Rtl_loop.run ~fuel:1_000_000 rl);
        (Checks.rtl_state ~observe:p.p_observe rl, now () -. t0))
  in
  let reference, reference_s =
    call tr ("riscv.reference:" ^ p.p_name) (fun () ->
        let t0 = now () in
        let m = Riscv.Machine.of_compiled c in
        Riscv.Machine.write_gpr m 2 stack_top;
        Riscv.Machine.load_program m words;
        List.iter (fun (a, v) -> Riscv.Machine.store_word m a v) p.p_memory;
        ignore (Riscv.Machine.run ~fuel:1_000_000 m);
        (Checks.machine_state ~observe:p.p_observe m, now () -. t0))
  in
  { program = p; rtl; reference; rtl_s; reference_s }

let verify_pass ?(tag = "") tr prepared =
  let session = Longnail.Flow.create_session () in
  let obs = if Trace.enabled tr then Some (Obs.create ~name:"compile_many" ()) else None in
  Trace.with_span tr ~tag "pass" (fun () ->
      let t0 = now () in
      let units =
        List.map
          (fun name ->
            let e = Isax.Registry.find_exn name in
            ( core,
              call tr "coredsl.frontend" (fun () ->
                  Longnail.Flow.frontend session ~key:(Grid_cold.frontend_key e) (fun () -> Isax.Registry.compile e)) ))
          Inputs.verify_isaxes
      in
      let frontend_s = now () -. t0 in
      let request =
        Longnail.Flow.Request.make ~session ?obs ~knobs:(Longnail.Flow.knobs ~narrow:true ()) ()
      in
      let compiled =
        List.combine Inputs.verify_isaxes
          (call tr ?obs "longnail.compile_many" (fun () -> Longnail.Flow.compile_many ~request units))
      in
      let runs =
        List.map (fun ((p : Inputs.program), w) -> run_program tr (List.assoc p.p_isax compiled) (p, w)) prepared.programs
      in
      { compiled; runs; session; frontend_s; obs = Option.map Obs.root obs })

(* ---- probes of single layers, run after a traced pass ---- *)

let rd_value (r : Longnail.Cosim.response) =
  match r.rd_write with Some (v, true) -> Some (Bitvec.to_int v) | _ -> None

(* Cosim.run on single instructions with the program's operands; each
   result must equal what the reference machine stored for it. *)
let cosim_probe tr tally prepared (o : outcome) =
  let bv = Bitvec.of_int (Bitvec.unsigned_ty 32) in
  let probe (prog_name, isax, instr, binary) =
    let run = List.find (fun r -> r.program.Inputs.p_name = prog_name) o.runs in
    let c = List.assoc isax o.compiled in
    let f = Option.get (Longnail.Flow.find_func c instr) in
    let word =
      List.hd
        (Riscv.Asm.assemble ~custom:(List.assoc isax prepared.encoders)
           (Printf.sprintf ".isax %s rd=a4, rs1=a3%s" instr (if binary then ", rs2=a6" else "")))
    in
    let operand i = List.assoc (Inputs.operand_base + (4 * i)) run.program.p_memory in
    List.mapi
      (fun i (_, expected) ->
        let per = if binary then 2 else 1 in
        let stim =
          {
            Longnail.Cosim.default_stimulus with
            instr_word = Some (bv word);
            rs1 = Some (bv (operand (per * i)));
            rs2 = (if binary then Some (bv (operand ((per * i) + 1))) else None);
          }
        in
        let t0 = now () in
        let r = call tr "longnail.cosim" (fun () -> Longnail.Cosim.run f stim) in
        let us = (now () -. t0) *. 1e6 in
        record tally
          (match rd_value r with
          | Some v when v = expected -> []
          | v ->
              [
                Printf.sprintf "cosim %s operand %d: rd %s, reference %#x" instr i
                  (match v with Some v -> Printf.sprintf "%#x" v | None -> "not written")
                  expected;
              ]);
        us)
      run.reference.Checks.memory
  in
  List.concat_map probe
    [ ("sqrt_tightly_loop", "sqrt_tightly", "SQRT", false); ("chksum_loop", "chksum", "CHKSUM", true) ]

(* Engine construction for every generated module, and the compiled
   engine's cycle rate on the largest one under seeded inputs. *)
let engine_probe tr seed (o : outcome) =
  let netlists =
    List.concat_map
      (fun (_, (c : Longnail.Flow.compiled)) ->
        List.map (fun (f : Longnail.Flow.compiled_functionality) -> f.cf_hw.Longnail.Hwgen.netlist) c.funcs)
      o.compiled
  in
  let create_us =
    List.map
      (fun m ->
        let t0 = now () in
        ignore (call tr "rtl.engine_create" (fun () -> Rtl.Engine.create m));
        (now () -. t0) *. 1e6)
      netlists
  in
  let largest =
    List.fold_left
      (fun a m -> if List.length m.Rtl.Netlist.nodes > List.length a.Rtl.Netlist.nodes then m else a)
      (List.hd netlists) netlists
  in
  let st = Inputs.rng seed 4 in
  let cycles = 2000 in
  let stimuli =
    Array.init cycles (fun _ ->
        List.map
          (fun (p : Rtl.Netlist.port) ->
            (p.port_name, Bitvec.of_int (Bitvec.unsigned_ty p.port_width) (Random.State.bits st)))
          largest.Rtl.Netlist.inputs)
  in
  let eng = Rtl.Engine.create largest in
  let t0 = now () in
  call tr "rtl.engine_cycles" (fun () ->
      Array.iter
        (fun ins ->
          List.iter (fun (n, v) -> Rtl.Engine.set_input eng n v) ins;
          Rtl.Engine.eval eng;
          Rtl.Engine.clock eng)
        stimuli);
  (create_us, float_of_int cycles /. (now () -. t0))

(* ---- the workload ---- *)

type kept = {
  k_counters : (string * int) list;
  k_layers : metric list;
  k_instret : int;
  k_rtl_s : float;
}

let run cfg =
  let tally = tally () in
  let off = Trace.create false and tr = Trace.create true in
  let setup_s, prepared =
    setup (fun () ->
        let prepared = prepare cfg.seed in
        ignore (verify_pass off prepared);
        prepared)
  in
  let after ~traced o =
    List.iter
      (fun r ->
        record tally (Checks.check_states ~program:r.program.Inputs.p_name ~rtl:r.rtl ~reference:r.reference))
      o.runs;
    let instret = List.fold_left (fun a r -> a + r.rtl.Checks.instret) 0 o.runs in
    let rtl_s = List.fold_left (fun a r -> a +. r.rtl_s) 0.0 o.runs in
    let layers =
      if not traced then []
      else begin
        let cosim_us = cosim_probe tr tally prepared o in
        let create_us, cycles_per_s = engine_probe tr cfg.seed o in
        let isax_instret = List.fold_left (fun a r -> a + r.program.Inputs.p_isax_instret) 0 o.runs in
        Layers.compile_layers (Option.to_list o.obs)
        @ Layers.lp_layers o.session @ Layers.cache_layers o.session
        @ [
            metric "longnail.cosim_call_us" "us" (Stats.median cosim_us);
            metric "longnail.cosim_calls" "count" (float_of_int (List.length cosim_us));
            metric "rtl.engine_create_us" "us" (Stats.median create_us);
            metric "rtl.cycles_per_s" "1/s" cycles_per_s;
            metric "coredsl.frontend_ms" "ms" (o.frontend_s *. 1000.0);
            metric "riscv.rtl_loop_ms" "ms" (rtl_s *. 1000.0);
            metric "riscv.instret" "count" (float_of_int instret);
            metric "riscv.isax_instret" "count" (float_of_int isax_instret);
            metric "riscv.reference_ms" "ms" (1000.0 *. List.fold_left (fun a r -> a +. r.reference_s) 0.0 o.runs);
          ]
      end
    in
    let counters =
      [ ("hw_pipe_reg_bits", Layers.pipe_reg_bits o.compiled); ("riscv.instret", instret) ]
      @ Layers.counters_of (Layers.lp_layers o.session @ Layers.cache_layers o.session) [ "lp."; "cache." ]
    in
    { k_counters = counters; k_layers = layers; k_instret = instret; k_rtl_s = rtl_s }
  in
  let host = Host.create () in
  let ps =
    passes cfg ~host ~after ~run:(fun ~traced i ->
        verify_pass ~tag:(Printf.sprintf "pass-%d" i) (if traced then tr else off) prepared)
  in
  same_counters tally "verify_narrow" (List.map (fun p -> p.value.k_counters) ps);
  let first = (List.hd ps).value in
  let untraced = untraced_only ps and traced = traced_only ps in
  let secs l = List.map (fun p -> p.seconds) l in
  let ips l = List.map (fun p -> float_of_int p.value.k_instret /. p.value.k_rtl_s) l in
  let named =
    [
      metric "verify_pass_s" "s" (Stats.median (secs untraced));
      metric "sim_instr_per_s" "1/s" (Stats.median (ips untraced));
      metric "hw_pipe_reg_bits" "bits" (float_of_int (List.assoc "hw_pipe_reg_bits" first.k_counters));
    ]
  in
  let metrics, counters =
    if not cfg.trace then
      ( [
          metric "setup_s" "s" (setup_s *. Host.factor host);
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric "op_p50_ms" "ms" (1000.0 *. Stats.median (secs ps) *. Host.factor host);
          metric "rate_per_s" "1/s" (Stats.median (ips ps) /. Host.factor host);
        ],
        first.k_counters )
    else
      let tp = List.map (fun p -> p.value) traced in
      let layers = layer_medians (List.map (fun k -> k.k_layers) tp) in
      ( layers
        @ [
            metric "coredsl.source_bytes" "bytes"
              (float_of_int
                 (List.fold_left
                    (fun a n -> a + String.length (Isax.Registry.find_exn n).Isax.Registry.source)
                    0 Inputs.verify_isaxes));
          ]
        @ gc_metrics (List.map (fun p -> p.gc) traced)
        @ trace_metrics tr ~untraced:(secs untraced) ~traced:(secs traced),
        first.k_counters @ Layers.counters_of layers [ "analysis.tv_vectors"; "riscv.isax_instret"; "longnail.cosim_calls" ] )
  in
  ( {
      tally;
      metrics;
      named;
      counters;
      report =
        [
          timing_line "verify_pass_s" ~unit_:"s" (secs untraced);
          timing_line "sim_instr_per_s" ~unit_:"1/s" (ips untraced);
          Host.describe host;
          Printf.sprintf "programs: %s"
            (String.concat ", "
               (List.map
                  (fun ((p : Inputs.program), w) -> Printf.sprintf "%s (%d words)" p.p_name (List.length w))
                  prepared.programs));
        ];
    },
    tr )
