(* Tests for the RTL layer: netlist validation, the cycle-accurate
   simulator, and SystemVerilog emission. *)

open Rtl

let u w = Bitvec.unsigned_ty w
let bv w v = Bitvec.of_int (u w) v
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let const name w v =
  Netlist.Comb { out = name; width = w; op = "hw.constant"; attrs = [ ("value", Ir.Mir.A_bv (bv w v)) ]; inputs = [] }

(* a 4-bit counter: c <= c + 1 *)
let counter_module =
  {
    Netlist.mod_name = "counter";
    inputs = [];
    outputs = [ { port_name = "count"; port_width = 4; port_signal = "c" } ];
    nodes =
      [
        const "one" 4 1;
        Netlist.Comb { out = "next"; width = 4; op = "comb.add"; attrs = []; inputs = [ "c"; "one" ] };
        Netlist.Reg { out = "c"; width = 4; next = "next"; enable = None; init = Some (bv 4 0) };
      ];
  }

let test_sim_counter () =
  let s = Sim.create counter_module in
  for expect = 0 to 20 do
    Sim.eval s;
    check_int (Printf.sprintf "count at %d" expect) (expect mod 16)
      (Bitvec.to_int (Sim.output s "count"));
    Sim.clock s
  done

let test_sim_stall_enable () =
  (* register with an enable driven by an input *)
  let m =
    {
      Netlist.mod_name = "stallable";
      inputs =
        [
          { Netlist.port_name = "d"; port_width = 8; port_signal = "d" };
          { port_name = "en"; port_width = 1; port_signal = "en" };
        ];
      outputs = [ { port_name = "q"; port_width = 8; port_signal = "q" } ];
      nodes = [ Netlist.Reg { out = "q"; width = 8; next = "d"; enable = Some "en"; init = None } ];
    }
  in
  let s = Sim.create m in
  Sim.cycle s [ ("d", bv 8 0xAA); ("en", bv 1 1) ];
  Sim.eval s;
  check_int "loaded" 0xAA (Bitvec.to_int (Sim.output s "q"));
  Sim.cycle s [ ("d", bv 8 0x55); ("en", bv 1 0) ];
  Sim.eval s;
  check_int "stalled" 0xAA (Bitvec.to_int (Sim.output s "q"));
  Sim.cycle s [ ("d", bv 8 0x55); ("en", bv 1 1) ];
  Sim.eval s;
  check_int "released" 0x55 (Bitvec.to_int (Sim.output s "q"))

let test_sim_rom () =
  let m =
    {
      Netlist.mod_name = "rom";
      inputs = [ { Netlist.port_name = "i"; port_width = 2; port_signal = "i" } ];
      outputs = [ { port_name = "o"; port_width = 8; port_signal = "o" } ];
      nodes = [ Netlist.Rom { out = "o"; width = 8; table = [| bv 8 10; bv 8 20; bv 8 30; bv 8 40 |]; index = "i" } ];
    }
  in
  let s = Sim.create m in
  List.iter
    (fun (i, expect) ->
      Sim.set_input s "i" (bv 2 i);
      Sim.eval s;
      check_int "rom lookup" expect (Bitvec.to_int (Sim.output s "o")))
    [ (0, 10); (1, 20); (2, 30); (3, 40) ]

let test_comb_cycle_detected () =
  let m =
    {
      Netlist.mod_name = "loopy";
      inputs = [];
      outputs = [];
      nodes =
        [
          Netlist.Comb { out = "a"; width = 1; op = "comb.xor"; attrs = []; inputs = [ "b"; "b" ] };
          Netlist.Comb { out = "b"; width = 1; op = "comb.xor"; attrs = []; inputs = [ "a"; "a" ] };
        ];
    }
  in
  try
    ignore (Netlist.freeze m);
    Alcotest.fail "expected cycle error"
  with Netlist.Netlist_error _ -> ()

let test_undefined_signal_detected () =
  let m =
    {
      Netlist.mod_name = "dangling";
      inputs = [];
      outputs = [ { Netlist.port_name = "o"; port_width = 1; port_signal = "nowhere" } ];
      nodes = [];
    }
  in
  try
    ignore (Netlist.freeze m);
    Alcotest.fail "expected undefined signal"
  with Netlist.Netlist_error _ -> ()

let test_stats () =
  let st = Netlist.stats counter_module in
  check_int "regs" 1 st.Netlist.n_registers;
  check_int "reg bits" 4 st.Netlist.register_bits;
  check_int "combs" 2 st.Netlist.n_comb_nodes

let test_sv_emission () =
  let sv = Sv_emit.emit (Netlist.freeze counter_module) in
  check_bool "module header" true (contains sv "module counter(");
  check_bool "always_ff" true (contains sv "always_ff @(posedge clk)");
  check_bool "reset value" true (contains sv "if (rst)");
  check_bool "assign" true (contains sv "assign next = c + one;");
  check_bool "endmodule" true (contains sv "endmodule")

let test_sv_generated_isax () =
  (* SV emission of a real generated module resembles Figure 5d *)
  let tu = Coredsl.compile_rv32i () in
  let core = Scaiev.Datasheet.vexriscv in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let f = Longnail.Flow.compile_functionality core tu (`Instr addi) in
  let sv = f.Longnail.Flow.cf_sv in
  check_bool "module named ADDI" true (contains sv "module ADDI(");
  check_bool "instr word port" true (contains sv "instr_word_");
  check_bool "rs1 port" true (contains sv "rs1_");
  check_bool "result port" true (contains sv "res_");
  check_bool "no unmapped ops" true (not (contains sv "lil."))

let test_vcd_trace () =
  let vcd =
    Rtl.Vcd.trace counter_module ~cycles:8 ~drive:(fun _ -> [])
  in
  check_bool "header" true (contains vcd "$timescale 1ns $end");
  check_bool "module scope" true (contains vcd "$scope module counter $end");
  check_bool "declares count wire" true (contains vcd "$var wire 4");
  check_bool "has time marks" true (contains vcd "#0\n");
  check_bool "has vector changes" true (contains vcd "b0001 ");
  (* the counter value changes every cycle: at least 8 time marks *)
  let marks = List.length (String.split_on_char '#' vcd) - 1 in
  check_bool "8 time steps" true (marks >= 8)

(* ---- compiled engine ---- *)

let engines = [ ("interp", Engine.Interp); ("compiled", Engine.Compiled) ]

let test_compiled_counter () =
  let s = Engine.create ~kind:Engine.Compiled counter_module in
  for expect = 0 to 20 do
    Engine.eval s;
    check_int (Printf.sprintf "count at %d" expect) (expect mod 16)
      (Bitvec.to_int (Engine.output s "count"));
    Engine.clock s
  done

let test_compiled_stall_enable () =
  let m =
    {
      Netlist.mod_name = "stallable";
      inputs =
        [
          { Netlist.port_name = "d"; port_width = 8; port_signal = "d" };
          { port_name = "en"; port_width = 1; port_signal = "en" };
        ];
      outputs = [ { port_name = "q"; port_width = 8; port_signal = "q" } ];
      nodes = [ Netlist.Reg { out = "q"; width = 8; next = "d"; enable = Some "en"; init = None } ];
    }
  in
  let s = Engine.create ~kind:Engine.Compiled m in
  Engine.cycle s [ ("d", bv 8 0xAA); ("en", bv 1 1) ];
  Engine.eval s;
  check_int "loaded" 0xAA (Bitvec.to_int (Engine.output s "q"));
  Engine.cycle s [ ("d", bv 8 0x55); ("en", bv 1 0) ];
  Engine.eval s;
  check_int "stalled" 0xAA (Bitvec.to_int (Engine.output s "q"));
  Engine.cycle s [ ("d", bv 8 0x55); ("en", bv 1 1) ];
  Engine.eval s;
  check_int "released" 0x55 (Bitvec.to_int (Engine.output s "q"))

let test_compiled_rom () =
  let m =
    {
      Netlist.mod_name = "rom";
      inputs = [ { Netlist.port_name = "i"; port_width = 2; port_signal = "i" } ];
      outputs = [ { port_name = "o"; port_width = 8; port_signal = "o" } ];
      nodes = [ Netlist.Rom { out = "o"; width = 8; table = [| bv 8 10; bv 8 20; bv 8 30; bv 8 40 |]; index = "i" } ];
    }
  in
  let s = Engine.create ~kind:Engine.Compiled m in
  List.iter
    (fun (i, expect) ->
      Engine.set_input s "i" (bv 2 i);
      Engine.eval s;
      check_int "rom lookup" expect (Bitvec.to_int (Engine.output s "o")))
    [ (0, 10); (1, 20); (2, 30); (3, 40) ]

let check_traces_equal name a b =
  match Vcd.first_divergence a b with
  | None -> ()
  | Some (line, l, r) ->
      Alcotest.failf "%s: engine traces diverge at VCD line %d: interp %S, compiled %S" name
        line l r

let test_cross_engine_vcd_counter () =
  let trace kind = Vcd.trace ~engine:kind counter_module ~cycles:12 ~drive:(fun _ -> []) in
  check_traces_equal "counter" (trace Engine.Interp) (trace Engine.Compiled)

(* the generated ISAX modules exercise extract/concat/mux/rom decoding
   paths absent from the handwritten fixtures *)
(* RV32I ADDI plus every functionality of every bundled ISAX on VexRiscv *)
let test_cross_engine_vcd_isax () =
  let core = Scaiev.Datasheet.vexriscv in
  let same name (f : Longnail.Flow.compiled_functionality) =
    let m = f.Longnail.Flow.cf_hw.Longnail.Hwgen.netlist in
    let drive cycle =
      List.map
        (fun (p : Netlist.port) ->
          (p.port_name, Bitvec.of_int (u p.port_width) (Hashtbl.hash (p.port_name, cycle))))
        m.Netlist.inputs
    in
    let trace kind = Vcd.trace ~engine:kind m ~cycles:16 ~drive in
    check_traces_equal name (trace Engine.Interp) (trace Engine.Compiled)
  in
  let tu = Coredsl.compile_rv32i () in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  same "ADDI" (Longnail.Flow.compile_functionality core tu (`Instr addi));
  List.iter
    (fun (e : Isax.Registry.entry) ->
      let c = Longnail.Flow.compile core (Isax.Registry.compile e) in
      List.iter
        (fun (f : Longnail.Flow.compiled_functionality) ->
          same (e.name ^ "/" ^ f.Longnail.Flow.cf_name) f)
        c.Longnail.Flow.funcs)
    Isax.Registry.all

(* widths straddling the int-arena limit: 62 runs on the unboxed path,
   63/64/65 on the Bitvec fallback — both must match Comb_eval exactly *)
let test_wide_boundary_arith () =
  let module Bn = Bitvec.Bn in
  List.iter
    (fun w ->
      let ops =
        [ ("add", "comb.add", w); ("sub", "comb.sub", w); ("mul", "comb.mul", w);
          ("xor", "comb.xor", w); ("divu", "comb.divu", w); ("mods", "comb.mods", w);
          ("ult", "comb.icmp_ult", 1); ("slt", "comb.icmp_slt", 1) ]
      in
      let m =
        {
          Netlist.mod_name = "wide";
          inputs =
            [
              { Netlist.port_name = "a"; port_width = w; port_signal = "a" };
              { port_name = "b"; port_width = w; port_signal = "b" };
            ];
          outputs =
            List.map
              (fun (n, _, rw) -> { Netlist.port_name = "o_" ^ n; port_width = rw; port_signal = "o_" ^ n })
              ops;
          nodes =
            List.map
              (fun (n, op, rw) ->
                Netlist.Comb { out = "o_" ^ n; width = rw; op; attrs = []; inputs = [ "a"; "b" ] })
              ops;
        }
      in
      (* all-ones and the sign bit: the values the boundary gets wrong *)
      let av = Bitvec.of_bn (u w) (Bn.sub (Bn.pow2 w) Bn.one) in
      let bv_ = Bitvec.of_bn (u w) (Bn.pow2 (w - 1)) in
      List.iter
        (fun (kname, kind) ->
          let s = Engine.create ~kind m in
          Engine.set_input s "a" av;
          Engine.set_input s "b" bv_;
          Engine.eval s;
          List.iter
            (fun (n, op, rw) ->
              let direct =
                Ir.Comb_eval.eval ~name:op ~attrs:[] ~ops:[ av; bv_ ] ~result_width:rw
              in
              if not (Bitvec.equal_value (Engine.output s ("o_" ^ n)) direct) then
                Alcotest.failf "width %d, %s on %s engine disagrees with comb_eval" w op kname)
            ops)
        engines)
    [ 62; 63; 64; 65 ]

(* a wide accumulator register: the staged-commit path of the compiled
   engine must wrap at 2^65 exactly like the interpreter *)
let test_wide_register_accumulate () =
  let module Bn = Bitvec.Bn in
  let w = 65 in
  let m =
    {
      Netlist.mod_name = "acc65";
      inputs = [ { Netlist.port_name = "a"; port_width = w; port_signal = "a" } ];
      outputs = [ { port_name = "acc"; port_width = w; port_signal = "acc" } ];
      nodes =
        [
          Netlist.Comb { out = "next"; width = w; op = "comb.add"; attrs = []; inputs = [ "acc"; "a" ] };
          Netlist.Reg { out = "acc"; width = w; next = "next"; enable = None; init = Some (Bitvec.zero (u w)) };
        ];
    }
  in
  let step = Bitvec.of_bn (u w) (Bn.pow2 64) in
  List.iter
    (fun (kname, kind) ->
      let s = Engine.create ~kind m in
      Engine.set_input s "a" step;
      for _ = 1 to 3 do
        Engine.eval s;
        Engine.clock s
      done;
      Engine.eval s;
      (* 3 * 2^64 wraps to 2^64 at 65 bits *)
      let got = Bitvec.to_bn (Engine.output s "acc") in
      if Bn.to_string got <> Bn.to_string (Bn.pow2 64) then
        Alcotest.failf "%s engine: 65-bit accumulator holds %s, want 2^64" kname
          (Bn.to_string got))
    engines

let test_engine_kind_parse () =
  (match Backend.of_string "v2002" with
  | Error m -> check_bool "did-you-mean v2001" true (contains m "did you mean 'v2001'")
  | Ok _ -> Alcotest.fail "expected error");
  check_bool "backend sv" true (Backend.of_string "sv" = Ok Backend.Sv);
  check_bool "backend v2001" true (Backend.of_string "v2001" = Ok Backend.V2001);
  check_bool "exts" true (Backend.file_ext Backend.Sv = "sv" && Backend.file_ext Backend.V2001 = "v")

(* ---- Verilog-2001 backend ---- *)

let test_v2001_emission () =
  let f = Netlist.freeze counter_module in
  let v = V2001_emit.emit f in
  check_bool "module header" true (contains v "module counter(");
  check_bool "always @(posedge clk)" true (contains v "always @(posedge clk)");
  check_bool "reset value" true (contains v "if (rst)");
  check_bool "assign" true (contains v "assign next = c + one;");
  check_bool "no always_ff" true (not (contains v "always_ff"));
  check_bool "no always_comb" true (not (contains v "always_comb"));
  check_bool "no logic decls" true (not (contains v "logic"));
  check_bool "own output lints clean" true (V2001_emit.lint v = []);
  check_bool "backend dispatch" true (Backend.emit Backend.V2001 f = v);
  check_bool "sv backend unchanged" true (Backend.emit Backend.Sv f = Sv_emit.emit f)

let test_v2001_lint_catches_sv () =
  match V2001_emit.lint "module m;\nalways_comb begin\nend\nendmodule\n" with
  | [ msg ] ->
      check_bool "names keyword" true (contains msg "always_comb");
      check_bool "names line" true (contains msg "line 2")
  | other -> Alcotest.failf "expected one lint hit, got %d" (List.length other)

let test_v2001_generated_isax () =
  let tu = Coredsl.compile_rv32i () in
  let addi = Option.get (Coredsl.Tast.find_tinstr tu "ADDI") in
  let f = Longnail.Flow.compile_functionality Scaiev.Datasheet.vexriscv tu (`Instr addi) in
  let v = Backend.emit Backend.V2001 (Netlist.freeze f.Longnail.Flow.cf_hw.Longnail.Hwgen.netlist) in
  check_bool "module named ADDI" true (contains v "module ADDI(");
  check_bool "lints clean" true (V2001_emit.lint v = [])

(* property: the compiled engine and the interpreter produce byte-identical
   VCD traces on random width-consistent netlists (chains of binary ops and
   muxes over two w-bit inputs, a 1-bit condition, and a final register) *)
let prop_engines_agree =
  let binops =
    [| "comb.add"; "comb.sub"; "comb.mul"; "comb.and"; "comb.or"; "comb.xor";
       "comb.divu"; "comb.modu"; "comb.divs"; "comb.mods";
       "comb.shl"; "comb.shru"; "comb.shrs";
       "comb.icmp_eq"; "comb.icmp_ult"; "comb.icmp_slt"; "comb.mux" |]
  in
  QCheck.Test.make ~name:"compiled engine matches interpreter on random netlists" ~count:80
    (QCheck.triple
       (QCheck.oneofl [ 1; 8; 31; 32; 62; 63; 64; 65 ])
       (QCheck.list_of_size (QCheck.Gen.int_range 1 8)
          (QCheck.triple (QCheck.int_bound 1000) (QCheck.int_bound 1000) (QCheck.int_bound 1000)))
       (QCheck.int_bound 1_000_000))
    (fun (w, picks, seed) ->
      let wide = ref [ "a"; "b" ] and bits = ref [ "c" ] in
      let nodes =
        List.mapi
          (fun i (opi, x, y) ->
            let op = binops.(opi mod Array.length binops) in
            let pick pool n = List.nth pool (n mod List.length pool) in
            let out = Printf.sprintf "n%d" i in
            let is_cmp = String.length op > 9 && String.sub op 0 9 = "comb.icmp" in
            let node =
              if op = "comb.mux" then
                Netlist.Comb
                  { out; width = w; op; attrs = [];
                    inputs = [ pick !bits opi; pick !wide x; pick !wide y ] }
              else
                Netlist.Comb
                  { out; width = (if is_cmp then 1 else w); op; attrs = [];
                    inputs = [ pick !wide x; pick !wide y ] }
            in
            if is_cmp then bits := out :: !bits else wide := out :: !wide;
            node)
          picks
      in
      let last = List.hd !wide in
      let m =
        {
          Netlist.mod_name = "rand";
          inputs =
            [
              { Netlist.port_name = "a"; port_width = w; port_signal = "a" };
              { port_name = "b"; port_width = w; port_signal = "b" };
              { port_name = "c"; port_width = 1; port_signal = "c" };
            ];
          outputs = [ { port_name = "q"; port_width = w; port_signal = "q" } ];
          nodes =
            nodes
            @ [ Netlist.Reg { out = "q"; width = w; next = last; enable = Some "c"; init = Some (Bitvec.zero (u w)) } ];
        }
      in
      ignore (Netlist.freeze m);
      let drive cycle =
        [
          ("a", Bitvec.of_int (u w) (Hashtbl.hash (seed, cycle, "a")));
          ("b", Bitvec.of_int (u w) (Hashtbl.hash (seed, cycle, "b")));
          ("c", Bitvec.of_int (u 1) (Hashtbl.hash (seed, cycle, "c")));
        ]
      in
      let trace kind = Vcd.trace ~engine:kind m ~cycles:6 ~drive in
      Vcd.traces_equal (trace Engine.Interp) (trace Engine.Compiled))

(* A handwritten module for the reset property: registers with and
   without init values and enables, a ROM, and a datapath wider than the
   compiled engine's native-int limit. *)
let reset_module =
  let module Bn = Bitvec.Bn in
  let w = 70 in
  {
    Netlist.mod_name = "resettable";
    inputs =
      [
        { Netlist.port_name = "a"; port_width = 8; port_signal = "a" };
        { port_name = "b"; port_width = w; port_signal = "b" };
        { port_name = "en"; port_width = 1; port_signal = "en" };
      ];
    outputs =
      [
        { port_name = "q8"; port_width = 8; port_signal = "r8" };
        { port_name = "qw"; port_width = w; port_signal = "rw" };
      ];
    nodes =
      [
        const "k8" 8 0x5A;
        Netlist.Comb
          {
            out = "kw";
            width = w;
            op = "hw.constant";
            attrs = [ ("value", Ir.Mir.A_bv (Bitvec.of_bn (u w) (Bn.add (Bn.pow2 66) (Bn.of_int 7)))) ];
            inputs = [];
          };
        Netlist.Comb { out = "s8"; width = 8; op = "comb.add"; attrs = []; inputs = [ "a"; "r8" ] };
        Netlist.Comb { out = "x8"; width = 8; op = "comb.xor"; attrs = []; inputs = [ "s8"; "k8" ] };
        Netlist.Comb { out = "sw"; width = w; op = "comb.add"; attrs = []; inputs = [ "rw"; "b" ] };
        Netlist.Comb { out = "xw"; width = w; op = "comb.xor"; attrs = []; inputs = [ "sw"; "kw" ] };
        Netlist.Rom { out = "o"; width = 8; table = [| bv 8 10; bv 8 20; bv 8 30; bv 8 40 |]; index = "c" };
        Netlist.Reg { out = "r8"; width = 8; next = "x8"; enable = Some "en"; init = Some (bv 8 0x33) };
        Netlist.Reg
          {
            out = "rw";
            width = w;
            next = "xw";
            enable = None;
            init = Some (Bitvec.of_bn (u w) (Bn.add (Bn.pow2 65) (Bn.of_int 3)));
          };
        Netlist.Reg { out = "c"; width = 2; next = "cn"; enable = None; init = None };
        Netlist.Comb { out = "cn"; width = 2; op = "comb.add"; attrs = []; inputs = [ "c"; "one2" ] };
        const "one2" 2 1;
      ];
  }

(* property: after random cycles, [Engine.reset] leaves every signal
   exactly as a freshly created engine of the same kind has it, and the
   reset engine then computes what the fresh one computes *)
let prop_engine_reset =
  QCheck.Test.make ~name:"engine reset equals a fresh engine" ~count:100
    (QCheck.pair (QCheck.int_bound 12) (QCheck.int_bound 1_000_000))
    (fun (cycles, seed) ->
      let m = reset_module in
      ignore (Netlist.freeze m);
      let signals =
        List.map (fun (p : Netlist.port) -> p.port_signal) m.inputs @ List.map Netlist.node_out m.nodes
      in
      let drive cycle =
        [
          ("a", bv 8 (Hashtbl.hash (seed, cycle, "a")));
          ("b", Bitvec.of_int (u 70) (Hashtbl.hash (seed, cycle, "b")));
          ("en", bv 1 (Hashtbl.hash (seed, cycle, "en")));
        ]
      in
      let show = function Some v -> Bitvec.to_hex_string v | None -> "none" in
      let same kname step used fresh =
        List.iter
          (fun name ->
            let a = Engine.signal_opt used name and b = Engine.signal_opt fresh name in
            if show a <> show b then
              QCheck.Test.fail_reportf "%s engine, %s: signal %s is %s, fresh engine has %s" kname
                step name (show a) (show b))
          signals
      in
      List.for_all
        (fun (kname, kind) ->
          let used = Engine.create ~kind m in
          for c = 0 to cycles do
            Engine.cycle used (drive c)
          done;
          Engine.eval used;
          Engine.reset used;
          let fresh = Engine.create ~kind m in
          same kname "after reset" used fresh;
          Engine.cycle used (drive 0);
          Engine.cycle fresh (drive 0);
          Engine.eval used;
          Engine.eval fresh;
          same kname "one cycle later" used fresh;
          true)
        engines)

(* property: the simulator agrees with direct Comb_eval on random two-input
   expressions *)
let prop_sim_matches_comb_eval =
  QCheck.Test.make ~name:"sim matches comb_eval" ~count:200
    (QCheck.triple (QCheck.int_bound 0xFFFF) (QCheck.int_bound 0xFFFF)
       (QCheck.oneofl [ "comb.add"; "comb.sub"; "comb.mul"; "comb.and"; "comb.or"; "comb.xor"; "comb.icmp_ult" ]))
    (fun (a, b, op) ->
      let w = 16 in
      let rw = if op = "comb.icmp_ult" then 1 else w in
      let m =
        {
          Netlist.mod_name = "t";
          inputs =
            [
              { Netlist.port_name = "a"; port_width = w; port_signal = "a" };
              { port_name = "b"; port_width = w; port_signal = "b" };
            ];
          outputs = [ { port_name = "o"; port_width = rw; port_signal = "o" } ];
          nodes = [ Netlist.Comb { out = "o"; width = rw; op; attrs = []; inputs = [ "a"; "b" ] } ];
        }
      in
      let s = Sim.create m in
      Sim.set_input s "a" (bv w a);
      Sim.set_input s "b" (bv w b);
      Sim.eval s;
      let direct = Ir.Comb_eval.eval ~name:op ~attrs:[] ~ops:[ bv w a; bv w b ] ~result_width:rw in
      Bitvec.equal_value (Sim.output s "o") direct)

(* property: the compiled engine agrees with the reference semantics
   (Comb_eval) on every comb op, one node at a time, with operand and
   result widths mixed across 1..65 bits so both the native-int kernel
   and the wide fallback run; operands are drawn from the corner
   patterns (zero, one, all ones, sign bit) and random ones *)
let comb_ops =
  [ "hw.constant"; "comb.add"; "comb.sub"; "comb.mul"; "comb.divu"; "comb.modu"; "comb.divs";
    "comb.mods"; "comb.and"; "comb.or"; "comb.xor"; "comb.mux"; "comb.extract"; "comb.concat";
    "comb.replicate"; "comb.shl"; "comb.shru"; "comb.shrs"; "comb.icmp_eq"; "comb.icmp_ne";
    "comb.icmp_ult"; "comb.icmp_ule"; "comb.icmp_ugt"; "comb.icmp_uge"; "comb.icmp_slt";
    "comb.icmp_sle"; "comb.icmp_sgt"; "comb.icmp_sge" ]

let prop_compiled_matches_comb_eval =
  let module Bn = Bitvec.Bn in
  QCheck.Test.make ~name:"compiled engine matches Comb_eval on every comb op" ~count:2000
    (QCheck.pair (QCheck.oneofl comb_ops) (QCheck.int_bound 1_000_000))
    (fun (op, seed) ->
      let st = Random.State.make [| seed |] in
      let width () = 1 + Random.State.int st 65 in
      let value w =
        let ones = Bn.sub (Bn.pow2 w) Bn.one in
        let random () =
          List.init ((w / 24) + 1) (fun _ -> Random.State.bits st)
          |> List.fold_left (fun acc x -> Bn.add (Bn.shift_left acc 24) (Bn.of_int (x land 0xFFFFFF))) Bn.zero
        in
        let x =
          match Random.State.int st 6 with
          | 0 -> Bn.zero
          | 1 -> Bn.one
          | 2 -> ones
          | 3 -> Bn.pow2 (w - 1)
          | _ -> random ()
        in
        Bitvec.of_bn (u w) (Bn.mod_pow2 x w)
      in
      let w, in_widths, attrs =
        match op with
        | "hw.constant" ->
            let w = width () in
            (w, [], [ ("value", Ir.Mir.A_bv (value (width ()))) ])
        | "comb.mux" -> (width (), [ width (); width (); width () ], [])
        | "comb.extract" ->
            let wa = width () in
            let lo = Random.State.int st wa in
            (1 + Random.State.int st (wa - lo), [ wa ], [ ("lowBit", Ir.Mir.A_int lo) ])
        | "comb.concat" ->
            let ws = List.init (1 + Random.State.int st 4) (fun _ -> width ()) in
            (List.fold_left ( + ) 0 ws, ws, [])
        | "comb.replicate" ->
            let wa = width () in
            (wa * (1 + Random.State.int st 4), [ wa ], [])
        | op when String.length op > 9 && String.sub op 0 9 = "comb.icmp" ->
            (1, [ width (); width () ], [])
        | _ -> (width (), [ width (); width () ], [])
      in
      let ops = List.map value in_widths in
      let names = List.mapi (fun i _ -> Printf.sprintf "i%d" i) ops in
      let m =
        {
          Netlist.mod_name = "one_op";
          inputs =
            List.map2
              (fun n w -> { Netlist.port_name = n; port_width = w; port_signal = n })
              names in_widths;
          outputs = [ { port_name = "o"; port_width = w; port_signal = "o" } ];
          nodes = [ Netlist.Comb { out = "o"; width = w; op; attrs; inputs = names } ];
        }
      in
      let c = Compiled.create m in
      List.iter2 (Compiled.set_input c) names ops;
      Compiled.eval c;
      let got = Compiled.signal c "o" in
      let want = Ir.Comb_eval.eval ~name:op ~attrs ~ops ~result_width:w in
      Bn.equal (Bitvec.pattern got) (Bitvec.pattern want)
      || QCheck.Test.fail_reportf "%s [%s] -> %d bits: compiled %s, Comb_eval %s" op
           (String.concat "; " (List.map Bitvec.to_hex_string ops))
           w (Bitvec.to_hex_string got) (Bitvec.to_hex_string want))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sim_matches_comb_eval;
      prop_engines_agree;
      prop_compiled_matches_comb_eval;
      prop_engine_reset;
    ]

let () =
  Alcotest.run "rtl"
    [
      ( "sim",
        [
          Alcotest.test_case "counter" `Quick test_sim_counter;
          Alcotest.test_case "stall enable" `Quick test_sim_stall_enable;
          Alcotest.test_case "rom" `Quick test_sim_rom;
          Alcotest.test_case "vcd trace" `Quick test_vcd_trace;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "comb cycle detected" `Quick test_comb_cycle_detected;
          Alcotest.test_case "undefined signal" `Quick test_undefined_signal_detected;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "engine",
        [
          Alcotest.test_case "compiled counter" `Quick test_compiled_counter;
          Alcotest.test_case "compiled stall enable" `Quick test_compiled_stall_enable;
          Alcotest.test_case "compiled rom" `Quick test_compiled_rom;
          Alcotest.test_case "cross-engine vcd (counter)" `Quick test_cross_engine_vcd_counter;
          Alcotest.test_case "cross-engine vcd (generated ISAX)" `Quick
            test_cross_engine_vcd_isax;
          Alcotest.test_case "62/63/64/65-bit arithmetic" `Quick test_wide_boundary_arith;
          Alcotest.test_case "65-bit register accumulate" `Quick test_wide_register_accumulate;
          Alcotest.test_case "engine/backend name parsing" `Quick test_engine_kind_parse;
        ] );
      ( "sv",
        [
          Alcotest.test_case "counter emission" `Quick test_sv_emission;
          Alcotest.test_case "generated ISAX module" `Quick test_sv_generated_isax;
        ] );
      ( "v2001",
        [
          Alcotest.test_case "counter emission" `Quick test_v2001_emission;
          Alcotest.test_case "lint catches SV keywords" `Quick test_v2001_lint_catches_sv;
          Alcotest.test_case "generated ISAX module" `Quick test_v2001_generated_isax;
        ] );
      ("properties", qcheck_cases);
    ]
