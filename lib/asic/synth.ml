(* "Synthesis" of an RTL netlist: technology mapping into the synthetic
   cell library (area accounting) and static timing analysis (longest
   combinational path between sequential elements / ports). *)

open Rtl.Netlist

type report = {
  area_um2 : float;  (* combinational + sequential + ROM area *)
  comb_area_um2 : float;
  seq_area_um2 : float;
  rom_area_um2 : float;
  critical_path_ns : float;  (* longest register-to-register/port path *)
  n_cells : int;
}

let node_area = function
  | Comb c -> Library.comb_area ~op:c.op ~width:c.width ~n_inputs:(List.length c.inputs)
  | Rom r -> Library.rom_area_per_bit *. float_of_int (Array.length r.table * r.width)
  | Reg r -> Library.flop_area_per_bit *. float_of_int r.width

(* longest path: arrival time at each signal id, walking the frozen
   combinational order; registers and inputs launch at [launch_delay] *)
let critical_path (m : Rtl.Netlist.t) =
  let f = freeze m in
  let arrival = Array.make (Array.length f.f_names) 0.0 in
  Array.fill arrival 0 f.f_n_inputs Library.launch_delay;
  Array.iter (fun r -> arrival.(r.fr_out) <- Library.launch_delay) f.f_regs;
  let worst = ref 0.0 in
  Array.iter
    (fun fn ->
      let delay =
        match fn.fn_node with
        | Comb c -> Library.comb_delay ~op:c.op ~width:c.width
        | Rom r -> Library.comb_delay ~op:"lil.rom" ~width:r.width
        | Reg _ -> 0.0
      in
      let arr = Array.fold_left (fun acc i -> max acc arrival.(i)) 0.0 fn.fn_ins +. delay in
      arrival.(fn.fn_out) <- arr;
      worst := max !worst arr)
    f.f_comb;
  (* paths terminate at register data/enable inputs and output ports *)
  let endpoint i = worst := max !worst (arrival.(i) +. Library.setup_time) in
  Array.iter (fun r -> endpoint r.fr_next; Option.iter endpoint r.fr_enable) f.f_regs;
  Array.iter endpoint f.f_outputs;
  !worst

let synthesize (m : Rtl.Netlist.t) : report =
  let comb = ref 0.0 and seq = ref 0.0 and rom = ref 0.0 and cells = ref 0 in
  List.iter
    (fun n ->
      incr cells;
      let a = node_area n in
      match n with
      | Comb _ -> comb := !comb +. a
      | Rom _ -> rom := !rom +. a
      | Reg _ -> seq := !seq +. a)
    m.nodes;
  {
    area_um2 = !comb +. !seq +. !rom;
    comb_area_um2 = !comb;
    seq_area_um2 = !seq;
    rom_area_um2 = !rom;
    critical_path_ns = critical_path m;
    n_cells = !cells;
  }
