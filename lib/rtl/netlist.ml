(* Register-transfer-level netlist: the target of Longnail's hardware
   generation, standing in for CIRCT's hw/seq/sv dialects (Section 4.1d).

   A module is a set of named signals: input ports, combinational nodes
   (with {!Ir.Comb_eval} semantics), ROM lookups (internalized constant
   registers), and clocked registers (the stallable pipeline registers
   Longnail inserts between stages). Output ports alias internal signals. *)

type reg_node = {
  out : string;
  width : int;
  next : string;  (* sampled input *)
  enable : string option;  (* stall gating: update only when enable=1 *)
  init : Bitvec.t option;
}

type node =
  | Comb of {
      out : string;
      width : int;
      op : string;  (* a comb.* / hw.constant op name *)
      attrs : (string * Ir.Mir.attr) list;
      inputs : string list;
    }
  | Rom of { out : string; width : int; table : Bitvec.t array; index : string }
  | Reg of reg_node

type port = { port_name : string; port_width : int; port_signal : string }

type t = {
  mod_name : string;
  inputs : port list;  (* port_signal = signal it defines *)
  outputs : port list;  (* port_signal = signal it exposes *)
  nodes : node list;
}

let node_out = function Comb c -> c.out | Rom r -> r.out | Reg r -> r.out

let node_width = function Comb c -> c.width | Rom r -> r.width | Reg r -> r.width

exception Netlist_error of string

let nl_error fmt = Format.kasprintf (fun m -> raise (Netlist_error m)) fmt

(* signals read combinationally by a node *)
let comb_deps = function
  | Comb c -> c.inputs
  | Rom r -> [ r.index ]
  | Reg _ -> []  (* registers break combinational cycles *)

(* Topological order of the combinational nodes; registers come first (their
   outputs are state), then combs in dependency order. Checks the module on
   the way: unique signal names, resolved references, no comb loops. *)
let topo_nodes (m : t) =
  let by_out = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let o = node_out n in
      if Hashtbl.mem by_out o then nl_error "signal %s defined twice" o;
      Hashtbl.replace by_out o n)
    m.nodes;
  let inputs = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if Hashtbl.mem by_out p.port_signal || Hashtbl.mem inputs p.port_signal then
        nl_error "input %s shadows a node" p.port_signal;
      Hashtbl.replace inputs p.port_signal ())
    m.inputs;
  let visited = Hashtbl.create 64 and visiting = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit sig_name =
    if Hashtbl.mem visited sig_name || Hashtbl.mem inputs sig_name then ()
    else if Hashtbl.mem visiting sig_name then nl_error "combinational cycle through %s" sig_name
    else begin
      match Hashtbl.find_opt by_out sig_name with
      | None -> nl_error "undefined signal %s in module %s" sig_name m.mod_name
      | Some n ->
          Hashtbl.replace visiting sig_name ();
          List.iter visit (comb_deps n);
          Hashtbl.remove visiting sig_name;
          Hashtbl.replace visited sig_name ();
          (match n with Reg _ -> () | _ -> order := n :: !order)
    end
  in
  (* make sure register next/enable signals are also evaluated *)
  List.iter
    (fun n ->
      visit (node_out n);
      match n with
      | Reg r ->
          visit r.next;
          Option.iter visit r.enable
      | _ -> ())
    m.nodes;
  List.iter (fun p -> visit p.port_signal) m.outputs;
  List.rev !order

let registers m : reg_node list = List.filter_map (function Reg r -> Some r | _ -> None) m.nodes

(* quick sanity check: unique signal names, ports resolved *)
let validate m = ignore (topo_nodes m)

(* ---- structural statistics (used by the ASIC flow model) ---- *)

type stats = {
  n_comb_nodes : int;
  n_registers : int;
  register_bits : int;
  rom_bits : int;
  comb_ops_by_kind : (string * int) list;
}

let stats m =
  let kinds = Hashtbl.create 16 in
  let combs = ref 0 and regs = ref 0 and reg_bits = ref 0 and rom_bits = ref 0 in
  List.iter
    (function
      | Comb c ->
          incr combs;
          Hashtbl.replace kinds c.op (1 + Option.value ~default:0 (Hashtbl.find_opt kinds c.op))
      | Rom r -> rom_bits := !rom_bits + (Array.length r.table * r.width)
      | Reg r ->
          incr regs;
          reg_bits := !reg_bits + r.width)
    m.nodes;
  {
    n_comb_nodes = !combs;
    n_registers = !regs;
    register_bits = !reg_bits;
    rom_bits = !rom_bits;
    comb_ops_by_kind = Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds [];
  }
