(** Register-transfer-level netlist: the target of Longnail's hardware
   generation, standing in for CIRCT's hw/seq/sv dialects (Section 4.1d).

   A module is a set of named signals: input ports, combinational nodes
   (with {!Ir.Comb_eval} semantics), ROM lookups (internalized constant
   registers), and clocked registers (the stallable pipeline registers
   Longnail inserts between stages). Output ports alias internal signals. *)

type reg_node = {
  out : string;
  width : int;
  next : string;
  enable : string option;
  init : Bitvec.t option;
}
type node =
    Comb of { out : string; width : int; op : string;
      attrs : (string * Ir.Mir.attr) list; inputs : string list;
    }
  | Rom of { out : string; width : int; table : Bitvec.t array;
      index : string;
    }
  | Reg of reg_node
type port = { port_name : string; port_width : int; port_signal : string; }
type t = {
  mod_name : string;
  inputs : port list;
  outputs : port list;
  nodes : node list;
}
val node_out : node -> string
val node_width : node -> int
exception Netlist_error of string
val nl_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** {1 The frozen form}

    [freeze] checks a module in one pass and indexes it by int ids: input
    port [i] is id [i], node [k] is id [f_n_inputs + k]. The back end (the
    HDL emitters, both simulation engines, static timing) consumes this
    form instead of re-sorting the node list. *)

(** A Comb or Rom node with its output id and the ids it reads (a ROM
    reads its index). *)
type fnode = { fn_node : node; fn_out : int; fn_ins : int array }

(** A register with its output, next and enable resolved to ids. *)
type freg = { fr_reg : reg_node; fr_out : int; fr_next : int; fr_enable : int option }

type frozen = {
  f_src : t;  (** the module that was frozen *)
  f_names : string array;  (** id -> signal name *)
  f_widths : int array;  (** id -> width *)
  f_n_inputs : int;
  f_ids : (string, int) Hashtbl.t;  (** signal name -> id *)
  f_outputs : int array;  (** per output port, the id it exposes *)
  f_comb : fnode array;
      (** the Comb and Rom nodes in dependency order: the post-order of a
          depth-first walk over combinational reads, rooted at each node in
          node order (then at a register's next and enable), then at the
          output ports *)
  f_regs : freg array;  (** node order *)
}

(** A structural violation; a module freezes iff it has none. *)
type problem =
  | Duplicate_input of string  (** two input ports define the signal *)
  | Drives_input of string  (** a node drives an input port's signal *)
  | Multiple_drivers of string  (** a second node drives the signal *)
  | Undefined of { signal : string; via : string }
      (** [via] (a node's output or an output port's name) reads a signal
          nothing defines *)
  | Comb_cycle of string list
      (** the signals of a combinational loop; each reads the next, the
          last reads the first *)

(** Freeze [m]: one driver per signal, no input defined twice or driven by
    a node, every reference resolved, no combinational cycle (registers
    break paths). Raises [Netlist_error] describing the first problem. *)
val freeze : t -> frozen

(** Every problem, in order: duplicate definitions (inputs, then nodes),
    undefined references (node order, then output ports, each signal
    once), then the first combinational cycle found. Empty iff [freeze]
    succeeds. *)
val problems : t -> problem list

type stats = {
  n_comb_nodes : int;
  n_registers : int;
  register_bits : int;
  rom_bits : int;
  comb_ops_by_kind : (string * int) list;
}
val stats : t -> stats
