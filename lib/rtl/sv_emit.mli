(** SystemVerilog emission from the RTL netlist (the paper uses CIRCT's
   export pipeline; Figure 5d shows the style we match). *)

val emit : Netlist.frozen -> string
