(* SystemVerilog emission from the RTL netlist (the paper uses CIRCT's
   export pipeline; Figure 5d shows the style we match).

   All naming, literal formatting and module layout live in {!Emit_core};
   this backend only selects the SystemVerilog dialect keywords, so its
   output is byte-identical to what the pre-refactor monolithic emitter
   produced (the pinned goldens in test_cache.ml hold it to that). *)

let emit (f : Netlist.frozen) : string = Emit_core.emit ~dialect:Emit_core.sv f
