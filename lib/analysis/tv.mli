(** Translation validation: prove (or heavily test) that an optimized MIR
    graph is observationally equivalent to the original.

    The contract (docs/NARROWING.md):

    - {e free inputs} are the results of non-[comb] ops — interface
      reads, instruction fields. A validated pass must leave those ops
      untouched (same SSA ids and types), which every {!Narrow} pass
      does by construction; a pass that rewrites one fails validation
      outright.
    - {e observables} are the side-effecting ops
      ({!Ir.Passes.has_side_effect}) in op order: opname, attributes,
      and the concrete patterns of their operands.

    Both graphs are evaluated on the compiled RTL engine
    ({!Rtl.Compiled}): each is compiled once into a netlist of its comb
    ops, and every vector sets its ports and settles the logic. The
    engine is tested op for op against {!Ir.Comb_eval}, the reference
    semantics of [comb].

    When the summed free-input width is at most {!exhaustive_budget}
    bits the whole input space is enumerated (a proof); otherwise corner
    vectors plus a fixed-seed pseudo-random sample are driven, so runs
    are deterministic. Any mismatch raises {!Diag.Fatal} with code
    [E0530] naming the pass and a counterexample assignment; so does a
    graph that does not form a netlist (an operand with no definition). *)

type verdict = {
  tv_pass : string;
  tv_vectors : int;  (** input vectors driven *)
  tv_exhaustive : bool;  (** whole input space enumerated *)
}

val exhaustive_budget : int
(** Total free-input bits up to which validation is exhaustive. *)

val free_inputs : Ir.Mir.graph -> Ir.Mir.value list
(** The results of non-comb ops, in op order. *)

val validate :
  pass_name:string -> original:Ir.Mir.graph -> optimized:Ir.Mir.graph -> verdict
(** Raises {!Diag.Fatal} (E0530) on any counterexample. *)
