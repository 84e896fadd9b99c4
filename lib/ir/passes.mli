(** Optimization passes over lil graphs: constant folding (canonicalization),
   common-subexpression elimination, and dead-code elimination. These mirror
   MLIR's canonicalization infrastructure the paper relies on ("constant
   registers are internalized into the ISAX module and subject to MLIR's
   usual canonicalization patterns"). *)

val has_side_effect : Mir.op -> bool
val is_interface_read : Mir.op -> bool

(** Each pass returns the rewritten graph and whether it rewrote
    anything. *)

val fold_constants : Mir.graph -> Mir.graph * bool
val cse : Mir.graph -> Mir.graph * bool

val dce : Mir.graph -> Mir.graph * bool
(** One reverse sweep over the SSA-ordered body. *)

val dce_interface_reads : Mir.graph -> Mir.graph * bool
val lower_constant_shifts : Mir.graph -> Mir.graph * bool

(** {2 Instrumented pass manager} *)

type pass = { pass_name : string; pass_fn : Mir.graph -> Mir.graph * bool }

val all_passes : pass list
(** Every registered optimization pass, in canonical order. *)

val find_pass : string -> pass
(** Look a pass up by name; raises [Not_found] on unknown names. *)

val op_count : Mir.graph -> int
(** Number of operations, including region bodies. *)

val edge_count : Mir.graph -> int
(** Number of def-use edges (operand references). *)

(** Before/after IR sizes of one pass execution. *)
type pass_stat = {
  ps_pass : string;
  ps_ops_before : int;
  ps_ops_after : int;
  ps_edges_before : int;
  ps_edges_after : int;
  ps_changed : bool;  (** the pass rewrote anything *)
}

val run_pass : ?obs:Obs.scope -> pass -> Mir.graph -> Mir.graph * pass_stat
(** Run one pass; with [obs] set, records a ["pass:NAME"] span with
    before/after op- and edge-counts. *)

val optimize_with_stats :
  ?obs:Obs.scope ->
  ?verify_each:(pass_name:string -> Mir.graph -> unit) ->
  ?fold_rounds:int ->
  Mir.graph ->
  Mir.graph * pass_stat list
(** The standard pipeline (fold + shift lowering, fold/cse to fixpoint
    bounded by [fold_rounds], then DCE), returning the per-pass trace in
    execution order. With [obs] set, also records ["pass:*"] spans plus a
    ["fold_rounds"] rounds-to-fixpoint metric on the enclosing span. With
    [verify_each] set, the callback runs on the result of every pass
    execution (the [--verify-each] sanitizer hook) and may raise to abort
    the pipeline, naming the offending pass. *)

val optimize :
  ?obs:Obs.scope ->
  ?verify_each:(pass_name:string -> Mir.graph -> unit) ->
  ?fold_rounds:int ->
  Mir.graph ->
  Mir.graph
