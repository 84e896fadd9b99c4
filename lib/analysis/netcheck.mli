(** Structural checks on an RTL netlist before HDL emission: the flow's
    single netlist gate. {!freeze} freezes the netlist with
    [Rtl.Netlist.freeze]; only when that fails does it rerun the analysis
    as {!check} to raise a structured diagnostic with originating CoreDSL
    provenance when available:
    - E0520: a signal driven more than once (duplicate node outputs, a
      node driving an input port's signal, or two input ports defining
      one signal);
    - E0521: a combinational cycle, reported with the full signal path;
    - E0522: a referenced signal no node or input port defines.

    Provenance maps a netlist signal name back to a source span; use
    {!signal_provenance} over the LIL graph the hardware was generated
    from (hwgen names signals ["v<id>"] / ["v<id>_s<stage>"] after the
    defining SSA value). *)

exception Netcheck_error of Diag.t

val signal_provenance : Ir.Mir.graph -> string -> Diag.span option
(** Resolve a hwgen signal name to the source span of the LIL op defining
    the underlying SSA value, when the op recorded one. *)

val check :
  ?what:string ->
  ?provenance:(string -> Diag.span option) ->
  Rtl.Netlist.t ->
  Diag.t list
(** All structural violations, in the order of [Rtl.Netlist.problems]
    (duplicate definitions, then undefined signals, then the first cycle);
    empty iff the netlist freezes. [what] names the functionality for the
    message (defaults to the module name). *)

val freeze :
  ?what:string ->
  ?provenance:(string -> Diag.span option) ->
  Rtl.Netlist.t ->
  Rtl.Netlist.frozen
(** The frozen netlist; raises {!Netcheck_error} with the first violation
    of {!check} when it does not freeze. [provenance] is called only on
    that path. *)
