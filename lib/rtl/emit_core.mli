(** The dialect-independent half of HDL emission: deterministic signal
    naming, literal formatting, expression lowering and module layout,
    shared by every emission backend ({!Sv_emit}, {!V2001_emit}) so the
    outputs can differ only in dialect keywords. *)

val is_ident_char : char -> bool

(** The identifier a signal or module name is emitted as: [s] itself when
    it is already legal, else [s] with every other character replaced by
    ['_']. *)
val sv_ident : string -> string

(** A dialect is the set of process keywords a backend is allowed to
    change; everything else (names, declarations, ordering) is fixed. *)
type dialect = { d_always_comb : string; d_always_ff : string }

val sv : dialect
val v2001 : dialect

val emit : dialect:dialect -> Netlist.frozen -> string
