(** Verilog-2001 emission backend: shares {!Emit_core}'s deterministic
    naming and module structure with {!Sv_emit}; output differs from the
    SystemVerilog backend only in dialect keywords. *)

val emit : Netlist.frozen -> string

(** SystemVerilog-only keywords rejected by {!lint}. *)
val banned_sv_keywords : string list

(** Lexical lint for SystemVerilog-only constructs in Verilog-2001
    output; returns one ["line N: ..."] message per offence (empty list
    when the source is clean). Used as the fallback smoke-parse when no
    Verilog toolchain is installed. *)
val lint : string -> string list
