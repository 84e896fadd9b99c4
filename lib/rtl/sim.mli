(** Cycle-accurate two-phase simulator for RTL netlists.

   Used to verify the functional correctness of generated ISAX modules
   against the CoreDSL reference interpreter (the paper verifies extended
   cores by RTL simulation of assembler programs, Section 5.3).

   Usage per clock cycle:
   - [set_input] for each input port,
   - [eval] to settle combinational logic,
   - read outputs with [output],
   - [clock] to advance the registers. *)

type t = {
  values : (string, Bitvec.t) Hashtbl.t;  (** signal name -> current value *)
  frozen : Netlist.frozen;
}
val create : Netlist.t -> t

(** Reinitialise the values exactly as [create] does. *)
val reset : t -> unit

val set_input : t -> string -> Bitvec.t -> unit
val signal : t -> string -> Bitvec.t
val eval : t -> unit
val clock : t -> unit
val output : t -> string -> Bitvec.t
val cycle : t -> (string * Bitvec.t) list -> unit
