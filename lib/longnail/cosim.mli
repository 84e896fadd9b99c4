(** Co-simulation harness: drive a generated ISAX module cycle by cycle
   through its SCAIE-V port bindings, the way the host core would.

   Used by the integration tests to verify that the RTL produced by
   Longnail matches the CoreDSL reference interpreter (the paper verifies
   extended cores by RTL simulation, Section 5.3), and by the examples to
   demonstrate the generated hardware actually computing. *)

(** The values the "host core" supplies to the module under test. *)
type stimulus = {
  instr_word : Bitvec.t option;
  rs1 : Bitvec.t option;
  rs2 : Bitvec.t option;
  pc : Bitvec.t option;
  custreg : string -> int -> Bitvec.t;  (** custom register read responses *)
  mem_read : int -> int -> Bitvec.t;  (** address, elems -> load response *)
}
val default_stimulus : stimulus
type custreg_write = {
  cw_reg : string;
  cw_index : int option;
  cw_data : Bitvec.t;
  cw_valid : bool;
}
type response = {
  rd_write : (Bitvec.t * bool) option;
  pc_write : (Bitvec.t * bool) option;
  custreg_writes : custreg_write list;
  mem_write : (int * Bitvec.t * bool) option;
  mem_read_request : (int * bool) option;
  cycles : int;
}
exception Cosim_error of string

(** A reusable handle on one generated module: its compiled simulation
    engine, built once, and the port facts every run needs (the
    [stall_in*] ports, the input port widths, the first and last cycle
    to drive). A handle is mutable and owned by one caller; it is not
    meant to be shared across domains. *)
type t

val create : Flow.compiled_functionality -> t
(** [create f] topologically sorts and compiles [f]'s netlist once. *)

val exec : t -> stimulus -> response
(** Run one instruction (or always-block evaluation) through the module.
    Reset contract: [exec] first resets the engine to the state [create]
    left it in (inputs and combinational signals zero, registers at their
    init values), so nothing carries over from an earlier [exec] — no
    register, no input port, no pending memory response. A response of
    [exec t stim] therefore equals [run f stim] on a fresh module, for
    every earlier sequence of stimuli on [t]. *)

val run : Flow.compiled_functionality -> stimulus -> response
(** [run f stim] is [exec (create f) stim]: one-shot, compiling the
    module for this call alone. *)
