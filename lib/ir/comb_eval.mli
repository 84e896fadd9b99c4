(** Evaluation semantics of the signless [comb] dialect: the reference.

   Constant folding, Absint, the reference RTL interpreter and the
   compiled engine's wide fallback evaluate through it; the compiled
   engine's native-int kernel, which also runs translation validation, is
   tested against it op for op. All inputs and the output are {!Bitvec}
   values with unsigned types; signed operators (divs, shrs, signed
   comparisons) reinterpret their patterns. Shift amounts beyond the
   native int range shift every bit out. *)

val u : int -> Bitvec.ty
val s : int -> Bitvec.ty
val as_signed : Bitvec.t -> Bitvec.t
val bool_bv : bool -> Bitvec.t
val eval :
  name:string ->
  attrs:(string * Mir.attr) list ->
  ops:Bitvec.t list -> result_width:int -> Bitvec.t
val is_comb : string -> bool
