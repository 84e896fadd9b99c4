(* Evaluation semantics of the signless [comb] dialect: the reference.

   Constant folding, Absint, the reference RTL interpreter and the
   compiled engine's wide fallback evaluate through it; the compiled
   engine's native-int kernel, which also runs translation validation, is
   tested against it op for op. All inputs and the output are {!Bitvec}
   values with unsigned types; signed operators (divs, shrs, signed
   comparisons) reinterpret their patterns. *)

let u w = Bitvec.unsigned_ty w
let s w = Bitvec.signed_ty w

let as_signed v = Bitvec.cast (s (Bitvec.width v)) v

let bool_bv b = Bitvec.of_bool b

(* Evaluate op [name] with attributes [attrs] on operand patterns [ops],
   producing a pattern of [result_width] bits. *)
let eval ~name ~(attrs : (string * Mir.attr) list) ~(ops : Bitvec.t list) ~result_width : Bitvec.t =
  let w = result_width in
  let wrap v = Bitvec.cast (u w) v in
  let a () = List.nth ops 0 and b () = List.nth ops 1 in
  let shift_amount () =
    (* amounts >= width produce 0 (or the sign fill for shrs); one beyond
       the native int range is such an amount *)
    Option.value (Bitvec.to_int_opt (b ())) ~default:max_int
  in
  match name with
  | "hw.constant" -> (
      match List.assoc_opt "value" attrs with
      | Some (Mir.A_bv v) -> wrap v
      | _ -> invalid_arg "hw.constant without value")
  | "comb.add" -> wrap (Bitvec.add (a ()) (b ()))
  | "comb.sub" -> wrap (Bitvec.sub (a ()) (b ()))
  | "comb.mul" -> wrap (Bitvec.mul (a ()) (b ()))
  | "comb.divu" -> if Bitvec.is_zero (b ()) then Bitvec.lognot (Bitvec.zero (u w)) else wrap (Bitvec.div (a ()) (b ()))
  | "comb.modu" -> if Bitvec.is_zero (b ()) then wrap (a ()) else wrap (Bitvec.rem (a ()) (b ()))
  | "comb.divs" ->
      if Bitvec.is_zero (b ()) then Bitvec.lognot (Bitvec.zero (u w))
      else wrap (Bitvec.div (as_signed (a ())) (as_signed (b ())))
  | "comb.mods" ->
      if Bitvec.is_zero (b ()) then wrap (a ())
      else wrap (Bitvec.rem (as_signed (a ())) (as_signed (b ())))
  | "comb.and" -> wrap (Bitvec.logand (a ()) (b ()))
  | "comb.or" -> wrap (Bitvec.logor (a ()) (b ()))
  | "comb.xor" -> wrap (Bitvec.logxor (a ()) (b ()))
  | "comb.mux" ->
      if Bitvec.to_bool (List.nth ops 0) then wrap (List.nth ops 1) else wrap (List.nth ops 2)
  | "comb.extract" -> (
      match List.assoc_opt "lowBit" attrs with
      | Some (Mir.A_int lo) -> Bitvec.extract (List.nth ops 0) ~hi:(lo + w - 1) ~lo
      | _ -> invalid_arg "comb.extract without lowBit")
  | "comb.concat" ->
      (* first operand is the most significant *)
      List.fold_left (fun acc v -> Bitvec.concat acc v) (List.hd ops) (List.tl ops)
  | "comb.replicate" ->
      let n = w / Bitvec.width (List.hd ops) in
      Bitvec.replicate (List.hd ops) n
  | "comb.shl" ->
      (* shift at the result width (SystemVerilog's context-determined
         [<<]), so bits shifted past a narrower operand's top survive *)
      let k = shift_amount () in
      if k >= w then Bitvec.zero (u w) else wrap (Bitvec.shift_left (wrap (a ())) k)
  | "comb.shru" ->
      let k = shift_amount () in
      if k >= w then Bitvec.zero (u w) else wrap (Bitvec.shift_right (a ()) k)
  | "comb.shrs" ->
      let k = shift_amount () in
      let sv = as_signed (a ()) in
      wrap (Bitvec.shift_right sv (min k (w - 1)))
  | "comb.icmp_eq" -> bool_bv (Bitvec.eq (a ()) (b ()))
  | "comb.icmp_ne" -> bool_bv (Bitvec.ne (a ()) (b ()))
  | "comb.icmp_ult" -> bool_bv (Bitvec.lt (a ()) (b ()))
  | "comb.icmp_ule" -> bool_bv (Bitvec.le (a ()) (b ()))
  | "comb.icmp_ugt" -> bool_bv (Bitvec.gt (a ()) (b ()))
  | "comb.icmp_uge" -> bool_bv (Bitvec.ge (a ()) (b ()))
  | "comb.icmp_slt" -> bool_bv (Bitvec.lt (as_signed (a ())) (as_signed (b ())))
  | "comb.icmp_sle" -> bool_bv (Bitvec.le (as_signed (a ())) (as_signed (b ())))
  | "comb.icmp_sgt" -> bool_bv (Bitvec.gt (as_signed (a ())) (as_signed (b ())))
  | "comb.icmp_sge" -> bool_bv (Bitvec.ge (as_signed (a ())) (as_signed (b ())))
  | other -> invalid_arg (Printf.sprintf "Comb_eval.eval: not a comb op: %s" other)

(* Is this op pure combinational logic that [eval] understands? *)
let is_comb = function
  | "hw.constant" | "comb.add" | "comb.sub" | "comb.mul" | "comb.divu" | "comb.modu"
  | "comb.divs" | "comb.mods" | "comb.and" | "comb.or" | "comb.xor" | "comb.mux"
  | "comb.extract" | "comb.concat" | "comb.replicate" | "comb.shl" | "comb.shru" | "comb.shrs"
  | "comb.icmp_eq" | "comb.icmp_ne" | "comb.icmp_ult" | "comb.icmp_ule" | "comb.icmp_ugt"
  | "comb.icmp_uge" | "comb.icmp_slt" | "comb.icmp_sle" | "comb.icmp_sgt" | "comb.icmp_sge" ->
      true
  | _ -> false
