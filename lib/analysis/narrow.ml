(* Analysis-driven width narrowing over LIL graphs (see the .mli).

   Three rewrites, each justified by an {!Absint} proof and each checked
   end-to-end by {!Tv} before its result is accepted:

   - [narrow_widths]: an op whose top k result bits are proven constant
     is re-emitted at width w-k on the low bits of its operands, with the
     constant high bits gratis via comb.concat. Sound exactly for the
     modular ops (add/sub/mul/and/or/xor/mux), whose low w-k bits depend
     only on the low w-k operand bits.
   - [simplify_compares]: comparisons the domain decides become 1-bit
     constants.
   - [eliminate_dead_selects]: a mux whose condition is decided (or whose
     arms coincide) forwards the surviving arm.

   The rewires leave dead high-bit logic behind on purpose: the ordinary
   fold/cse/dce cleanup pipeline erases it, which is where the removed
   bits actually disappear from the netlist. *)

open Ir.Mir
module Bn = Bitvec.Bn

type stats = {
  ns_ops_rewritten : int;  (** ops re-emitted at a narrower width *)
  ns_bits_removed : int;  (** total result bits proven constant and stripped *)
  ns_compares_folded : int;
  ns_selects_removed : int;
  ns_tv_validations : int;  (** translation-validator runs that passed *)
  ns_tv_vectors : int;  (** total input vectors driven across them *)
  ns_tv_exhaustive : int;  (** how many runs enumerated the whole space *)
}

let zero_stats =
  {
    ns_ops_rewritten = 0;
    ns_bits_removed = 0;
    ns_compares_folded = 0;
    ns_selects_removed = 0;
    ns_tv_validations = 0;
    ns_tv_vectors = 0;
    ns_tv_exhaustive = 0;
  }

let u w = Bitvec.unsigned_ty w

(* ops whose low result bits depend only on the low operand bits: the
   mod-2^t ring ops and the bitwise/select ops *)
let narrowable = function
  | "comb.add" | "comb.sub" | "comb.mul" | "comb.and" | "comb.or" | "comb.xor" | "comb.mux" ->
      true
  | _ -> false

(* one rewriting sweep in the style of [Ir.Passes.lower_constant_shifts]:
   copy the body, consult [facts] on original results, splice replacement
   wiring through a vid substitution *)
let sweep (g : graph) (visit : builder -> (value -> value) -> (int, value) Hashtbl.t -> op -> bool) :
    graph =
  let b = builder () in
  List.iter
    (fun op ->
      b.next_o <- max b.next_o (op.oid + 1);
      List.iter (fun (r : value) -> b.next_v <- max b.next_v (r.vid + 1)) op.results)
    (all_ops g);
  let subst : (int, value) Hashtbl.t = Hashtbl.create 16 in
  let s v = match Hashtbl.find_opt subst v.vid with Some v' -> v' | None -> v in
  List.iter
    (fun op ->
      if not (visit b s subst op) then
        b.ops <- { op with operands = List.map s op.operands } :: b.ops)
    g.body;
  { g with body = List.rev b.ops }

(* ---- narrow_widths ---- *)

let narrow_widths (facts : Absint.result) (g : graph) : graph * int * int =
  let rewritten = ref 0 and bits_removed = ref 0 in
  let g' =
    sweep g (fun b s subst op ->
        match op.results with
        | [ r ] when narrowable op.opname -> (
            let w = r.vty.Bitvec.width in
            match Absint.fact_of facts r with
            | None -> false
            | Some f ->
                let k = Absint.leading_known ~width:w f.f_bits in
                if k <= 0 then false
                else begin
                  set_loc b op.oloc;
                  let repl =
                    if k >= w then
                      (* the whole result is pinned: emit the constant *)
                      add_op1 b "hw.constant" [] (u w)
                        ~attrs:[ ("value", A_bv (Bitvec.of_bn (u w) f.f_bits.bv)) ]
                    else begin
                      let w' = w - k in
                      let high = Bn.shift_right f.f_bits.bv w' in
                      let low (v : value) =
                        add_op1 b "comb.extract" [ s v ] (u w')
                          ~attrs:[ ("lowBit", A_int 0) ]
                      in
                      let narrow_operands =
                        match (op.opname, op.operands) with
                        | "comb.mux", [ c; t; e ] -> [ s c; low t; low e ]
                        | _, ops -> List.map low ops
                      in
                      let nres = add_op1 b op.opname narrow_operands (u w') ~attrs:op.attrs in
                      let hconst =
                        add_op1 b "hw.constant" [] (u k)
                          ~attrs:[ ("value", A_bv (Bitvec.of_bn (u k) high)) ]
                      in
                      add_op1 b "comb.concat" [ hconst; nres ] (u w)
                    end
                  in
                  Hashtbl.replace subst r.vid repl;
                  incr rewritten;
                  bits_removed := !bits_removed + min k w;
                  true
                end)
        | _ -> false)
  in
  (g', !rewritten, !bits_removed)

(* ---- simplify_compares ---- *)

let is_icmp name = String.length name > 10 && String.sub name 0 10 = "comb.icmp_"

let simplify_compares (facts : Absint.result) (g : graph) : graph * int =
  let folded = ref 0 in
  let g' =
    sweep g (fun b _s subst op ->
        match op.results with
        | [ r ] when is_icmp op.opname -> (
            match Option.map Absint.decide_bool (Absint.fact_of facts r) |> Option.join with
            | Some decision ->
                set_loc b op.oloc;
                let repl =
                  add_op1 b "hw.constant" [] (u 1)
                    ~attrs:[ ("value", A_bv (Bitvec.of_bool decision)) ]
                in
                Hashtbl.replace subst r.vid repl;
                incr folded;
                true
            | None -> false)
        | _ -> false)
  in
  (g', !folded)

(* ---- eliminate_dead_selects ---- *)

let eliminate_dead_selects (facts : Absint.result) (g : graph) : graph * int =
  let removed = ref 0 in
  let g' =
    sweep g (fun _b s subst op ->
        match (op.opname, op.operands, op.results) with
        | "comb.mux", [ c; t; e ], [ r ] ->
            let decided =
              match Option.map Absint.decide_bool (Absint.fact_of facts c) |> Option.join with
              | Some true -> Some t
              | Some false -> Some e
              | None -> if (s t).vid = (s e).vid then Some t else None
            in
            (match decided with
            | Some arm ->
                Hashtbl.replace subst r.vid (s arm);
                incr removed;
                true
            | None -> false)
        | _ -> false)
  in
  (g', !removed)

(* ---- the driver ---- *)

let validated ~pass_name ~original ~optimized stats =
  let v = Tv.validate ~pass_name ~original ~optimized in
  {
    stats with
    ns_tv_validations = stats.ns_tv_validations + 1;
    ns_tv_vectors = stats.ns_tv_vectors + v.Tv.tv_vectors;
    ns_tv_exhaustive = (stats.ns_tv_exhaustive + if v.Tv.tv_exhaustive then 1 else 0);
  }

let narrow_graph ?obs ?verify_each (g : graph) : graph * stats =
  let stats = ref zero_stats in
  let sanitize name g = match verify_each with Some f -> f ~pass_name:name g | None -> () in
  (* each pass re-analyzes: rewrites invalidate earlier facts *)
  let step name f g =
    let pass =
      {
        Ir.Passes.pass_name = name;
        pass_fn =
          (fun g ->
            let facts = Absint.analyze g in
            let g', did = f facts g in
            ((if did then g' else g), did));
      }
    in
    let g', stat = Ir.Passes.run_pass ?obs pass g in
    if stat.Ir.Passes.ps_changed then begin
      stats := validated ~pass_name:name ~original:g ~optimized:g' !stats;
      sanitize name g'
    end;
    g'
  in
  let g1 =
    step "narrow_widths"
      (fun facts g ->
        let g', rewritten, bits = narrow_widths facts g in
        stats :=
          {
            !stats with
            ns_ops_rewritten = !stats.ns_ops_rewritten + rewritten;
            ns_bits_removed = !stats.ns_bits_removed + bits;
          };
        (g', rewritten > 0))
      g
  in
  let g2 =
    step "simplify_compares"
      (fun facts g ->
        let g', folded = simplify_compares facts g in
        stats := { !stats with ns_compares_folded = !stats.ns_compares_folded + folded };
        (g', folded > 0))
      g1
  in
  let g3 =
    step "eliminate_dead_selects"
      (fun facts g ->
        let g', removed = eliminate_dead_selects facts g in
        stats := { !stats with ns_selects_removed = !stats.ns_selects_removed + removed };
        (g', removed > 0))
      g2
  in
  if
    !stats.ns_ops_rewritten = 0 && !stats.ns_compares_folded = 0
    && !stats.ns_selects_removed = 0
  then (g, !stats)
  else begin
    (* fold/cse/dce erase the dead high-bit logic the rewires stranded *)
    let vcb = match verify_each with Some f -> Some (fun ~pass_name g -> f ~pass_name g) | None -> None in
    let g4 = Ir.Passes.optimize ?obs ?verify_each:vcb g3 in
    (* belt and braces: the cleanup may drop now-unused interface reads,
       so the end-to-end check allows the input set to shrink *)
    stats := validated ~pass_name:"narrow" ~original:g ~optimized:g4 !stats;
    (g4, !stats)
  end
