(* Translation validation for optimization passes (see the .mli).

   Equivalence is checked by co-simulating the two graphs on the compiled
   RTL engine ({!Rtl.Compiled}): each graph is compiled once into a
   netlist with one [Comb] node per comb op, its free inputs as input
   ports and every signal named by SSA id; each vector then sets the
   ports, settles the logic and reads the observables.

   - the free inputs are the results of non-comb ops (interface reads,
     instruction fields, ...). Passes never touch those ops, so the two
     graphs share them by SSA id and a single assignment drives both;
   - the observables are the side-effecting ops (architectural writes and
     stores), in op order: their opname, attributes, and the concrete
     patterns of their operands must coincide on every driven vector.

   When the total free-input width fits the exhaustive budget the whole
   input space is enumerated — a proof, not a test. Beyond it we drive
   corner vectors (all-zeros, all-ones, each input saturated alone) plus
   a fixed-seed pseudo-random sample, so validation is deterministic
   across runs. Any counterexample raises a structured E0530 naming the
   pass and the offending assignment. *)

open Ir.Mir
module Bn = Bitvec.Bn

type verdict = { tv_pass : string; tv_vectors : int; tv_exhaustive : bool }

(* total free-input bits up to which the input space is enumerated *)
let exhaustive_budget = 12

(* pseudo-random vectors driven beyond the exhaustive budget *)
let random_vectors = 128

let attr_render (k, a) =
  match a with
  | A_int i -> Printf.sprintf "%s=%d" k i
  | A_str s -> Printf.sprintf "%s=%s" k s
  | A_bool b -> Printf.sprintf "%s=%b" k b
  | A_bv v -> Printf.sprintf "%s=%s" k (Bitvec.to_hex_string v)

let op_skeleton (op : op) =
  Printf.sprintf "%s{%s}" op.opname (String.concat "," (List.map attr_render op.attrs))

(* results of non-comb ops, in op order: the free inputs of the graph *)
let free_inputs (g : graph) : value list =
  List.concat_map
    (fun (op : op) ->
      if Ir.Comb_eval.is_comb op.opname then [] else op.results)
    (all_ops g)

let fail ~pass_name fmt =
  Format.kasprintf
    (fun msg ->
      Diag.fatal
        (Diag.make ~code:"E0530"
           (Printf.sprintf "translation validation failed in pass '%s': %s" pass_name msg)))
    fmt

let signal (v : value) = "v" ^ string_of_int v.vid

(* A graph compiled for co-simulation: the engine, the port driven by
   each free input of the original ([None] for one this graph dropped),
   and the observable stream as (skeleton, operand signals). *)
type sim = {
  engine : Rtl.Compiled.t;
  ports : string option list;
  observed : (string * string list) list;
}

let port (v : value) =
  { Rtl.Netlist.port_name = signal v; port_width = v.vty.Bitvec.width; port_signal = signal v }

let compile ~inputs (g : graph) : sim =
  let ops = all_ops g in
  let nodes =
    List.filter_map
      (fun (op : op) ->
        match op.results with
        | [ r ] when Ir.Comb_eval.is_comb op.opname ->
            Some
              (Rtl.Netlist.Comb
                 {
                   out = signal r;
                   width = r.vty.Bitvec.width;
                   op = op.opname;
                   attrs = op.attrs;
                   inputs = List.map signal op.operands;
                 })
        | _ -> None)
      ops
  in
  let effects = List.filter Ir.Passes.has_side_effect ops in
  (* the observed operands are output ports, so an undefined one is a
     [Netlist_error] at compile time *)
  let outputs = List.concat_map (fun (op : op) -> List.map port op.operands) effects in
  let own = free_inputs g in
  let m = { Rtl.Netlist.mod_name = g.gname; inputs = List.map port own; outputs; nodes } in
  let has (v : value) = List.exists (fun (o : value) -> o.vid = v.vid) own in
  let ports = List.map (fun v -> if has v then Some (signal v) else None) inputs in
  {
    engine = Rtl.Compiled.create m;
    ports;
    observed = List.map (fun op -> (op_skeleton op, List.map signal op.operands)) effects;
  }

(* drive [vec] onto the ports of [s]; returns the observable stream *)
let observe (s : sim) (vec : Bitvec.t list) : (string * Bitvec.t list) list =
  List.iter2 (fun p x -> Option.iter (fun p -> Rtl.Compiled.set_input s.engine p x) p) s.ports vec;
  Rtl.Compiled.eval s.engine;
  List.map (fun (sk, sigs) -> (sk, List.map (Rtl.Compiled.signal s.engine) sigs)) s.observed

(* deterministic seed from the graph name and pass, so reruns drive the
   same sample *)
let seed_of ~pass_name (g : graph) =
  let h = Hashtbl.hash (g.gname, pass_name) in
  [| h; h lxor 0x5f3759df |]

let bn_random st w =
  let x = ref Bn.zero in
  let remaining = ref w in
  while !remaining > 0 do
    let k = min 24 !remaining in
    x := Bn.add (Bn.shift_left !x k) (Bn.of_int (Random.State.int st (1 lsl k)));
    remaining := !remaining - k
  done;
  !x

let assignment_render inputs vec =
  String.concat ", "
    (List.map2
       (fun (v : value) x -> Printf.sprintf "%%%d=%s" v.vid (Bitvec.to_hex_string x))
       inputs vec)

let check_vector ~pass_name ~original ~optimized inputs vec =
  let oa = observe original vec and ob = observe optimized vec in
  if List.length oa <> List.length ob then
    fail ~pass_name "graphs perform %d vs %d side effects under %s" (List.length oa)
      (List.length ob)
      (assignment_render inputs vec)
  else
    List.iter2
      (fun (ska, va) (skb, vb) ->
        if ska <> skb then
          fail ~pass_name "side-effect skeleton changed: %s vs %s" ska skb;
        if not (List.for_all2 (fun a b -> Bn.equal (Bitvec.pattern a) (Bitvec.pattern b)) va vb)
        then
          fail ~pass_name
            "counterexample on %s: %s observes [%s] in the original but [%s] after the pass"
            ska
            (assignment_render inputs vec)
            (String.concat ";" (List.map Bitvec.to_hex_string va))
            (String.concat ";" (List.map Bitvec.to_hex_string vb)))
      oa ob

let validate ~pass_name ~(original : graph) ~(optimized : graph) : verdict =
  (* the free inputs must survive the pass untouched: same ids, same
     types — otherwise the co-simulation below would be vacuous. A pass
     may drop an input that became unused (dce of interface reads) but
     can never invent or retype one. *)
  let inputs = free_inputs original in
  let id_ty (v : value) = (v.vid, v.vty) in
  let originals = List.map id_ty inputs in
  List.iter
    (fun v ->
      if not (List.mem (id_ty v) originals) then
        fail ~pass_name "the pass rewrote a non-combinational (interface) op")
    (free_inputs optimized);
  let sim_of g =
    try compile ~inputs g
    with Rtl.Netlist.Netlist_error m -> fail ~pass_name "ill-formed graph %s: %s" g.gname m
  in
  let sa = sim_of original and sb = sim_of optimized in
  let total_bits = List.fold_left (fun acc (v : value) -> acc + v.vty.Bitvec.width) 0 inputs in
  let vectors = ref 0 in
  let drive vec =
    incr vectors;
    check_vector ~pass_name ~original:sa ~optimized:sb inputs vec
  in
  let const_vec f =
    List.map (fun (v : value) -> Bitvec.of_bn (Bitvec.unsigned_ty v.vty.Bitvec.width) (f v)) inputs
  in
  let ones (v : value) = Bn.sub (Bn.pow2 v.vty.Bitvec.width) Bn.one in
  if total_bits <= exhaustive_budget then begin
    for i = 0 to (1 lsl total_bits) - 1 do
      drive
        (snd
           (List.fold_left_map
              (fun off (v : value) ->
                let w = v.vty.Bitvec.width in
                (off + w, Bitvec.of_int (Bitvec.unsigned_ty w) ((i lsr off) land ((1 lsl w) - 1))))
              0 inputs))
    done;
    { tv_pass = pass_name; tv_vectors = !vectors; tv_exhaustive = true }
  end
  else begin
    (* corners: all zeros, all ones, then each input saturated alone *)
    drive (const_vec (fun _ -> Bn.zero));
    drive (const_vec ones);
    List.iter
      (fun (vsat : value) ->
        drive (const_vec (fun v -> if v.vid = vsat.vid then ones v else Bn.zero)))
      inputs;
    let st = Random.State.make (seed_of ~pass_name original) in
    for _ = 1 to random_vectors do
      drive (const_vec (fun v -> bn_random st v.vty.Bitvec.width))
    done;
    { tv_pass = pass_name; tv_vectors = !vectors; tv_exhaustive = false }
  end
