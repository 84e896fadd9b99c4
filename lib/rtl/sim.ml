(* Cycle-accurate two-phase simulator for RTL netlists.

   Used to verify the functional correctness of generated ISAX modules
   against the CoreDSL reference interpreter (the paper verifies extended
   cores by RTL simulation of assembler programs, Section 5.3).

   Usage per clock cycle:
   - [set_input] for each input port,
   - [eval] to settle combinational logic,
   - read outputs with [output],
   - [clock] to advance the registers. *)

open Netlist

type t = { values : (string, Bitvec.t) Hashtbl.t; frozen : Netlist.frozen }

let u w = Bitvec.unsigned_ty w

(* inputs and registers start at zero / their reset value; no
   combinational signal has a value before the first [eval] *)
let init_values f values =
  Hashtbl.reset values;
  List.iter (fun p -> Hashtbl.replace values p.port_signal (Bitvec.zero (u p.port_width))) f.f_src.inputs;
  Array.iter
    (fun { fr_reg = r; _ } ->
      Hashtbl.replace values r.out
        (match r.init with Some v -> Bitvec.cast (u r.width) v | None -> Bitvec.zero (u r.width)))
    f.f_regs

let create (m : Netlist.t) =
  let frozen = freeze m in
  let values = Hashtbl.create 64 in
  init_values frozen values;
  { values; frozen }

let reset t = init_values t.frozen t.values

let set_input t name v =
  match List.find_opt (fun p -> p.port_name = name) t.frozen.f_src.inputs with
  | Some p -> Hashtbl.replace t.values p.port_signal (Bitvec.cast (u p.port_width) v)
  | None -> nl_error "no input port %s" name

let signal t name =
  match Hashtbl.find_opt t.values name with
  | Some v -> v
  | None -> nl_error "signal %s has no value" name

(* settle combinational logic *)
let eval t =
  Array.iter
    (fun fn ->
      match fn.fn_node with
      | Comb c ->
          let ops = List.map (signal t) c.inputs in
          Hashtbl.replace t.values c.out
            (Ir.Comb_eval.eval ~name:c.op ~attrs:c.attrs ~ops ~result_width:c.width)
      | Rom r ->
          let idx = Bitvec.to_int (signal t r.index) in
          let v =
            if idx >= 0 && idx < Array.length r.table then r.table.(idx)
            else Bitvec.zero (u r.width)
          in
          Hashtbl.replace t.values r.out (Bitvec.cast (u r.width) v)
      | Reg _ -> ())
    t.frozen.f_comb

(* advance registers (two-phase: sample all, then update) *)
let clock t =
  let sampled =
    List.filter_map
      (fun { fr_reg = r; _ } ->
        let en = match r.enable with None -> true | Some e -> Bitvec.to_bool (signal t e) in
        if en then Some (r.out, Bitvec.cast (u r.width) (signal t r.next)) else None)
      (Array.to_list t.frozen.f_regs)
  in
  List.iter (fun (out, v) -> Hashtbl.replace t.values out v) sampled

let output t name =
  match List.find_opt (fun p -> p.port_name = name) t.frozen.f_src.outputs with
  | Some p -> Bitvec.cast (u p.port_width) (signal t p.port_signal)
  | None -> nl_error "no output port %s" name

(* convenience: run a full cycle with the given inputs *)
let cycle t inputs =
  List.iter (fun (n, v) -> set_input t n v) inputs;
  eval t;
  clock t
