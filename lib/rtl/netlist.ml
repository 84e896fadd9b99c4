(* Register-transfer-level netlist: the target of Longnail's hardware
   generation, standing in for CIRCT's hw/seq/sv dialects (Section 4.1d).

   A module is a set of named signals: input ports, combinational nodes
   (with {!Ir.Comb_eval} semantics), ROM lookups (internalized constant
   registers), and clocked registers (the stallable pipeline registers
   Longnail inserts between stages). Output ports alias internal signals. *)

type reg_node = {
  out : string;
  width : int;
  next : string;  (* sampled input *)
  enable : string option;  (* stall gating: update only when enable=1 *)
  init : Bitvec.t option;
}

type node =
  | Comb of {
      out : string;
      width : int;
      op : string;  (* a comb.* / hw.constant op name *)
      attrs : (string * Ir.Mir.attr) list;
      inputs : string list;
    }
  | Rom of { out : string; width : int; table : Bitvec.t array; index : string }
  | Reg of reg_node

type port = { port_name : string; port_width : int; port_signal : string }

type t = {
  mod_name : string;
  inputs : port list;  (* port_signal = signal it defines *)
  outputs : port list;  (* port_signal = signal it exposes *)
  nodes : node list;
}

let node_out = function Comb c -> c.out | Rom r -> r.out | Reg r -> r.out

let node_width = function Comb c -> c.width | Rom r -> r.width | Reg r -> r.width

exception Netlist_error of string

let nl_error fmt = Format.kasprintf (fun m -> raise (Netlist_error m)) fmt

(* ---- the frozen form ---- *)

(* Input port i is id i, node k is id [f_n_inputs + k] (netlist.mli). *)
type fnode = { fn_node : node; fn_out : int; fn_ins : int array }
type freg = { fr_reg : reg_node; fr_out : int; fr_next : int; fr_enable : int option }

type frozen = {
  f_src : t;
  f_names : string array;
  f_widths : int array;
  f_n_inputs : int;
  f_ids : (string, int) Hashtbl.t;
  f_outputs : int array;
  f_comb : fnode array;  (* the Comb and Rom nodes in dependency order *)
  f_regs : freg array;  (* node order *)
}

type problem =
  | Duplicate_input of string
  | Drives_input of string
  | Multiple_drivers of string
  | Undefined of { signal : string; via : string }
  | Comb_cycle of string list

let describe m = function
  | Duplicate_input s -> Printf.sprintf "input %s defined twice" s
  | Drives_input s -> Printf.sprintf "input %s shadows a node" s
  | Multiple_drivers s -> Printf.sprintf "signal %s defined twice" s
  | Undefined { signal; _ } -> Printf.sprintf "undefined signal %s in module %s" signal m.mod_name
  | Comb_cycle path ->
      Printf.sprintf "combinational cycle through %s" (String.concat " -> " (path @ [ List.hd path ]))

exception Stop

(* The one structural pass; the first definition of a name wins. Problems
   go to [report] in the order {!problems} documents; the first cycle
   ends the pass with [Stop]. The comb order is the post-order of a
   depth-first walk over combinational reads, rooted at each node in node
   order (then at a register's next and enable), then at the outputs. *)
let scan ~report (m : t) : frozen =
  let n_in = List.length m.inputs and nodes = Array.of_list m.nodes in
  let n = n_in + Array.length nodes in
  let names = Array.make n "" and widths = Array.make n 0 and ids = Hashtbl.create (2 * n) in
  let define i name width =
    names.(i) <- name;
    widths.(i) <- width;
    match Hashtbl.find_opt ids name with
    | Some _ when i < n_in -> report (Duplicate_input name)
    | Some j -> report (if j < n_in then Drives_input name else Multiple_drivers name)
    | None -> Hashtbl.replace ids name i
  in
  List.iteri (fun i p -> define i p.port_signal p.port_width) m.inputs;
  Array.iteri (fun k nd -> define (n_in + k) (node_out nd) (node_width nd)) nodes;
  let undefined = ref [] in
  let resolve ~via s =
    match Hashtbl.find_opt ids s with
    | Some i -> i
    | None ->
        if not (List.mem s !undefined) then begin
          undefined := s :: !undefined;
          report (Undefined { signal = s; via })
        end;
        -1
  in
  let reads = Array.make (Array.length nodes) [||] and regs = Array.make (Array.length nodes) None in
  Array.iteri
    (fun k nd ->
      let via = node_out nd in
      match nd with
      | Comb c -> reads.(k) <- Array.of_list (List.map (resolve ~via) c.inputs)
      | Rom r -> reads.(k) <- [| resolve ~via r.index |]
      | Reg r ->
          let fr_next = resolve ~via r.next in
          let fr_enable = Option.map (resolve ~via) r.enable in
          regs.(k) <- Some { fr_reg = r; fr_out = n_in + k; fr_next; fr_enable })
    nodes;
  let outputs = Array.of_list (List.map (fun p -> resolve ~via:p.port_name p.port_signal) m.outputs) in
  (* 0: unvisited, 1: on the current path, 2: done; inputs are done *)
  let mark = Bytes.make n '\000' and path = Array.make n 0 and depth = ref 0 and order = ref [] in
  Bytes.fill mark 0 n_in '\002';
  let rec visit id =
    if id >= 0 then
      match Bytes.get mark id with
      | '\002' -> ()
      | '\001' ->
          let rec from i = if path.(i) = id then i else from (i + 1) in
          let start = from 0 in
          report (Comb_cycle (List.init (!depth - start) (fun i -> names.(path.(start + i)))));
          raise_notrace Stop
      | _ ->
          let k = id - n_in in
          Bytes.set mark id '\001';
          path.(!depth) <- id;
          incr depth;
          Array.iter visit reads.(k);
          decr depth;
          Bytes.set mark id '\002';
          match nodes.(k) with
          | Reg _ -> ()
          | nd -> order := { fn_node = nd; fn_out = id; fn_ins = reads.(k) } :: !order
  in
  Array.iteri
    (fun k r ->
      visit (n_in + k);
      Option.iter (fun r -> visit r.fr_next; Option.iter visit r.fr_enable) r)
    regs;
  Array.iter visit outputs;
  { f_src = m; f_names = names; f_widths = widths; f_n_inputs = n_in; f_ids = ids; f_outputs = outputs;
    f_comb = Array.of_list (List.rev !order);
    f_regs = Array.of_list (List.filter_map Fun.id (Array.to_list regs)) }

let freeze m = scan ~report:(fun p -> raise (Netlist_error (describe m p))) m

let problems m =
  let found = ref [] in
  (try ignore (scan ~report:(fun p -> found := p :: !found) m) with Stop -> ());
  List.rev !found

(* ---- structural statistics (used by the ASIC flow model) ---- *)

type stats = {
  n_comb_nodes : int;
  n_registers : int;
  register_bits : int;
  rom_bits : int;
  comb_ops_by_kind : (string * int) list;
}

let stats m =
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 m.nodes in
  let kinds = Hashtbl.create 16 in
  List.iter
    (function
      | Comb c -> Hashtbl.replace kinds c.op (1 + Option.value ~default:0 (Hashtbl.find_opt kinds c.op))
      | Rom _ | Reg _ -> ())
    m.nodes;
  {
    n_comb_nodes = sum (function Comb _ -> 1 | _ -> 0);
    n_registers = sum (function Reg _ -> 1 | _ -> 0);
    register_bits = sum (function Reg r -> r.width | _ -> 0);
    rom_bits = sum (function Rom r -> Array.length r.table * r.width | _ -> 0);
    comb_ops_by_kind = Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds [];
  }
