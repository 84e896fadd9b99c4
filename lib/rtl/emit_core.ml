(* The dialect-independent half of HDL emission: deterministic signal
   naming, literal formatting, expression lowering and module layout are
   shared by every emission backend, so two backends can only differ in
   dialect keywords — never in names, ordering or structure. The
   SystemVerilog backend ({!Sv_emit}) and the Verilog-2001 backend
   ({!V2001_emit}) are both thin dialect records over [emit]. *)

open Netlist

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* Deterministic signal/module naming shared by all backends: a legal
   identifier is returned as it is, without a copy. *)
let sv_ident s =
  if String.for_all is_ident_char s then s
  else String.map (fun c -> if is_ident_char c then c else '_') s

let add_int b i = Buffer.add_string b (string_of_int i)

let add_wire b w name =
  if w <> 1 then (Buffer.add_char b '['; add_int b (w - 1); Buffer.add_string b ":0] ");
  Buffer.add_string b name

let add_literal b v =
  let h = Bitvec.to_hex_string v in
  add_int b (Bitvec.width v);
  Buffer.add_string b "'h";
  Buffer.add_substring b h 2 (String.length h - 2)

(* The expression grammar is the Verilog-2001 subset of SystemVerilog
   ($signed is Verilog-2001), so one lowering serves every dialect. *)
let add_comb_expr b ~attrs ~op ~(ins : string array) ~width =
  let s = Buffer.add_string b in
  let operand signed i = if signed then (s "$signed("; s ins.(i); s ")") else s ins.(i) in
  let bin sa infix sb = operand sa 0; s infix; operand sb 1 in
  match op with
  | "hw.constant" -> (
      match List.assoc_opt "value" attrs with
      | Some (Ir.Mir.A_bv v) -> add_literal b v
      | _ -> invalid_arg "constant without value")
  | "comb.add" -> bin false " + " false
  | "comb.sub" -> bin false " - " false
  | "comb.mul" -> bin false " * " false
  | "comb.divu" -> bin false " / " false
  | "comb.modu" -> bin false " % " false
  | "comb.divs" -> bin true " / " true
  | "comb.mods" -> bin true " % " true
  | "comb.and" -> bin false " & " false
  | "comb.or" -> bin false " | " false
  | "comb.xor" -> bin false " ^ " false
  | "comb.mux" -> s ins.(0); s " ? "; s ins.(1); s " : "; s ins.(2)
  | "comb.extract" -> (
      match List.assoc_opt "lowBit" attrs with
      | Some (Ir.Mir.A_int lo) ->
          s ins.(0); s "[";
          if width <> 1 then (add_int b (lo + width - 1); s ":");
          add_int b lo; s "]"
      | _ -> invalid_arg "extract without lowBit")
  | "comb.concat" -> s "{"; Array.iteri (fun i x -> if i > 0 then s ", "; s x) ins; s "}"
  | "comb.replicate" -> s "{"; add_int b width; s "{"; s ins.(0); s "}}"
  | "comb.shl" -> bin false " << " false
  | "comb.shru" -> bin false " >> " false
  | "comb.shrs" -> bin true " >>> " false
  | "comb.icmp_eq" -> bin false " == " false
  | "comb.icmp_ne" -> bin false " != " false
  | "comb.icmp_ult" -> bin false " < " false
  | "comb.icmp_ule" -> bin false " <= " false
  | "comb.icmp_ugt" -> bin false " > " false
  | "comb.icmp_uge" -> bin false " >= " false
  | "comb.icmp_slt" -> bin true " < " true
  | "comb.icmp_sle" -> bin true " <= " true
  | "comb.icmp_sgt" -> bin true " > " true
  | "comb.icmp_sge" -> bin true " >= " true
  | other -> invalid_arg ("no SV lowering for " ^ other)

(* What a backend may change: the process keywords. Declarations are
   wire/reg in every dialect (the SystemVerilog backend deliberately never
   used [logic], so both outputs share the declaration section too). *)
type dialect = {
  d_always_comb : string;  (* "always_comb" or "always @*" *)
  d_always_ff : string;  (* "always_ff @(posedge clk)" or "always @(posedge clk)" *)
}

let sv = { d_always_comb = "always_comb"; d_always_ff = "always_ff @(posedge clk)" }

let v2001 = { d_always_comb = "always @*"; d_always_ff = "always @(posedge clk)" }

(* Every name is sanitised once, up front; the text goes straight into
   one buffer. *)
let emit ~(dialect : dialect) (f : frozen) : string =
  let m = f.f_src in
  let b = Buffer.create (64 * Array.length f.f_names + 256) in
  let s = Buffer.add_string b in
  let id = Array.map sv_ident f.f_names in
  let port dir p = s dir; add_wire b p.port_width (sv_ident p.port_name) in
  s "module "; s (sv_ident m.mod_name); s "(\n  input clk,\n  input rst";
  List.iter (port ",\n  input  ") m.inputs;
  List.iter (port ",\n  output ") m.outputs;
  s ");\n\n";
  (* declarations, in node order *)
  List.iteri
    (fun k n ->
      s (match n with Comb _ -> "  wire " | Rom _ | Reg _ -> "  reg ");
      add_wire b (node_width n) id.(f.f_n_inputs + k);
      s ";\n")
    m.nodes;
  s "\n";
  (* combinational logic in dependency order for readability *)
  Array.iter
    (fun fn ->
      let o = id.(fn.fn_out) in
      match fn.fn_node with
      | Comb c ->
          s "  assign "; s o; s " = ";
          add_comb_expr b ~attrs:c.attrs ~op:c.op ~ins:(Array.map (Array.get id) fn.fn_ins) ~width:c.width;
          s ";\n"
      | Rom r ->
          s "  "; s dialect.d_always_comb; s " begin\n    case ("; s id.(fn.fn_ins.(0)); s ")\n";
          Array.iteri (fun i v -> s "      "; add_int b i; s ": "; s o; s " = "; add_literal b v; s ";\n") r.table;
          s "      default: "; s o; s " = "; add_int b r.width; s "'d0;\n    endcase\n  end\n"
      | Reg _ -> ())
    f.f_comb;
  s "\n";
  (* sequential logic, in node order *)
  Array.iter
    (fun fr ->
      let o = id.(fr.fr_out) and next = id.(fr.fr_next) in
      s "  "; s dialect.d_always_ff; s "\n";
      (match fr.fr_reg.init with
      | Some v -> s "    if (rst) "; s o; s " <= "; add_literal b v; s ";\n    else "
      | None -> s "    ");
      s o; s " <= ";
      (match fr.fr_enable with Some en -> s id.(en); s " ? "; s next; s " : "; s o | None -> s next);
      s ";\n")
    f.f_regs;
  s "\nendmodule\n";
  Buffer.contents b
