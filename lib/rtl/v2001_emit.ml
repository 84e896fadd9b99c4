(* Verilog-2001 emission: the same deterministic naming and module
   structure as the SystemVerilog backend ({!Emit_core}), restricted to
   the Verilog-2001 dialect so open tools like iverilog/Qflow (the mriscv
   contract) can consume it. Differences from the SV output are keyword
   only: [always @*] for ROM processes and [always @(posedge clk)] for
   registers; declarations are already wire/reg in both dialects. *)

let emit (f : Netlist.frozen) : string = Emit_core.emit ~dialect:Emit_core.v2001 f

(* SystemVerilog-only keywords that must never appear in Verilog-2001
   output. Used by the built-in lexical lint when iverilog is absent. *)
let banned_sv_keywords = [ "always_ff"; "always_comb"; "always_latch"; "logic"; "bit"; "int" ]

(* Find whole-word occurrences of [kw] in [src]; returns 1-based line
   numbers of offending occurrences. *)
let find_keyword src kw =
  let n = String.length src and k = String.length kw in
  let hits = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  while !i <= n - k do
    if src.[!i] = '\n' then incr line;
    if String.sub src !i k = kw
       && (!i = 0 || not (Emit_core.is_ident_char src.[!i - 1]))
       && (!i + k >= n || not (Emit_core.is_ident_char src.[!i + k]))
    then hits := !line :: !hits;
    incr i
  done;
  List.rev !hits

(* Lexical lint for banned SV-only constructs. Returns problems as
   ["line N: SystemVerilog-only keyword 'kw'"] strings; empty = clean. *)
let lint (src : string) : string list =
  List.concat_map
    (fun kw ->
      List.map
        (fun ln -> Printf.sprintf "line %d: SystemVerilog-only keyword '%s'" ln kw)
        (find_keyword src kw))
    banned_sv_keywords
