(* CoreDSL front-end: public entry points.

   Typical use:
   {[
     let tu = Coredsl.compile ~target:"X_DOTP" source in
     let st = Coredsl.Interp.create tu in
     ...
   ]}

   [compile] parses [source] (resolving imports through the built-in base
   ISA provider plus an optional user provider), elaborates the requested
   Core or InstructionSet, and type-checks every instruction, always-block
   and function. The bundled base ISA sources are parsed once per process
   and the parse is shared by every later import of them (see
   [parse_source] in elaborate.ml). *)

module Ast = Ast
module Lexer = Lexer
module Parser = Parser
module Elaborate = Elaborate
module Tast = Tast
module Typecheck = Typecheck
module Interp = Interp
module Base_isa = Base_isa

exception Error of string

(* Combine the built-in provider with a user-supplied one. *)
let combined_provider user path =
  match user path with Some s -> Some s | None -> Base_isa.provider path

(* Compile to a [result], accumulating every diagnostic the front end can
   produce in one run: recoverable syntax errors (the parser drops the
   broken construct and resynchronizes) plus one diagnostic per failing
   function/instruction/always-block from the typechecker. Lexical errors
   and elaboration errors outside instruction bodies abort early. *)
let compile_result ?(provider = fun _ -> None) ?(file = "<input>") ~target src =
  Diag.register_source ~file src;
  let diags = Diag.collector () in
  match
    let elab =
      Elaborate.elaborate ~diags ~provider:(combined_provider provider) ~file ~target src
    in
    Typecheck.check_all elab
  with
  | Ok tu -> if Diag.has_errors diags then Stdlib.Error (Diag.to_list diags) else Ok tu
  | Stdlib.Error ds -> Stdlib.Error (Diag.to_list diags @ ds)
  | exception Ast.Syntax_error (loc, m) ->
      Stdlib.Error
        (Diag.to_list diags @ [ Diag.make ~span:(Ast.span_of_loc loc) ~code:"E0002" m ])
  | exception Elaborate.Elab_error d -> Stdlib.Error (Diag.to_list diags @ [ d ])
  | exception Typecheck.Type_error d -> Stdlib.Error (Diag.to_list diags @ [ d ])

(* Legacy string-rendering interface: raises {!Error} with every
   diagnostic rendered as text. *)
let compile ?provider ?file ~target src =
  match compile_result ?provider ?file ~target src with
  | Ok tu -> tu
  | Stdlib.Error ds -> raise (Error (Format.asprintf "%a" Diag.render_all ds))

(* Compile the built-in RV32I base ISA on its own. The base ISAs are
   compiled from immutable bundled sources and requested from dozens of
   call sites (every flow compile consults the base instruction list), so
   both units are memoized; the typed unit is immutable and interpreter
   state lives elsewhere, making sharing safe. *)
let rv32i_memo = lazy (compile ~file:"RV32I.core_desc" ~target:"RV32I" Base_isa.rv32i)
let compile_rv32i () = Lazy.force rv32i_memo

(* Compile RV32I + the M standard extension (the RV32IM core). *)
let rv32im_memo = lazy (compile ~file:"RV32M.core_desc" ~target:"RV32IM" Base_isa.rv32m)
let compile_rv32im () = Lazy.force rv32im_memo
