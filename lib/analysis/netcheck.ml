(* Structural netlist checks: multiple drivers (E0520), combinational
   cycles (E0521) and undefined signals (E0522), with provenance back to
   the originating CoreDSL source when the caller supplies a resolver.
   [Rtl.Netlist.freeze] does the checking; this module turns its
   problems into diagnostics, and only when there are any. *)

module N = Rtl.Netlist

exception Netcheck_error of Diag.t

(* Hwgen names a signal after the SSA value it implements: "v<id>" plus an
   optional "_s<stage>" pipeline suffix. The def map is built on the first
   lookup, so a netlist that freezes never pays for it. *)
let signal_provenance (g : Ir.Mir.graph) =
  let defs = lazy (Ir.Mir.def_map g) in
  fun (signal : string) ->
    let n = String.length signal in
    if n < 2 || signal.[0] <> 'v' then None
    else begin
      let stop = ref 1 in
      while !stop < n && signal.[!stop] >= '0' && signal.[!stop] <= '9' do
        incr stop
      done;
      if !stop = 1 then None
      else
        match int_of_string_opt (String.sub signal 1 (!stop - 1)) with
        | None -> None
        | Some vid -> (
            match Hashtbl.find_opt (Lazy.force defs) vid with
            | Some (op : Ir.Mir.op) -> op.oloc
            | None -> None)
    end

let diag ?span ?(notes = []) code fmt =
  Format.kasprintf (fun m -> Diag.make ?span ~notes ~code m) fmt

let check ?what ?(provenance = fun _ -> None) (nl : N.t) =
  let what = match what with Some w -> w | None -> nl.N.mod_name in
  List.map
    (function
      | N.Duplicate_input s ->
          diag "E0520" "%s: signal '%s' is defined by two input ports" what s
      | N.Drives_input s ->
          diag ?span:(provenance s) "E0520"
            "%s: signal '%s' is driven by a node but is also an input port" what s
      | N.Multiple_drivers s ->
          diag ?span:(provenance s) "E0520" "%s: signal '%s' has multiple drivers" what s
      | N.Undefined { signal; via } ->
          diag ?span:(provenance via) "E0522" "%s: undefined signal '%s' (referenced by '%s')"
            what signal via
      | N.Comb_cycle signals ->
          let first = List.hd signals in
          let origin s (sp : Diag.span) =
            Printf.sprintf "'%s' originates at %s:%d:%d" s sp.sp_file sp.sp_line sp.sp_col
          in
          let notes = List.filter_map (fun s -> Option.map (origin s) (provenance s)) signals in
          diag ?span:(provenance first) ~notes "E0521" "%s: combinational cycle through %s" what
            (String.concat " -> " (signals @ [ first ])))
    (N.problems nl)

let freeze ?what ?provenance nl =
  try N.freeze nl
  with N.Netlist_error _ as e -> (
    match check ?what ?provenance nl with d :: _ -> raise (Netcheck_error d) | [] -> raise e)
