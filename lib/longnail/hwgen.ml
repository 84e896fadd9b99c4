(* Hardware generation from a scheduled lil graph (Section 4.5).

   Each graph becomes one RTL module whose interface operations turn into
   input/output ports carrying the stage number in which they are active
   (matching Figure 5d, e.g. [instr_word_2], [res_3_data]). Stallable
   pipeline registers are inserted wherever a value crosses a stage
   boundary; the registers feeding stage s+1 are gated by [stall_in_s].
   Longnail does not generate a controller: SCAIE-V's logic tracks the
   progress of the custom instruction and commits results (Section 4.5). *)

open Ir.Mir

exception Hwgen_error of Diag.t

let hw_error ?(code = "E0501") ?span fmt =
  Format.kasprintf (fun m -> raise (Hwgen_error (Diag.make ?span ~code m))) fmt

type iface_binding = {
  ib_opname : string;  (* lil op name *)
  ib_iface : string;  (* SCAIE-V sub-interface name *)
  ib_reg : string option;  (* custom register, if any *)
  ib_stage : int;
  ib_mode : Scaiev.Config.mode;
  ib_has_valid : bool;
  ib_ports : (string * string) list;  (* role ("data","valid","addr","result") -> port *)
}

type result = {
  netlist : Rtl.Netlist.t;
  bindings : iface_binding list;
  max_stage : int;
  pipe_reg_bits : int;
}

(* mode selection, Section 4.3: in-pipeline if within the native window,
   else decoupled inside spawn-blocks, else tightly-coupled *)
let select_mode (core : Scaiev.Datasheet.t) ~always (op : op) ~iface ~t : Scaiev.Config.mode =
  if always then Scaiev.Config.Always_mode
  else
    match Scaiev.Datasheet.find core iface with
    | None -> Scaiev.Config.In_pipeline
    | Some w -> (
        match w.native_latest with
        | Some l when t > l ->
            if attr_bool op "spawn" then Scaiev.Config.Decoupled else Scaiev.Config.Tightly_coupled
        | _ -> Scaiev.Config.In_pipeline)

(* Wiring operations (extract/concat/replicate and constants) have zero
   physical delay, so after scheduling we sink each one to the earliest
   stage among its consumers. This avoids pipelining narrow slices of
   values that are registered anyway and mirrors the retiming a synthesis
   tool would perform. *)
let effective_stages (bt : Sched_build.built) (g : graph) =
  let stage : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let is_wiring = function
    | "comb.extract" | "comb.concat" | "comb.replicate" | "hw.constant" -> true
    | _ -> false
  in
  let consumers : (int, op list) Hashtbl.t = Hashtbl.create 64 in
  let ops = all_ops g in
  List.iter
    (fun (op : op) ->
      List.iter
        (fun v ->
          Hashtbl.replace consumers v.vid
            (op :: Option.value ~default:[] (Hashtbl.find_opt consumers v.vid)))
        op.operands)
    ops;
  (* process in reverse topological (= reverse program) order *)
  List.iter
    (fun (op : op) ->
      match op.opname with
      | "lil.sink" -> ()
      | _ ->
          let t0 = Sched_build.start_time bt op in
          let t =
            if not (is_wiring op.opname) then t0
            else begin
              let uses =
                List.concat_map
                  (fun r -> Option.value ~default:[] (Hashtbl.find_opt consumers r.vid))
                  op.results
              in
              match uses with
              | [] -> t0
              | _ ->
                  List.fold_left
                    (fun acc (u : op) ->
                      match Hashtbl.find_opt stage u.oid with
                      | Some tu -> min acc tu
                      | None -> acc)
                    max_int uses
                  |> fun m -> if m = max_int then t0 else max t0 m
            end
          in
          Hashtbl.replace stage op.oid t)
    (List.rev ops);
  stage

let generate (core : Scaiev.Datasheet.t) (elab : Coredsl.Elaborate.elaborated)
    (bt : Sched_build.built) (g : graph) : result =
  let always = g.gkind = `Always in
  let eff_stage = effective_stages bt g in
  let stage_of (op : op) =
    match Hashtbl.find_opt eff_stage op.oid with
    | Some t -> t
    | None -> Sched_build.start_time bt op
  in
  let nodes = ref [] in
  let inputs = ref [] and outputs = ref [] in
  let stall_ports = Hashtbl.create 8 in
  let bindings = ref [] in
  let add_node n = nodes := n :: !nodes in
  let add_input name width =
    inputs := { Rtl.Netlist.port_name = name; port_width = width; port_signal = name } :: !inputs;
    name
  in
  let add_output name width signal =
    outputs := { Rtl.Netlist.port_name = name; port_width = width; port_signal = signal } :: !outputs
  in
  (* pipeline-enable for the boundary after stage s *)
  let pipe_enable s =
    match Hashtbl.find_opt stall_ports s with
    | Some en -> en
    | None ->
        let stall = add_input (Printf.sprintf "stall_in_%d" s) 1 in
        let en = Printf.sprintf "pipe_en_%d" s in
        let one = Printf.sprintf "const_one_%d" s in
        add_node
          (Rtl.Netlist.Comb
             {
               out = one;
               width = 1;
               op = "hw.constant";
               attrs = [ ("value", A_bv (Bitvec.of_int (Bitvec.unsigned_ty 1) 1)) ];
               inputs = [];
             });
        add_node (Rtl.Netlist.Comb { out = en; width = 1; op = "comb.xor"; attrs = []; inputs = [ stall; one ] });
        Hashtbl.replace stall_ports s en;
        en
  in
  (* per value: base signal name, availability stage, constancy *)
  let base_sig : (int, string * int * bool) Hashtbl.t = Hashtbl.create 64 in
  let piped : (int * int, string) Hashtbl.t = Hashtbl.create 64 in
  let pipe_bits = ref 0 in
  let define (v : value) ?(latency = 0) t name =
    Hashtbl.replace base_sig v.vid (name, t + latency, false)
  in
  let define_const (v : value) name = Hashtbl.replace base_sig v.vid (name, 0, true) in
  (* fetch the signal carrying [v] in stage [s], inserting pipeline regs *)
  let rec signal_at (v : value) s =
    let name, avail, is_const =
      match Hashtbl.find_opt base_sig v.vid with
      | Some x -> x
      | None -> hw_error "value %%%d has no signal" v.vid
    in
    if is_const || s <= avail then name
    else
      match Hashtbl.find_opt piped (v.vid, s) with
      | Some n -> n
      | None ->
          let prev = signal_at v (s - 1) in
          let n = Printf.sprintf "v%d_s%d" v.vid s in
          let w = v.vty.Bitvec.width in
          add_node
            (Rtl.Netlist.Reg
               { out = n; width = w; next = prev; enable = Some (pipe_enable (s - 1)); init = None });
          pipe_bits := !pipe_bits + w;
          Hashtbl.replace piped (v.vid, s) n;
          n
  in
  let const_one = lazy (
    let n = "const_true" in
    add_node
      (Rtl.Netlist.Comb
         {
           out = n;
           width = 1;
           op = "hw.constant";
           attrs = [ ("value", A_bv (Bitvec.of_int (Bitvec.unsigned_ty 1) 1)) ];
           inputs = [];
         });
    n)
  in
  let max_stage = ref 0 in
  let bind op ~iface ?reg ~t ~has_valid ports =
    max_stage := max !max_stage t;
    bindings :=
      {
        ib_opname = op.opname;
        ib_iface = iface;
        ib_reg = reg;
        ib_stage = t;
        ib_mode = select_mode core ~always op ~iface ~t;
        ib_has_valid = has_valid;
        ib_ports = ports;
      }
      :: !bindings
  in
  List.iter
    (fun (op : op) ->
      match op.opname with
      | "lil.sink" -> ()
      | _ -> (
          let t = stage_of op in
          max_stage := max !max_stage t;
          let has_pred = attr_bool op "has_pred" in
          let pred_signal ~n_data =
            if has_pred then signal_at (List.nth op.operands n_data) t
            else Lazy.force const_one
          in
          match op.opname with
          | "lil.instr_word" ->
              let r = List.hd op.results in
              let p = add_input (Printf.sprintf "instr_word_%d" t) r.vty.Bitvec.width in
              define r t p;
              bind op ~iface:"RdInstr" ~t ~has_valid:false [ ("data", p) ]
          | "lil.read_rs1" | "lil.read_rs2" | "lil.read_pc" ->
              let r = List.hd op.results in
              let base =
                match op.opname with
                | "lil.read_rs1" -> "rs1"
                | "lil.read_rs2" -> "rs2"
                | _ -> "pc"
              in
              let p = add_input (Printf.sprintf "%s_%d" base t) r.vty.Bitvec.width in
              define r t p;
              bind op
                ~iface:(match base with "rs1" -> "RdRS1" | "rs2" -> "RdRS2" | _ -> "RdPC")
                ~t ~has_valid:false [ ("data", p) ]
          | "lil.read_custreg" ->
              let reg = Option.get (attr_str op "reg") in
              let r = List.hd op.results in
              let rinfo = Coredsl.Elaborate.find_reg elab reg in
              let elems = match rinfo with Some ri -> ri.elems | None -> 1 in
              let ports = ref [] in
              if elems > 1 then begin
                let idx = List.hd op.operands in
                let pa = Printf.sprintf "rd_%s_addr_%d" reg t in
                add_output pa idx.vty.Bitvec.width (signal_at idx t);
                ports := ("addr", pa) :: !ports
              end;
              let pd = add_input (Printf.sprintf "rd_%s_data_%d" reg t) r.vty.Bitvec.width in
              define r t pd;
              bind op ~iface:("Rd" ^ reg) ~reg ~t ~has_valid:false (("data", pd) :: !ports)
          | "lil.read_mem" ->
              let r = List.hd op.results in
              let addr = List.hd op.operands in
              let pa = Printf.sprintf "mem_raddr_%d" t in
              add_output pa addr.vty.Bitvec.width (signal_at addr t);
              let pv = Printf.sprintf "mem_rvalid_%d" t in
              add_output pv 1 (pred_signal ~n_data:1);
              let lat =
                match Scaiev.Datasheet.find core "RdMem" with Some w -> w.latency | None -> 1
              in
              let pd = add_input (Printf.sprintf "mem_rdata_%d" (t + lat)) r.vty.Bitvec.width in
              define r ~latency:lat t pd;
              bind op ~iface:"RdMem" ~t ~has_valid:true
                [ ("addr", pa); ("valid", pv); ("data", pd) ]
          | "lil.write_rd" ->
              let v = List.hd op.operands in
              let pd = Printf.sprintf "res_%d_data" t in
              add_output pd v.vty.Bitvec.width (signal_at v t);
              let pv = Printf.sprintf "res_%d_valid" t in
              add_output pv 1 (pred_signal ~n_data:1);
              bind op ~iface:"WrRD" ~t ~has_valid:true [ ("data", pd); ("valid", pv) ]
          | "lil.write_pc" ->
              let v = List.hd op.operands in
              let pd = Printf.sprintf "wrpc_%d_data" t in
              add_output pd v.vty.Bitvec.width (signal_at v t);
              let pv = Printf.sprintf "wrpc_%d_valid" t in
              add_output pv 1 (pred_signal ~n_data:1);
              bind op ~iface:"WrPC" ~t ~has_valid:true [ ("data", pd); ("valid", pv) ]
          | "lil.write_custreg" ->
              let reg = Option.get (attr_str op "reg") in
              let rinfo = Coredsl.Elaborate.find_reg elab reg in
              let elems = match rinfo with Some ri -> ri.elems | None -> 1 in
              let idx = List.nth op.operands 0 in
              let v = List.nth op.operands 1 in
              let ports = ref [] in
              if elems > 1 then begin
                let pa = Printf.sprintf "wr_%s_addr_%d" reg t in
                add_output pa idx.vty.Bitvec.width (signal_at idx t);
                ports := ("addr", pa) :: !ports
              end;
              let pd = Printf.sprintf "wr_%s_data_%d" reg t in
              add_output pd v.vty.Bitvec.width (signal_at v t);
              let pv = Printf.sprintf "wr_%s_valid_%d" reg t in
              add_output pv 1 (pred_signal ~n_data:2);
              bind op ~iface:("Wr" ^ reg) ~reg ~t ~has_valid:true
                (("data", pd) :: ("valid", pv) :: !ports)
          | "lil.write_mem" ->
              let addr = List.nth op.operands 0 and v = List.nth op.operands 1 in
              let pa = Printf.sprintf "mem_waddr_%d" t in
              add_output pa addr.vty.Bitvec.width (signal_at addr t);
              let pd = Printf.sprintf "mem_wdata_%d" t in
              add_output pd v.vty.Bitvec.width (signal_at v t);
              let pv = Printf.sprintf "mem_wvalid_%d" t in
              add_output pv 1 (pred_signal ~n_data:2);
              bind op ~iface:"WrMem" ~t ~has_valid:true
                [ ("addr", pa); ("data", pd); ("valid", pv) ]
          | "lil.rom" ->
              let rom = Option.get (attr_str op "rom") in
              let r = List.hd op.results in
              let table =
                match Coredsl.Elaborate.find_reg elab rom with
                | Some { rinit = Some t; _ } -> t
                | _ -> hw_error ?span:op.oloc "ROM %s has no contents" rom
              in
              let idx = List.hd op.operands in
              let n = Printf.sprintf "v%d" r.vid in
              add_node
                (Rtl.Netlist.Rom
                   { out = n; width = r.vty.Bitvec.width; table; index = signal_at idx t });
              define r t n
          | "hw.constant" ->
              let r = List.hd op.results in
              let n = Printf.sprintf "v%d" r.vid in
              add_node
                (Rtl.Netlist.Comb
                   { out = n; width = r.vty.Bitvec.width; op = "hw.constant"; attrs = op.attrs; inputs = [] });
              define_const r n
          | comb when Ir.Comb_eval.is_comb comb ->
              let r = List.hd op.results in
              let n = Printf.sprintf "v%d" r.vid in
              add_node
                (Rtl.Netlist.Comb
                   {
                     out = n;
                     width = r.vty.Bitvec.width;
                     op = comb;
                     attrs = op.attrs;
                     inputs = List.map (fun v -> signal_at v t) op.operands;
                   });
              define r t n
          | other -> hw_error ?span:op.oloc "cannot generate hardware for op %s" other))
    g.body;
  let netlist =
    {
      Rtl.Netlist.mod_name = g.gname;
      inputs = List.rev !inputs;
      outputs = List.rev !outputs;
      nodes = List.rev !nodes;
    }
  in
  { netlist; bindings = List.rev !bindings; max_stage = !max_stage; pipe_reg_bits = !pipe_bits }
