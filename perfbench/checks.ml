(* Output checks. Each check returns the problems it found; an empty list
   means the output is correct. The references are independent of the
   code under measurement: pinned digests taken from the seed commit, the
   ISS plus CoreDSL interpreter, an in-process cold compile, and the first
   pass of the same run. *)

(* ---- compiled artifacts ---- *)

(* Digest of one target's artifacts: every functionality's name and
   SystemVerilog, then the SCAIE-V YAML. *)
let artifact_digest funcs yaml =
  let b = Buffer.create 65536 in
  List.iter
    (fun (name, sv) ->
      Buffer.add_string b name;
      Buffer.add_char b '\x00';
      Buffer.add_string b sv;
      Buffer.add_char b '\x00')
    funcs;
  Buffer.add_string b yaml;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_of_compiled (c : Longnail.Flow.compiled) =
  artifact_digest
    (List.map (fun (f : Longnail.Flow.compiled_functionality) -> (f.cf_name, f.cf_sv)) c.funcs)
    c.config_yaml

let digest_of_outputs (o : Longnail.Flow.outputs) =
  artifact_digest (List.map (fun (f : Longnail.Flow.output_func) -> (f.of_name, f.of_sv)) o.o_funcs) o.o_yaml

(* A target event of the serve protocol, digested the same way. *)
let digest_of_target_event ev =
  let open Server.Json in
  let funcs =
    List.map
      (fun f ->
        ( Option.value (get_string (member "name" f)) ~default:"",
          Option.value (get_string (member "sv" f)) ~default:"" ))
      (Option.value (get_list (member "funcs" ev)) ~default:[])
  in
  artifact_digest funcs (Option.value (get_string (member "yaml" ev)) ~default:"")

(* Pinned digests: one "ISAX CORE DIGEST" line per grid target. *)
let digests_file = "perfbench/grid_digests.txt"

let read_pinned path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ isax; core; digest ] -> go (((isax, core), digest) :: acc)
        | _ -> go acc)
  in
  let r = go [] in
  close_in ic;
  r

let check_digest ~pinned ~isax ~core digest =
  match List.assoc_opt (isax, core) pinned with
  | Some d when d = digest -> []
  | Some d -> [ Printf.sprintf "%s on %s: artifact digest %s, pinned %s" isax core digest d ]
  | None -> [ Printf.sprintf "%s on %s: no pinned digest" isax core ]

(* ---- QoR counts pinned at the seed commit ---- *)

(* One "WORKLOAD COUNTER VALUE lower|higher" line per pinned
   quality-of-results count: the value the benchmark's first commit gave
   and which direction is better. *)
type qor_pin = { q_workload : string; q_counter : string; q_value : int; q_lower_better : bool }

let qor_pins_file = "perfbench/qor_pins.txt"

let read_qor_pins path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line when String.starts_with ~prefix:"#" line -> go acc
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ w; c; v; ("lower" | "higher") as better ] ->
            go ({ q_workload = w; q_counter = c; q_value = int_of_string v; q_lower_better = better = "lower" } :: acc)
        | _ -> go acc)
  in
  let r = go [] in
  close_in ic;
  r

(* A pinned count that got worse, or went missing, is a failure; one that
   got better passes (re-pin it to keep the gain). *)
let check_qor pins ~workload counters =
  List.filter_map
    (fun p ->
      if p.q_workload <> workload then None
      else
        match List.assoc_opt p.q_counter counters with
        | None -> Some (Printf.sprintf "QoR count %s is missing (pinned %d)" p.q_counter p.q_value)
        | Some v when if p.q_lower_better then v > p.q_value else v < p.q_value ->
            Some
              (Printf.sprintf "QoR count %s = %d, worse than the pinned %d (%s is better)" p.q_counter v
                 p.q_value
                 (if p.q_lower_better then "lower" else "higher"))
        | Some _ -> None)
    pins

(* ---- RTL-in-the-loop against the reference machine ---- *)

type arch_state = {
  regs : int array;
  pc : int;
  memory : (int * int) list;  (** observed words *)
  instret : int;
}

let rtl_state ~observe (rl : Riscv.Rtl_loop.t) =
  {
    regs = Array.init 32 (Riscv.Rtl_loop.read_gpr rl);
    pc = Riscv.Rtl_loop.read_pc rl;
    memory =
      List.map
        (fun a -> (a, Bitvec.to_int (Coredsl.Interp.read_mem rl.Riscv.Rtl_loop.st "MEM" a 4)))
        observe;
    instret = rl.Riscv.Rtl_loop.instret;
  }

let machine_state ~observe (m : Riscv.Machine.t) =
  {
    regs = Array.init 32 (Riscv.Machine.read_gpr m);
    pc = Riscv.Machine.read_pc m;
    memory = List.map (fun a -> (a, Riscv.Machine.load_word m a)) observe;
    instret = m.Riscv.Machine.instret;
  }

let check_states ~program ~rtl ~reference =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := (program ^ ": " ^ s) :: !errs) fmt in
  Array.iteri
    (fun i r -> if r <> reference.regs.(i) then err "x%d = %#x, reference %#x" i r reference.regs.(i))
    rtl.regs;
  if rtl.pc <> reference.pc then err "pc = %#x, reference %#x" rtl.pc reference.pc;
  List.iter2
    (fun (a, v) (_, w) -> if v <> w then err "mem[%#x] = %#x, reference %#x" a v w)
    rtl.memory reference.memory;
  if rtl.instret <> reference.instret then
    err "retired %d instructions, reference %d" rtl.instret reference.instret;
  List.rev !errs

(* ---- serve responses ---- *)

(* Every target of a response against the in-process cold compile of the
   same request, both as (core, digest) lists. *)
let check_response ~label ~expected got =
  if List.length expected <> List.length got then
    [ Printf.sprintf "%s: %d targets answered, %d expected" label (List.length got) (List.length expected) ]
  else
    List.concat
      (List.map2
         (fun (core, want) (core', have) ->
           if core <> core' then [ Printf.sprintf "%s: target %s answered for %s" label core' core ]
           else if want <> have then [ Printf.sprintf "%s on %s: SV/YAML differ from a cold compile" label core ]
           else [])
         expected got)

(* ---- design-space exploration ---- *)

let min_distinct_points = 3

let check_sweep ~reference ~memo_hits points =
  let distinct = List.length (List.sort_uniq compare points) in
  (if points <> reference then [ "DSE point list differs from the first pass" ] else [])
  @ (if distinct < min_distinct_points then
       [ Printf.sprintf "DSE produced %d distinct points, at least %d expected" distinct min_distinct_points ]
     else [])
  @ if memo_hits > 0 then [ Printf.sprintf "measure memo answered %d grid points" memo_hits ] else []
