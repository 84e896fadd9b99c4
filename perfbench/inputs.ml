(* Seeded input generation. One seed drives everything the program sees:
   target order, program operands and array sizes, core subsets, literal
   edits and knob retunes. Each generator salts the seed so workloads do
   not share random streams. *)

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let pick st xs = List.nth xs (Random.State.int st (List.length xs))

(* Draws from [xs] in seeded permutations, so every run sees each element
   equally often. *)
let bag st xs =
  let left = ref [] in
  fun () ->
    if !left = [] then left := shuffle st xs;
    let x = List.hd !left in
    left := List.tl !left;
    x

(* ---- grid_cold ---- *)

(* The bundled grid, every ISAX on every registered core, in a seeded
   submission order. *)
let grid seed =
  let pairs =
    List.concat_map
      (fun (e : Isax.Registry.entry) ->
        List.map (fun (core : Scaiev.Datasheet.t) -> (e, core)) (Scaiev.Core_registry.datasheets ()))
      Isax.Registry.all
  in
  shuffle (rng seed 1) pairs

(* ---- verify_narrow ---- *)

(* One assembler program run on the RTL-in-the-loop executor and on the
   reference machine. [memory] is preloaded as (address, word) pairs;
   [observe] lists the word addresses compared after the run; [isax] is
   the number of custom instructions the program retires, by
   construction. *)
type program = {
  p_name : string;
  p_isax : string;  (** bundled ISAX the program needs *)
  p_asm : string;
  p_memory : (int * int) list;
  p_observe : int list;
  p_isax_instret : int;
}

let words st n = List.init n (fun _ -> Random.State.bits st land 0x7FFFFFFF)
let operand_base = 0x2000
let result_base = 0x4000

(* The Section 5.5 array sum with autoinc + zero-overhead loop, over a
   seeded array of seeded length. *)
let array_sum st =
  let n = 496 + Random.State.int st 33 in
  let values = words st n in
  {
    p_name = "array_sum";
    p_isax = "autoinc+zol";
    p_asm = Riscv.Case_study.isax_program n;
    p_memory = List.mapi (fun i v -> (0x1000 + (4 * i), v)) values;
    p_observe = [];
    p_isax_instret = n + 2;
  }

(* A loop applying one R-type custom instruction to seeded operands,
   storing every result and accumulating them. [binary] instructions read
   two consecutive operand words. *)
let operand_loop st ~name ~isax ~instr ~binary =
  let k = 62 + Random.State.int st 5 in
  let per = if binary then 2 else 1 in
  let ops = words st (k * per) in
  let asm =
    Printf.sprintf
      {|
  li a1, %d
  li a5, %d
  li a2, %d
  li a0, 0
loop:
  lw a3, 0(a1)
  lw a6, 4(a1)
  .isax %s rd=a4, rs1=a3%s
  sw a4, 0(a5)
  add a0, a0, a4
  addi a1, a1, %d
  addi a5, a5, 4
  addi a2, a2, -1
  bnez a2, loop
  ebreak
|}
      operand_base result_base k instr
      (if binary then ", rs2=a6" else "")
      (4 * per)
  in
  {
    p_name = name;
    p_isax = isax;
    p_asm = asm;
    p_memory = List.mapi (fun i v -> (operand_base + (4 * i), v)) ops @ [ (operand_base + (4 * k * per), 0) ];
    p_observe = List.init k (fun i -> result_base + (4 * i));
    p_isax_instret = k;
  }

let verify_isaxes = [ "sqrt_tightly"; "sqrt_decoupled"; "chksum"; "autoinc+zol" ]

let programs seed =
  let st = rng seed 2 in
  [
    array_sum st;
    operand_loop st ~name:"sqrt_tightly_loop" ~isax:"sqrt_tightly" ~instr:"SQRT" ~binary:false;
    operand_loop st ~name:"sqrt_decoupled_loop" ~isax:"sqrt_decoupled" ~instr:"SQRT_D" ~binary:false;
    operand_loop st ~name:"chksum_loop" ~isax:"chksum" ~instr:"CHKSUM" ~binary:true;
  ]

(* ---- serve_edit ---- *)

type request = {
  r_hit : bool;
  r_isax : string option;  (** bundled ISAX, or None for inline text *)
  r_text : (string * string) option;  (** source, instruction-set name *)
  r_cores : string list;
  r_cycle_time : string option;
}

let core_slugs () = Scaiev.Core_registry.slugs ()

let replace_first s ~needle ~by =
  let n = String.length needle in
  let rec find i =
    if i + n > String.length s then invalid_arg ("replace_first: no " ^ needle)
    else if String.sub s i n = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* The edits a user makes between two compiles: one literal inside one
   instruction's behavior or constant table, or a new cycle-time knob. *)
let edit_kinds = [ `Sparkle; `Sbox; `Chksum; `Cycle_time ]

(* Bundled ISAXes retuned by a cycle-time edit; all schedule at any
   cycle time from 0.75 to 3 core periods. *)
let retune_isaxes = [ "dotprod"; "autoinc"; "ijmp"; "chksum"; "sparkle" ]

(* The stream is built in blocks of [block] requests of which
   [block_misses] are misses at seeded positions (85% hits). The ratio is
   a chosen assumption, not a measured editor workload; the bounded serve
   metrics (hit median, misses per second of miss time) do not depend on
   it. Hit ISAXes, hit subset sizes and miss kinds are drawn from seeded
   permutations, so every run sees the same mix. *)
let block = 20
let block_misses = 3

(* The seeded request stream. [fresh] remembers every edit made so far,
   so a miss never repeats earlier work on any core. *)
let serve_stream seed =
  let st = rng seed 3 in
  let seen = Hashtbl.create 256 in
  let rec fresh make =
    let key, r = make () in
    if Hashtbl.mem seen key then fresh make
    else begin
      Hashtbl.add seen key ();
      r
    end
  in
  let slugs = core_slugs () in
  let next_isax = bag st Isax.Registry.all and next_size = bag st [ 1; 2 ] in
  let hit () =
    let e = next_isax () in
    let cores = shuffle st slugs in
    let n = next_size () in
    {
      r_hit = true;
      r_isax = Some e.Isax.Registry.name;
      r_text = None;
      r_cores = List.filteri (fun i _ -> i < n) cores;
      r_cycle_time = None;
    }
  in
  let text name target edit =
    let src = (Isax.Registry.find_exn name).Isax.Registry.source in
    fun () ->
      let needle, by = edit () in
      let core = pick st slugs in
      ( name ^ by,
        {
          r_hit = false;
          r_isax = None;
          r_text = Some (replace_first src ~needle ~by, target);
          r_cores = [ core ];
          r_cycle_time = None;
        } )
  in
  let miss = function
    | `Sparkle ->
        fresh
          (text "sparkle" "X_SPARKLE" (fun () ->
               ("0xb7e15162", Printf.sprintf "0x%08x" (Random.State.bits st land 0xFFFFFFFF))))
    | `Sbox ->
        fresh
          (text "sbox" "X_SBOX" (fun () ->
               (* the first table row, with one entry replaced *)
               let row = "0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5" in
               let entries = String.split_on_char ',' row |> List.map String.trim in
               let k = Random.State.int st (List.length entries) in
               (* a different byte than the one there, so it is new work *)
               let v = Printf.sprintf "0x%02x" ((int_of_string (List.nth entries k) + 1 + Random.State.int st 255) land 0xff) in
               (row, String.concat ", " (List.mapi (fun i e -> if i = k then v else e) entries))))
    | `Chksum ->
        fresh
          (text "chksum" "X_CHKSUM" (fun () ->
               ("0x0000FFFF", Printf.sprintf "0x%08X" (Random.State.bits st land 0xFFFFFFFF))))
    | `Cycle_time ->
        fresh (fun () ->
            let isax = pick st retune_isaxes in
            let core = pick st (Scaiev.Core_registry.all ()) in
            let factor = 0.75 +. (float_of_int (Random.State.int st 2251) /. 1000.0) in
            let ns = Scaiev.Datasheet.cycle_time_ns core.Scaiev.Core_registry.datasheet *. factor in
            let ct = Printf.sprintf "%.4f" ns in
            ( isax ^ core.Scaiev.Core_registry.slug ^ ct,
              {
                r_hit = false;
                r_isax = Some isax;
                r_text = None;
                r_cores = [ core.Scaiev.Core_registry.slug ];
                r_cycle_time = Some ct;
              } ))
  in
  let next_kind = bag st edit_kinds in
  let next_is_miss = bag st (List.init block (fun i -> i < block_misses)) in
  fun () -> if next_is_miss () then miss (next_kind ()) else hit ()

let request_line ?(profile = false) id r =
  let q = Server.Json.quote in
  let unit_ =
    match (r.r_isax, r.r_text) with
    | Some name, _ -> Printf.sprintf "\"isax\":%s" (q name)
    | None, Some (src, target) -> Printf.sprintf "\"text\":%s,\"target\":%s" (q src) (q target)
    | None, None -> invalid_arg "request_line"
  in
  let knobs =
    match r.r_cycle_time with
    | Some ct -> Printf.sprintf ",\"knobs\":{\"cycle-time\":%s}" (q ct)
    | None -> ""
  in
  Printf.sprintf "{\"id\":%d,\"op\":\"compile\",%s,\"cores\":[%s]%s%s}" id unit_
    (String.concat "," (List.map q r.r_cores))
    knobs
    (if profile then ",\"profile\":true" else "")
