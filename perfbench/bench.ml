(* The repository benchmark's entry point (see README.md in this
   directory). perfbench/run.py builds it and calls

     bench run --workload W --seed N --seconds S --trace 0|1

   from the checkout root. The last line of standard output is the result
   object {"correct","attempted","failed","metrics"}. `bench selftest`
   shows that every output check fires. *)

open Perfbench

let workloads =
  [
    ("grid_cold", Grid_cold.run);
    ("verify_narrow", Verify_narrow.run);
    ("serve_edit", Serve_edit.run);
    ("dse_sweep", Dse_sweep.run);
  ]

(* The metric lists, (name, unit) in order, from BENCHMARK.json at the
   checkout root: a run reports exactly the "end_to_end" metrics, a
   traced run exactly the "per_layer" ones, 0 where the workload does not
   exercise the layer. *)
let declared key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Server.Json.parse text with
  | Error m -> failwith ("BENCHMARK.json: " ^ m)
  | Ok j ->
      List.map
        (fun m ->
          match (Server.Json.(get_string (member "name" m)), Server.Json.(get_string (member "unit" m))) with
          | Some n, Some u -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
        (Option.value (Server.Json.get_list (Server.Json.member key j)) ~default:[])

let usage () =
  prerr_endline
    "usage: bench run --workload NAME --seed N --seconds S --trace 0|1\n\
    \       bench selftest      (fault injection: every output check fires)\n\
    \       bench daemon --socket PATH\n\
    \       bench pin-digests   (prints the grid_cold digest list)";
  exit 2

let ocamlrunparam () = Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""

(* run.py passes the commit (when the checkout is a git repository) and
   the CPU it pinned the run to *)
let from_runner name = Option.value (Sys.getenv_opt name) ~default:"unknown"

(* Online CPUs of the host; run.py pins the run itself to one of them. *)
let host_cores () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
      List.length (List.filter (String.starts_with ~prefix:"processor") (String.split_on_char '\n' text))
  | exception Sys_error _ -> Domain.recommended_domain_count ()

let env (cfg : Common.config) =
  [
    ("workload", cfg.workload);
    ("seed", string_of_int cfg.seed);
    ("seconds", Printf.sprintf "%g" cfg.seconds);
    ("trace", if cfg.trace then "1" else "0");
    ("host_cores", string_of_int (host_cores ()));
    ("jobs", "1");
    ("ocaml", Sys.ocaml_version);
    ("OCAMLRUNPARAM", ocamlrunparam ());
    ("pinned_cpu", from_runner "PERFBENCH_CPU");
    ("commit", from_runner "PERFBENCH_COMMIT");
  ]

let run_workload (cfg : Common.config) =
  let run = List.assoc cfg.workload workloads in
  let expected = declared (if cfg.trace then "per_layer" else "end_to_end") in
  if not (Sys.file_exists Common.out_dir) then Sys.mkdir Common.out_dir 0o755;
  let (r : Common.result), tr = run cfg in
  Common.ledger_check cfg r.tally r.counters;
  Common.record r.tally
    (Checks.check_qor (Checks.read_qor_pins Checks.qor_pins_file) ~workload:cfg.workload r.counters);
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : Common.metric) -> m.m_name = name) r.metrics with
        | Some m -> m
        | None -> Common.metric name unit_ 0.0)
      expected
  in
  let unknown = List.filter (fun (m : Common.metric) -> not (List.mem_assoc m.m_name expected)) r.metrics in
  if unknown <> [] then begin
    Printf.eprintf "bench: metrics outside BENCHMARK.json: %s\n"
      (String.concat ", " (List.map (fun (m : Common.metric) -> m.m_name) unknown));
    exit 1
  end;
  List.iter
    (fun (m : Common.metric) ->
      if not (Float.is_finite m.m_value) then begin
        Printf.eprintf "bench: metric %s is not a finite number\n" m.m_name;
        exit 1
      end)
    metrics;
  if cfg.trace then begin
    let path = Filename.concat Common.out_dir (Printf.sprintf "trace-%s-%d.json" cfg.workload cfg.seed) in
    Trace.write_chrome tr ~path ~env:(env cfg);
    let flagged = Trace.flagged tr in
    List.iter
      (fun name ->
        let these = List.filter (fun sp -> sp.Trace.name = name) flagged in
        Printf.printf "# flagged: %d %s spans leave more than 20%% unattributed (median %.0f%%)\n"
          (List.length these) name
          (100.0 *. Stats.median (List.map Trace.unattributed these)))
      (List.sort_uniq compare (List.map (fun sp -> sp.Trace.name) flagged));
    Printf.printf "# trace written to %s\n" path
  end;
  let open Server.Json in
  List.iter
    (fun (m : Common.metric) -> Printf.printf "# %s = %s %s\n" m.m_name (number_to_string m.m_value) m.m_unit)
    r.named;
  List.iter (fun l -> Printf.printf "# %s\n" l) r.report;
  List.iter (fun m -> Printf.printf "# failure: %s\n" m) r.tally.messages;
  Printf.printf "# env %s\n" (to_string (Obj (List.map (fun (k, v) -> (k, Str v)) (env cfg))));
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (r.tally.failed = 0));
            ("attempted", Num (float_of_int r.tally.attempted));
            ("failed", Num (float_of_int r.tally.failed));
            ( "metrics",
              Obj
                (List.map
                   (fun (m : Common.metric) -> (m.m_name, Obj [ ("value", Num m.m_value); ("unit", Str m.m_unit) ]))
                   metrics) );
          ]))

let pin_digests () =
  let targets = Inputs.grid 0 in
  let o = Grid_cold.compile_pass (Trace.create false) targets in
  List.iter
    (fun ((isax, core), digest) -> Printf.printf "%s %s %s\n" isax core digest)
    (List.sort compare
       (List.map
          (fun ((e : Isax.Registry.entry), (c : Longnail.Flow.compiled)) ->
            ((e.name, c.core.Scaiev.Datasheet.core_name), Checks.digest_of_compiled c))
          o.compiled))

let () =
  (* a terminated run still stops the daemon it started (at_exit) *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  match Array.to_list Sys.argv with
  | _ :: "daemon" :: "--socket" :: socket :: [] -> Serve_edit.daemon_main socket
  | _ :: "pin-digests" :: [] -> pin_digests ()
  | _ :: "selftest" :: [] -> Selftest.run ()
  | _ :: "run" :: args ->
      let rec parse (cfg : Common.config) = function
        | "--workload" :: w :: rest -> parse { cfg with workload = w } rest
        | "--seed" :: n :: rest -> parse { cfg with seed = int_of_string n } rest
        | "--seconds" :: s :: rest -> parse { cfg with seconds = float_of_string s } rest
        | "--trace" :: "0" :: rest -> parse { cfg with trace = false } rest
        | "--trace" :: "1" :: rest -> parse { cfg with trace = true } rest
        | [] -> cfg
        | _ -> usage ()
      in
      let cfg =
        match parse { workload = ""; seed = 0; seconds = 10.0; trace = false } args with
        | cfg -> cfg
        | exception Failure _ -> usage ()
      in
      if not (List.mem_assoc cfg.workload workloads) then begin
        Printf.eprintf "bench: unknown workload %S (available: %s)\n" cfg.workload
          (String.concat ", " (List.map fst workloads));
        exit 2
      end;
      if cfg.seconds <= 0.0 then usage ();
      run_workload cfg
  | _ -> usage ()
