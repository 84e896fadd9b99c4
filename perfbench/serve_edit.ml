(* serve_edit: one client on one connection, in a closed loop, against a
   warm compile daemon with one job. The seeded stream mixes two request
   classes, reported apart. Hits repeat a warm compile of a bundled ISAX
   on a seeded core subset. Misses are new work: inline source with one
   literal edited, or a bundled ISAX at a new cycle time. Every hit's
   SV/YAML must equal an in-process cold compile of the same request, and
   a seeded sample of misses is checked the same way; both checks run
   after the timed loop. *)

open Common
module Json = Server.Json

(* ---- the daemon process ---- *)

(* The bench executable doubles as the daemon: [bench daemon --socket P]. *)
let daemon_main socket =
  let srv = Server.create ~jobs:1 ~session:(Longnail.Flow.create_session ()) ~socket () in
  Server.serve srv

type daemon = { pid : int; client : Server.Client.t }

let live = ref []

let kill_daemons () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_daemons

let warm_requests () =
  let cores = Inputs.core_slugs () in
  List.map
    (fun (e : Isax.Registry.entry) ->
      { Inputs.r_hit = true; r_isax = Some e.name; r_text = None; r_cores = cores; r_cycle_time = None })
    Isax.Registry.all

let ok_events events =
  List.for_all (fun ev -> Json.get_bool (Json.member "ok" ev) = Some true) events

let spawn cfg =
  let socket = Filename.concat out_dir (Printf.sprintf "daemon-%d.sock" (Unix.getpid ())) in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "daemon"; "--socket"; socket |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  let client = Server.Client.connect ~retries:200 ~retry_delay:0.02 socket in
  List.iteri
    (fun i r ->
      if not (ok_events (Server.Client.request client (Inputs.request_line i r))) then
        failwith "serve_edit: a warm-up compile failed")
    (warm_requests ());
  { pid; client }

let stop d =
  ignore (Server.Client.request d.client {|{"op":"shutdown"}|});
  Server.Client.close d.client;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun p -> p <> d.pid) !live

(* ---- references ---- *)

let knob_flags (r : Inputs.request) =
  match r.r_cycle_time with
  | None -> Longnail.Knob_flags.default
  | Some ct -> (
      match Longnail.Knob_flags.set Longnail.Knob_flags.default "cycle-time" (Some ct) with
      | Ok kf -> kf
      | Error m -> failwith m)

let unit_of (r : Inputs.request) =
  match (r.r_isax, r.r_text) with
  | Some name, _ -> Isax.Registry.compile_by_name name
  | None, Some (src, target) -> (
      match Coredsl.compile_result ~provider:Isax.Registry.provider ~file:"<request>" ~target src with
      | Ok tu -> tu
      | Error ds -> raise (Diag.Fatal ds))
  | None, None -> invalid_arg "unit_of"

(* The (core, digest) list an in-process cold compile gives [r]. *)
let reference (r : Inputs.request) =
  let tu = unit_of r in
  let request = Longnail.Knob_flags.request ~session:(Longnail.Flow.create_session ()) (knob_flags r) in
  List.map
    (fun slug ->
      let o = Longnail.Flow.compile_outputs request (Scaiev.Core_registry.find_exn slug).datasheet tu in
      (o.Longnail.Flow.o_core, Checks.digest_of_outputs o))
    r.r_cores

let answered events =
  List.filter_map
    (fun ev ->
      if Json.get_string (Json.member "event" ev) = Some "target" then
        Some (Option.value (Json.get_string (Json.member "core" ev)) ~default:"", Checks.digest_of_target_event ev)
      else None)
    events

(* ---- the in-process protocol step, for the traced run ---- *)

(* Requests of the stream prefix also handled in-process, so the cache
   and solver counters are read after a fixed, seeded amount of work. *)
let inproc_requests = 150

type sample = {
  s_hit : bool;
  s_ms : float;  (** roundtrip *)
  s_traced : bool;
  s_bytes : int;
  s_parse_us : float;
  s_profile : Obs.span option;
}

(* An Obs tree back from its JSON rendering. *)
let rec obs_of_json j : Obs.span =
  let metrics =
    match Json.member "metrics" j with
    | Json.Obj kvs ->
        List.rev_map
          (fun (k, v) ->
            ( k,
              match v with
              | Json.Num f when Float.is_integer f -> Obs.M_int (int_of_float f)
              | Json.Num f -> Obs.M_float f
              | Json.Str s -> Obs.M_str s
              | _ -> Obs.M_str (Json.to_string v) ))
          kvs
    | _ -> []
  in
  {
    Obs.sp_name = Option.value (Json.get_string (Json.member "name" j)) ~default:"";
    sp_elapsed_ns = Option.value (Json.get_float (Json.member "elapsed_ms" j)) ~default:0.0 *. 1e6;
    sp_metrics = metrics;
    sp_children = List.rev_map obs_of_json (Option.value (Json.get_list (Json.member "children" j)) ~default:[]);
  }

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* One traced roundtrip: send, receive every line, parse, and graft the
   daemon's profile beneath the receive span. *)
let traced_request tr ~tag client line =
  Trace.with_span tr ~tag "request" (fun () ->
      call tr "server.client_send" (fun () -> Server.Client.send client line);
      let lines =
        call tr "server.client_recv" (fun () ->
            let rec go acc =
              match Server.Client.recv client with
              | None -> failwith "serve_edit: daemon closed the connection"
              | Some l ->
                  (* the done line is the last; its event key comes right
                     after the id *)
                  let head = String.sub l 0 (min 64 (String.length l)) in
                  if contains head {|"event":"done"|} then List.rev (l :: acc) else go (l :: acc)
            in
            go [])
      in
      let t0 = now () in
      let events =
        call tr "server.json_parse" (fun () ->
            List.map (fun l -> match Json.parse l with Ok j -> j | Error m -> failwith m) lines)
      in
      let parse_us = (now () -. t0) *. 1e6 in
      let profile =
        match List.rev events with
        | last :: _ -> (
            match Json.member "profile" last with
            | Json.Null -> None
            | p ->
                let root = obs_of_json p in
                let recv = Trace.last tr "server.client_recv" in
                Trace.graft ~under:recv tr ~start:recv.Trace.start root;
                Some root)
        | [] -> None
      in
      (events, List.fold_left (fun a l -> a + String.length l) 0 lines, parse_us, profile))

(* ---- the workload ---- *)

(* Misses checked against an in-process cold compile, per run. *)
let checked_misses = 8

(* The daemon's peak RSS is read after this many requests, so it reflects
   a fixed amount of work rather than how many requests the host managed
   in the run; every run sends at least this many. *)
let rss_requests = 300

(* Set-up is a daemon spawn plus its warm-up; it is repeated and the
   last daemon serves the measurement. *)
let setup_daemon cfg =
  let times = ref [] and last = ref None in
  for _ = 1 to 3 do
    Option.iter stop !last;
    let t0 = now () in
    last := Some (spawn cfg);
    times := (now () -. t0) :: !times
  done;
  (Stats.median !times, Option.get !last)

type inproc = {
  srv : Server.t;
  socket : string;
  mutable handle_us : float list;
  mutable key_us : float list;
  mutable frontend_ms : float list;
  mutable gcs : gc_delta list;
  units : (string, Coredsl.Tast.tunit) Hashtbl.t;
}

(* A second server in this process, warmed like the daemon, whose
   protocol step is called directly (no socket traffic). *)
let inproc_server cfg =
  let socket = Filename.concat out_dir (Printf.sprintf "inproc-%d.sock" (Unix.getpid ())) in
  let srv = Server.create ~jobs:1 ~session:(Longnail.Flow.create_session ()) ~socket () in
  List.iteri (fun i r -> ignore (Server.handle_line srv (Inputs.request_line i r))) (warm_requests ());
  { srv; socket; handle_us = []; key_us = []; frontend_ms = []; gcs = []; units = Hashtbl.create 16 }

let inproc_step ip (r : Inputs.request) line =
  let t0 = now () in
  let _, gc = with_gc (fun () -> Server.handle_line ip.srv line) in
  if r.r_hit then ip.handle_us <- ((now () -. t0) *. 1e6) :: ip.handle_us;
  ip.gcs <- gc :: ip.gcs;
  let session = Server.session ip.srv in
  match (r.r_hit, r.r_isax, r.r_text) with
  | true, Some name, _ ->
      (* a unit of our own, so the session's frontend counters only see
         the requests *)
      let tu =
        match Hashtbl.find_opt ip.units name with
        | Some tu -> tu
        | None ->
            let tu = Isax.Registry.compile_by_name name in
            Hashtbl.add ip.units name tu;
            tu
      in
      let core = (Scaiev.Core_registry.find_exn (List.hd r.r_cores)).datasheet in
      let t0 = now () in
      ignore (Longnail.Flow.target_key session Longnail.Flow.default_knobs core tu);
      ip.key_us <- ((now () -. t0) *. 1e6) :: ip.key_us
  | false, None, Some _ ->
      let t0 = now () in
      ignore (unit_of r);
      ip.frontend_ms <- ((now () -. t0) *. 1000.0) :: ip.frontend_ms
  | _ -> ()

let run cfg =
  let tally = tally () in
  let tr = Trace.create cfg.trace in
  let setup_s, daemon = setup_daemon cfg in
  let ip = if cfg.trace then Some (inproc_server cfg) else None in
  let next = Inputs.serve_stream cfg.seed in
  let samples = ref [] and hits = ref [] and misses = ref [] in
  let t_end = now () +. cfg.seconds in
  let i = ref 0 in
  let rss = ref nan in
  let host = Host.create () and next_sample = ref 0.0 in
  while now () < t_end || !i < rss_requests do
    if now () >= !next_sample then begin
      Host.sample host;
      next_sample := now () +. Host.every
    end;
    let r = next () in
    let traced = cfg.trace && !i mod 2 = 1 in
    let line = Inputs.request_line ~profile:traced !i r in
    let t0 = now () in
    let events, bytes, parse_us, profile =
      if traced then traced_request tr ~tag:(Printf.sprintf "request-%d" !i) daemon.client line
      else (Server.Client.request daemon.client line, 0, 0.0, None)
    in
    let ms = (now () -. t0) *. 1000.0 in
    samples :=
      { s_hit = r.r_hit; s_ms = ms; s_traced = traced; s_bytes = bytes; s_parse_us = parse_us; s_profile = profile }
      :: !samples;
    let got = answered events in
    if not (ok_events events) then record tally [ Printf.sprintf "request %d (%s) failed" !i (if r.r_hit then "hit" else "miss") ]
    else if r.r_hit then hits := (r, got) :: !hits
    else misses := (r, got) :: !misses;
    (match ip with
    | Some ip when !i < inproc_requests -> inproc_step ip r (Inputs.request_line !i r)
    | _ -> ());
    incr i;
    if !i = rss_requests then rss := peak_rss_mb ~pid:daemon.pid ()
  done;
  let rss = !rss in
  stop daemon;
  (* outside the timed loop: hits against cold compiles of their (isax,
     core) pairs, and a seeded sample of misses likewise *)
  let cold = Hashtbl.create 64 in
  let cold_digest isax slug =
    match Hashtbl.find_opt cold (isax, slug) with
    | Some d -> d
    | None ->
        let d =
          List.hd (reference { Inputs.r_hit = true; r_isax = Some isax; r_text = None; r_cores = [ slug ]; r_cycle_time = None })
        in
        Hashtbl.add cold (isax, slug) d;
        d
  in
  List.iter
    (fun ((r : Inputs.request), got) ->
      let isax = Option.get r.r_isax in
      record tally
        (Checks.check_response ~label:isax ~expected:(List.map (cold_digest isax) r.r_cores) got))
    (List.rev !hits);
  let st = Inputs.rng cfg.seed 5 in
  let sample = List.filteri (fun i _ -> i < checked_misses) (Inputs.shuffle st (List.rev !misses)) in
  List.iter
    (fun ((r : Inputs.request), got) ->
      record tally (Checks.check_response ~label:"miss" ~expected:(reference r) got))
    sample;
  List.iter (fun _ -> record tally []) (List.filteri (fun i _ -> i >= checked_misses) !misses);
  Option.iter (fun ip -> Unix.unlink ip.socket) ip;
  let samples = List.rev !samples in
  let pick ~hit ~traced = List.filter (fun s -> s.s_hit = hit && s.s_traced = traced) samples in
  let ms l = List.map (fun s -> s.s_ms) l in
  let hit_ms = ms (pick ~hit:true ~traced:false) and miss_ms = ms (pick ~hit:false ~traced:false) in
  let untraced = hit_ms @ miss_ms in
  let per_s l = float_of_int (List.length l) /. (Stats.sum l /. 1000.0) in
  (* requests per second of roundtrip time over the whole stream; it
     depends on the chosen hit/miss mix, so it is printed, not bounded *)
  let rps = per_s untraced in
  let named =
    [
      metric "serve_hit_p50_ms" "ms" (Stats.percentile 50.0 hit_ms);
      metric "serve_hit_p99_ms" "ms" (Stats.percentile 99.0 hit_ms);
      metric "serve_miss_p50_ms" "ms" (Stats.percentile 50.0 miss_ms);
      metric "serve_miss_p90_ms" "ms" (Stats.percentile 90.0 miss_ms);
      metric "serve_rps" "1/s" rps;
    ]
  in
  let metrics, counters =
    if not cfg.trace then
      ( [
          metric "setup_s" "s" (setup_s *. Host.factor host);
          metric "peak_rss_mb" "MB" rss;
          (* the bounded figures do not depend on the mix: the hit median,
             and misses completed per second of miss roundtrip time *)
          metric "op_p50_ms" "ms" (Stats.median hit_ms *. Host.factor host);
          metric "rate_per_s" "1/s" (per_s miss_ms /. Host.factor host);
        ],
        [] )
    else
      let ip = Option.get ip in
      let session = Server.session ip.srv in
      let traced_hits = pick ~hit:true ~traced:true in
      let traced_misses = pick ~hit:false ~traced:true in
      let profiles l = List.filter_map (fun s -> s.s_profile) l in
      let miss_layers = List.map (fun p -> Layers.compile_layers [ p ]) (profiles traced_misses) in
      let layers = layer_medians miss_layers @ Layers.lp_layers session @ Layers.cache_layers session in
      let roundtrip_us = Stats.median (List.map (fun ms -> ms *. 1000.0) hit_ms) in
      let handle_us = Stats.median ip.handle_us in
      ( layers
        @ [
            metric "coredsl.frontend_ms" "ms" (Stats.median ip.frontend_ms);
            metric "coredsl.source_bytes" "bytes"
              (Stats.median
                 (List.filter_map
                    (fun ((r : Inputs.request), _) -> Option.map (fun (src, _) -> float_of_int (String.length src)) r.r_text)
                    !misses));
            metric "cache.target_key_us" "us" (Stats.median ip.key_us);
            metric "server.handle_us" "us" handle_us;
            metric "server.roundtrip_us" "us" roundtrip_us;
            metric "server.transport_us" "us" (roundtrip_us -. handle_us);
            metric "server.response_bytes" "bytes" (Stats.median (List.map (fun s -> float_of_int s.s_bytes) traced_hits));
            metric "server.json_parse_us" "us" (Stats.median (List.map (fun s -> s.s_parse_us) traced_hits));
          ]
        @ gc_metrics ip.gcs
        @ trace_metrics tr ~untraced:hit_ms ~traced:(ms traced_hits),
        Layers.counters_of (Layers.lp_layers session @ Layers.cache_layers session) [ "lp."; "cache." ] )
  in
  let n_hit = List.length hit_ms and n_miss = List.length miss_ms in
  ( {
      tally;
      metrics;
      named;
      counters;
      report =
        [
          timing_line "serve_hit_ms" ~unit_:"ms" hit_ms;
          timing_line "serve_miss_ms" ~unit_:"ms" miss_ms;
          Host.describe host;
          Printf.sprintf "requests: %d hits, %d misses (untraced); samples beyond p99 of hits: %d, beyond p90 of misses: %d"
            n_hit n_miss (Stats.samples_beyond 99.0 hit_ms) (Stats.samples_beyond 90.0 miss_ms);
        ];
    },
    tr )
