(* grid_cold: every pass compiles the bundled grid (every ISAX on every
   registered core) cold, in a fresh session, through compile_many with
   one job and narrowing off. The frontend is memoized per source within
   the pass. Each target's SV + YAML digest must equal the digest pinned
   in grid_digests.txt. *)

open Common

let frontend_key (e : Isax.Registry.entry) =
  Cache.Fp.digest (fun b ->
      Cache.Fp.add_tag b "registry";
      Cache.Fp.add_string b e.name;
      Cache.Fp.add_string b e.target;
      Cache.Fp.add_string b e.source)

type outcome = {
  compiled : (Isax.Registry.entry * Longnail.Flow.compiled) list;
  session : Longnail.Flow.session;
  frontend_s : float;
  obs : Obs.span option;
}

(* One cold compile of [targets]; [tr] records spans when tracing. *)
let compile_pass ?(tag = "") tr targets =
  let session = Longnail.Flow.create_session () in
  let frontend_s = ref 0.0 in
  let obs = if Trace.enabled tr then Some (Obs.create ~name:"compile_many" ()) else None in
  let compiled =
    Trace.with_span tr ~tag "pass" (fun () ->
        let units =
          List.map
            (fun ((e : Isax.Registry.entry), core) ->
              let t0 = now () in
              let tu =
                call tr "coredsl.frontend" (fun () ->
                    Longnail.Flow.frontend session ~key:(frontend_key e) (fun () -> Isax.Registry.compile e))
              in
              frontend_s := !frontend_s +. (now () -. t0);
              (core, tu))
            targets
        in
        let request = Longnail.Flow.Request.make ~session ?obs () in
        call tr ?obs "longnail.compile_many" (fun () -> Longnail.Flow.compile_many ~request units))
  in
  { compiled = List.map2 (fun (e, _) c -> (e, c)) targets compiled; session; frontend_s = !frontend_s; obs = Option.map Obs.root obs }

let source_bytes targets =
  List.fold_left
    (fun acc (e : Isax.Registry.entry) -> acc + String.length e.source)
    0
    (List.sort_uniq compare (List.map fst targets))

type kept = { k_counters : (string * int) list; k_layers : metric list; k_frontend_ms : float }

let run cfg =
  let tally = tally () in
  let pinned = Checks.read_pinned Checks.digests_file in
  let off = Trace.create false and tr = Trace.create true in
  let setup_s, targets =
    setup (fun () ->
        let targets = Inputs.grid cfg.seed in
        ignore (compile_pass off targets);
        targets)
  in
  let after ~traced o =
    List.iter
      (fun ((e : Isax.Registry.entry), (c : Longnail.Flow.compiled)) ->
        record tally
          (Checks.check_digest ~pinned ~isax:e.name ~core:c.core.Scaiev.Datasheet.core_name
             (Checks.digest_of_compiled c)))
      o.compiled;
    let layers =
      if traced then
        Layers.compile_layers (Option.to_list o.obs) @ Layers.lp_layers o.session @ Layers.cache_layers o.session
      else []
    in
    let counters =
      ("hw_pipe_reg_bits", Layers.pipe_reg_bits o.compiled)
      :: Layers.counters_of (Layers.lp_layers o.session @ Layers.cache_layers o.session) [ "lp."; "cache." ]
    in
    { k_counters = counters; k_layers = layers; k_frontend_ms = o.frontend_s *. 1000.0 }
  in
  let host = Host.create () in
  let ps =
    passes cfg ~host ~after ~run:(fun ~traced i ->
        compile_pass ~tag:(Printf.sprintf "pass-%d" i) (if traced then tr else off) targets)
  in
  same_counters tally "grid_cold" (List.map (fun p -> p.value.k_counters) ps);
  let first = (List.hd ps).value in
  let untraced = untraced_only ps and traced = traced_only ps in
  let secs l = List.map (fun p -> p.seconds) l in
  let named =
    [
      metric "grid_pass_s" "s" (Stats.median (secs untraced));
      metric "hw_pipe_reg_bits" "bits" (float_of_int (List.assoc "hw_pipe_reg_bits" first.k_counters));
    ]
  in
  let metrics, counters =
    if not cfg.trace then
      ( [
          metric "setup_s" "s" (setup_s *. Host.factor host);
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric "op_p50_ms" "ms" (1000.0 *. Stats.median (secs ps) *. Host.factor host);
          (* the median pass's rate: a mean over passes followed the
             host's slow bursts and spread twice as far across runs *)
          metric "rate_per_s" "1/s"
            (Stats.median (List.map (fun p -> float_of_int (List.length targets) /. p.seconds) ps)
            /. Host.factor host);
        ],
        first.k_counters )
    else
      let tp = List.map (fun p -> p.value) traced in
      let layers = layer_medians (List.map (fun k -> k.k_layers) tp) in
      ( layers
        @ [
            metric "coredsl.frontend_ms" "ms" (median_of (fun k -> k.k_frontend_ms) tp);
            metric "coredsl.source_bytes" "bytes" (float_of_int (source_bytes targets));
          ]
        @ gc_metrics (List.map (fun p -> p.gc) traced)
        @ trace_metrics tr ~untraced:(secs untraced) ~traced:(secs traced),
        first.k_counters @ Layers.counters_of layers [ "analysis.tv_vectors"; "longnail.pipe_reg_bits" ] )
  in
  ( {
      tally;
      metrics;
      named;
      counters;
      report =
        [
          timing_line "grid_pass_s" ~unit_:"s" (secs untraced);
          Printf.sprintf "targets per pass: %d" (List.length targets);
          Host.describe host;
        ];
    },
    tr )
