(* dse_sweep: every pass runs Dse.explore on sqrt_tightly / VexRiscv
   over the default cycle factors in a fresh sweep session, so neither
   the artifact stores nor the measure memo can answer from an earlier
   pass. The measure closure is the benchmark's own: it calls
   Asic.Flow.run and counts its calls, so a memo hit would show as a
   missing call. Every pass must return the first pass's point list,
   with at least three distinct points. *)

open Common

let isax = "sqrt_tightly"
let core = Scaiev.Datasheet.vexriscv

type outcome = {
  points : Longnail.Dse.point list;
  sweep : Longnail.Dse.sweep_session;
  measure_calls : int;
  measure_s : float;
  obs : Obs.span option;
}

let sweep_pass ?(tag = "") tr tu =
  let sweep = Longnail.Dse.sweep_session () in
  let calls = ref 0 and measure_s = ref 0.0 in
  let measure c =
    incr calls;
    let t0 = now () in
    let r = call tr "asic.measure" (fun () -> Asic.Flow.run ~isax_name:isax c) in
    measure_s := !measure_s +. (now () -. t0);
    (r.Asic.Flow.area_overhead_pct, r.Asic.Flow.achieved_freq_mhz)
  in
  let obs = if Trace.enabled tr then Some (Obs.create ~name:"explore" ()) else None in
  let request = Longnail.Flow.Request.make ?obs () in
  let points =
    Trace.with_span tr ~tag "pass" (fun () ->
        call tr ?obs "longnail.dse_explore" (fun () -> Longnail.Dse.explore ~sweep ~request ~measure core tu))
  in
  { points; sweep; measure_calls = !calls; measure_s = !measure_s; obs = Option.map Obs.root obs }

let memo_hits (o : outcome) = (Cache.Store.stats o.sweep.Longnail.Dse.ss_measure).Cache.Store.hits

type kept = {
  k_points : Longnail.Dse.point list;
  k_counters : (string * int) list;
  k_layers : metric list;
}

let run cfg =
  let tally = tally () in
  let off = Trace.create false and tr = Trace.create true in
  (* the sweep's inputs are fixed (one ISAX, one core, the default grid);
     the seed only enters through the ledger key *)
  let setup_s, tu =
    setup (fun () ->
        let tu = Isax.Registry.compile_by_name isax in
        ignore (sweep_pass off tu);
        tu)
  in
  let reference = ref None in
  let after ~traced o =
    let ref_points = match !reference with Some r -> r | None -> o.points in
    reference := Some ref_points;
    record tally (Checks.check_sweep ~reference:ref_points ~memo_hits:(memo_hits o) o.points);
    let pareto = List.length (List.filter (fun (p : Longnail.Dse.point) -> p.dp_pareto) o.points) in
    let flow = o.sweep.Longnail.Dse.ss_flow in
    let layers =
      if not traced then []
      else
        Layers.compile_layers (Option.to_list o.obs)
        @ Layers.lp_layers flow @ Layers.cache_layers flow
        @ [
            metric "asic.measure_ms" "ms" (o.measure_s *. 1000.0);
            metric "asic.calls" "count" (float_of_int o.measure_calls);
          ]
    in
    let counters =
      [
        ("dse_pareto_points", pareto);
        ("dse_points", List.length o.points);
        ("asic.calls", o.measure_calls);
        ("asic.memo_hits", memo_hits o);
      ]
      @ Layers.counters_of (Layers.lp_layers flow @ Layers.cache_layers flow) [ "lp."; "cache." ]
    in
    { k_points = o.points; k_counters = counters; k_layers = layers }
  in
  let host = Host.create () in
  let ps = passes cfg ~host ~after ~run:(fun ~traced i -> sweep_pass ~tag:(Printf.sprintf "pass-%d" i) (if traced then tr else off) tu) in
  same_counters tally "dse_sweep" (List.map (fun p -> p.value.k_counters) ps);
  let first = (List.hd ps).value in
  let untraced = untraced_only ps and traced = traced_only ps in
  let secs l = List.map (fun p -> p.seconds) l in
  let named =
    [
      metric "dse_sweep_s" "s" (Stats.median (secs untraced));
      metric "dse_pareto_points" "count" (float_of_int (List.assoc "dse_pareto_points" first.k_counters));
    ]
  in
  let metrics, counters =
    if not cfg.trace then
      ( [
          metric "setup_s" "s" (setup_s *. Host.factor host);
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric "op_p50_ms" "ms" (1000.0 *. Stats.median (secs ps) *. Host.factor host);
          (* the median pass's rate, as in grid_cold *)
          metric "rate_per_s" "1/s"
            (Stats.median
               (List.map (fun p -> float_of_int (List.assoc "asic.calls" first.k_counters) /. p.seconds) ps)
            /. Host.factor host);
        ],
        first.k_counters )
    else
      let tp = List.map (fun p -> p.value) traced in
      let layers = layer_medians (List.map (fun k -> k.k_layers) tp) in
      ( layers
        @ gc_metrics (List.map (fun p -> p.gc) traced)
        @ trace_metrics tr ~untraced:(secs untraced) ~traced:(secs traced),
        first.k_counters )
  in
  ( {
      tally;
      metrics;
      named;
      counters;
      report =
        [
          timing_line "dse_sweep_s" ~unit_:"s" (secs untraced);
          Host.describe host;
          Printf.sprintf "points per sweep: %d (%d distinct, %d Pareto), asic calls per sweep: %s"
            (List.length first.k_points)
            (List.length (List.sort_uniq compare first.k_points))
            (List.assoc "dse_pareto_points" first.k_counters)
            (string_of_int (List.assoc "asic.calls" first.k_counters));
        ];
    },
    tr )
