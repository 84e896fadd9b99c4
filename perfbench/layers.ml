(* Per-layer figures read off the program's Obs trees, which the flow
   records when a request carries [~obs] (compile) or ["profile":true]
   (serve). Span and metric names are the ones bench/PIPELINE_SCHEMA.txt
   pins. *)

let named root name = List.filter (fun (s : Obs.span) -> s.Obs.sp_name = name) (Obs.all_spans root)

(* Summed wall time of every span called one of [names], in ms. *)
let ms roots names =
  List.fold_left
    (fun acc root ->
      List.fold_left
        (fun acc name ->
          List.fold_left (fun acc (s : Obs.span) -> acc +. (s.Obs.sp_elapsed_ns /. 1e6)) acc (named root name))
        acc names)
    0.0 roots

(* Summed integer metric [key] of every span called [name]. *)
let total roots name key =
  List.fold_left
    (fun acc root ->
      List.fold_left
        (fun acc s -> acc + Option.value (Obs.get_int s key) ~default:0)
        acc (named root name))
    0 roots

(* Time a span spent outside its child spans, summed over [name], in ms. *)
let self_ms roots name =
  List.fold_left
    (fun acc root ->
      List.fold_left
        (fun acc (s : Obs.span) ->
          let kids = List.fold_left (fun a (c : Obs.span) -> a +. c.Obs.sp_elapsed_ns) 0.0 (Obs.children s) in
          acc +. ((s.Obs.sp_elapsed_ns -. kids) /. 1e6))
        acc (named root name))
    0.0 roots

(* The compile layers every workload that compiles reports, per pass. *)
let compile_layers roots =
  let m = Common.metric in
  let tv_ms = self_ms roots "narrow" in
  let tv_vectors = total roots "narrow" "tv_vectors" in
  [
    m "ir.lower_ms" "ms" (ms roots [ "hlir"; "lil" ]);
    m "ir.optimize_ms" "ms" (ms roots [ "optimize" ]);
    m "ir.cse_ms" "ms" (ms roots [ "pass:cse" ]);
    m "ir.ops_after_optimize" "count" (float_of_int (total roots "optimize" "ops_after"));
    m "analysis.verify_ms" "ms" (ms roots [ "verify" ]);
    m "analysis.netcheck_ms" "ms" (ms roots [ "netcheck" ]);
    m "analysis.narrow_ms" "ms" (ms roots [ "narrow" ]);
    m "analysis.tv_ms" "ms" tv_ms;
    m "analysis.tv_vectors" "count" (float_of_int tv_vectors);
    m "analysis.tv_vectors_per_s" "1/s"
      (if tv_ms > 0.0 then float_of_int tv_vectors /. (tv_ms /. 1000.0) else 0.0);
    m "analysis.bits_removed" "bits" (float_of_int (total roots "narrow" "bits_removed"));
    m "sched.schedule_ms" "ms" (ms roots [ "schedule" ]);
    m "longnail.hwgen_ms" "ms" (ms roots [ "hwgen" ]);
    m "longnail.pipe_reg_bits" "bits" (float_of_int (total roots "hwgen" "pipe_reg_bits"));
    m "rtl.sv_emit_ms" "ms" (ms roots [ "sv_emit" ]);
    m "rtl.sv_bytes" "bytes" (float_of_int (total roots "sv_emit" "sv_bytes"));
    m "scaiev.integration_ms" "ms" (ms roots [ "config_gen"; "adapter_gen" ]);
  ]

(* Warm-start counters of a session's persistent solver instances. *)
let lp_layers session =
  let st = Longnail.Flow.session_solver_stats session in
  let m = Common.metric in
  let f = float_of_int in
  [
    m "lp.instances" "count" (f (Longnail.Flow.session_solver_count session));
    m "lp.resolves" "count" (f st.Lp.Instance.is_resolves);
    m "lp.warm_hits" "count" (f st.Lp.Instance.is_warm_hits);
    m "lp.warm_hit_ratio" "ratio"
      (if st.Lp.Instance.is_resolves = 0 then 0.0
       else f st.Lp.Instance.is_warm_hits /. f st.Lp.Instance.is_resolves);
    m "lp.bf_rounds" "count" (f st.Lp.Instance.is_bf_rounds);
    m "lp.pivots" "count" (f st.Lp.Instance.is_pivots);
    m "lp.bnb_nodes" "count" (f st.Lp.Instance.is_bnb_nodes);
  ]

(* Hit/miss counters of a session's artifact stores. *)
let cache_layers session =
  let stats = Longnail.Flow.session_stats session in
  let m = Common.metric in
  let hits = ref 0 and lookups = ref 0 in
  let per_store =
    List.concat_map
      (fun (name, (st : Cache.Store.stats)) ->
        hits := !hits + st.hits;
        lookups := !lookups + st.hits + st.misses;
        [
          m (Printf.sprintf "cache.%s.hits" name) "count" (float_of_int st.hits);
          m (Printf.sprintf "cache.%s.misses" name) "count" (float_of_int st.misses);
        ])
      stats
  in
  per_store
  @ [ m "cache.hit_ratio" "ratio" (if !lookups = 0 then 0.0 else float_of_int !hits /. float_of_int !lookups) ]

(* The counts among per-layer metrics whose names start with one of
   [names], as deterministic counters for the ledger. *)
let counters_of metrics names =
  List.filter_map
    (fun (x : Common.metric) ->
      if
        (x.m_unit = "count" || x.m_unit = "bits")
        && List.exists (fun p -> String.starts_with ~prefix:p x.m_name) names
      then
        Some (x.m_name, int_of_float x.m_value)
      else None)
    metrics

(* Pipeline-register bits of the generated hardware of every target. *)
let pipe_reg_bits compiled =
  List.fold_left
    (fun acc (_, (c : Longnail.Flow.compiled)) ->
      List.fold_left
        (fun acc (f : Longnail.Flow.compiled_functionality) -> acc + f.cf_hw.Longnail.Hwgen.pipe_reg_bits)
        acc c.funcs)
    0 compiled
