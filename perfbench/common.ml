(* What every workload shares: the run configuration, the tally of
   attempted and failed operations, metric lists, process measurements
   and the deterministic-counter ledger. *)

type config = { workload : string; seed : int; seconds : float; trace : bool }

(* Scratch directory inside the checkout: ledger, sockets and traces. *)
let out_dir = ".perfbench"

let now = Unix.gettimeofday

(* ---- operations and failures ---- *)

type tally = { mutable attempted : int; mutable failed : int; mutable messages : string list }

let tally () = { attempted = 0; failed = 0; messages = [] }

(* Count one checked operation; [errors] are its failed checks. *)
let record t errors =
  t.attempted <- t.attempted + 1;
  if errors <> [] then begin
    t.failed <- t.failed + 1;
    if List.length t.messages < 20 then t.messages <- t.messages @ errors
  end

(* ---- metrics ---- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  tally : tally;
  metrics : metric list;  (** end-to-end, or per-layer when traced *)
  named : metric list;  (** the workload's own end-to-end figures, printed *)
  report : string list;  (** distribution lines printed beside the result *)
  counters : (string * int) list;  (** must repeat exactly for a seed *)
}

(* Median over passes of a per-pass figure. *)
let median_of f passes = Stats.median (List.map f passes)

(* ---- process measurements ---- *)

let status_kb ~pid field =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.sub line 0 i = field ->
                Scanf.sscanf (String.sub line (i + 1) (String.length line - i - 1)) " %d" (fun kb ->
                    Some kb)
            | _ -> scan ())
      in
      let r = scan () in
      close_in ic;
      r

(* VmHWM, the peak resident set of a process (0 = this one), in MB. *)
let peak_rss_mb ?(pid = 0) () =
  match status_kb ~pid "VmHWM" with Some kb -> float_of_int kb /. 1024.0 | None -> nan

type gc_delta = { minor_words : float; major_words : float; major_collections : int }

let with_gc f =
  let a = Gc.quick_stat () and a_minor = Gc.minor_words () in
  let r = f () in
  let b = Gc.quick_stat () and b_minor = Gc.minor_words () in
  ( r,
    {
      minor_words = b_minor -. a_minor;
      major_words = b.Gc.major_words -. a.Gc.major_words;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

let gc_metrics gcs =
  [
    metric "gc.minor_words" "words" (median_of (fun g -> g.minor_words) gcs);
    metric "gc.major_words" "words" (median_of (fun g -> g.major_words) gcs);
    metric "gc.major_collections" "count"
      (median_of (fun g -> float_of_int g.major_collections) gcs);
  ]

(* ---- set-up and the timed loop ---- *)

(* Run [f] three times; the median duration is the set-up time and the
   last result is the one the measurement uses. Each run starts from a
   collected heap. *)
let setup f =
  let rec go i acc last =
    if i = 3 then (Stats.median acc, Option.get last)
    else begin
      Gc.full_major ();
      let t0 = now () in
      let r = f () in
      go (i + 1) ((now () -. t0) :: acc) (Some r)
    end
  in
  go 0 [] None

(* Call [pass i] until [seconds] have elapsed, at least three times. *)
let loop ~seconds pass =
  let t_end = now () +. seconds in
  let rec go i acc =
    if i >= 3 && now () >= t_end then List.rev acc else go (i + 1) (pass i :: acc)
  in
  go 0 []

(* ---- the deterministic-counter ledger ---- *)

(* A run records its counters under (program, workload, seed, trace) in
   the scratch directory; a later run of the same build with the same key
   must read back exactly the same values, otherwise each differing
   counter is a failure. The program is identified by the digest of this
   executable, so a rebuilt program starts a new ledger: across commits
   the QoR counts are guarded by Checks.check_qor instead. *)
let ledger_path cfg =
  let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  Filename.concat out_dir
    (Printf.sprintf "counters-%s-%s-%d-t%d.txt" build cfg.workload cfg.seed (if cfg.trace then 1 else 0))

let ledger_check cfg tally counters =
  let path = ledger_path cfg in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let sc = Scanf.Scanning.from_channel ic in
    let rec read acc =
      match Scanf.bscanf sc " %s %d" (fun k v -> (k, v)) with
      | kv -> read (kv :: acc)
      | exception (End_of_file | Scanf.Scan_failure _) -> acc
    in
    let earlier = read [] in
    close_in ic;
    record tally
      (List.filter_map
         (fun (k, v) ->
           match List.assoc_opt k earlier with
           | Some v0 when v0 = v -> None
           | v0 ->
               Some
                 (Printf.sprintf "counter %s = %d, an earlier run with this seed recorded %s" k v
                    (match v0 with Some x -> string_of_int x | None -> "none")))
         counters)
  end
  else begin
    let oc = open_out path in
    List.iter (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v) counters;
    close_out oc;
    record tally []
  end

(* Counters of every pass must equal those of the first. *)
let same_counters tally label per_pass =
  match per_pass with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i c ->
          let errors =
            List.filter_map
              (fun (k, v) ->
                match List.assoc_opt k first with
                | Some v0 when v0 = v -> None
                | v0 ->
                    Some
                      (Printf.sprintf "%s pass %d: counter %s = %d, first pass %s" label (i + 2) k v
                         (match v0 with Some x -> string_of_int x | None -> "absent")))
              c
          in
          record tally errors)
        rest

(* ---- passes, traced and untraced ---- *)

type 'a pass = { seconds : float; gc : gc_delta; traced : bool; value : 'a }

(* The timed loop of a batch workload. [run ~traced i] is the measured
   pass; [after] turns its result into what the run keeps, outside the
   timed region (that is where outputs are checked). Each pass follows
   samples of the host's speed into [host], one per [Host.every] seconds
   of the pass before. In a traced run every other pass is traced, so
   the untraced ones give the tracing overhead. *)
let passes (cfg : config) ~host ~run ~after =
  let last = ref 0.0 in
  loop ~seconds:cfg.seconds (fun i ->
      let traced = cfg.trace && i mod 2 = 1 in
      (* the samples leave a collected heap: no pass pays for the garbage
         of the one before *)
      Host.sample host ~n:(max 1 (truncate (!last /. Host.every)));
      let t0 = now () in
      let r, gc = with_gc (fun () -> run ~traced i) in
      let seconds = now () -. t0 in
      last := seconds;
      { seconds; gc; traced; value = after ~traced r })

(* Median over passes of each per-layer metric, named as in the first. *)
let layer_medians = function
  | [] -> []
  | first :: _ as all ->
      List.map
        (fun m ->
          metric m.m_name m.m_unit
            (Stats.median
               (List.map (fun l -> (List.find (fun x -> x.m_name = m.m_name) l).m_value) all)))
        first

let traced_only ps = List.filter (fun p -> p.traced) ps
let untraced_only ps = List.filter (fun p -> not p.traced) ps

let timing_line name ~unit_ samples = Printf.sprintf "%s [%s]: %s" name unit_ (Stats.describe samples)

(* Tracing overhead and span attribution of a traced run, over the root
   spans named "pass" or "request". *)
let trace_metrics tr ~untraced ~traced =
  let roots =
    List.filter
      (fun sp -> sp.Trace.parent = -1 && (sp.Trace.name = "pass" || sp.Trace.name = "request"))
      (Trace.spans tr)
  in
  let covered = List.map (fun sp -> 100.0 *. (1.0 -. Trace.unattributed sp)) roots in
  let base = Stats.median untraced in
  [
    metric "trace.overhead_pct" "%" (100.0 *. (Stats.median traced -. base) /. base);
    metric "trace.attributed_pct" "%" (Stats.median covered);
    metric "trace.flagged_spans" "count" (float_of_int (List.length (Trace.flagged tr)));
  ]

(* Time a public call as a benchmark span; with [obs], graft the Obs tree
   the program recorded for it. *)
let call tr ?obs name f =
  Trace.with_span tr name (fun () ->
      let t0 = now () in
      let r = f () in
      Option.iter
        (fun o ->
          Obs.finish o;
          Trace.graft tr ~start:t0 (Obs.root o))
        obs;
      r)
