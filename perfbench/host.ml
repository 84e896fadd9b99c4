(* Host speed. On the shared 2-vCPU hosts this benchmark runs on, the
   same code runs two to three times as slow for minutes or hours at a
   time, and 50% slower in bursts of seconds, whatever the benchmark
   does. A fixed
   reference loop, independent of the program under test, is timed
   between the measured operations. End-to-end times are reported
   rescaled to a nominal host on which the loop takes [nominal_s], using
   the median of the samples taken during the run's timed loop; the raw
   times are printed beside them. *)

let nominal_s = 0.015

(* Fixed allocation-heavy work with a small, cache-resident working set:
   hashing into a small table, building and sorting short lists. A loop
   over a large table of boxed strings tracked the host worse: across
   runs its own time spread twice as far as the workloads' did, so the
   rescaled times spread further than the raw ones. *)
let reference_loop () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 64 in
  for i = 1 to 200_000 do
    Hashtbl.replace h (i land 255) (i * 3)
  done;
  let l = ref [] in
  for k = 1 to 30 do
    l := List.sort compare (List.init 2000 (fun i -> i * 31 * k land 1023))
  done;
  ignore (Sys.opaque_identity (!l, Hashtbl.length h));
  Unix.gettimeofday () -. t0

(* Seconds of measured work per sample: the serve loop samples this
   often, and a batch workload samples once per this much of its last
   pass, so long passes get as many samples as short ones. *)
let every = 0.25

type t = { mutable samples : float list }

(* The first run in a process is slower (the heap is still growing), so
   it is discarded. *)
let create () =
  ignore (reference_loop ());
  { samples = [] }

(* [n] timings of the reference loop (default 1), from a collected heap.
   One collection serves all [n]: a collection before each timing raised
   verify_narrow's peak RSS from 32 MB to 47-60 MB. *)
let sample ?(n = 1) t =
  Gc.full_major ();
  for _ = 1 to n do
    t.samples <- reference_loop () :: t.samples
  done

(* Multiply a measured time by this to get the nominal host's time. *)
let factor t = nominal_s /. Stats.median t.samples

let describe t =
  Printf.sprintf "host reference loop: median %.3f ms over %d samples (nominal %.1f ms), times scaled by %.4f"
    (1000.0 *. Stats.median t.samples) (List.length t.samples) (1000.0 *. nominal_s) (factor t)
