(* The benchmark's own span recorder. Spans are opened around each public
   call the benchmark makes; the program's Obs tree for that call is
   grafted beneath them. Everything stays in memory until [write_chrome]
   renders a Chrome trace-event file that any trace viewer opens. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  tag : string;  (** the pass or request the span belongs to *)
  start : float;  (** seconds since the epoch *)
  mutable stop : float;
  program : bool;  (** grafted from the program's Obs tree *)
  mutable covered : float;  (** summed durations of the direct children *)
  mutable n_children : int;
}

type t = {
  on : bool;
  mutable next : int;
  mutable stack : span list;
  mutable all : span list;  (** reverse recording order *)
}

let create on = { on; next = 0; stack = []; all = [] }
let enabled t = t.on
let duration sp = sp.stop -. sp.start
let self_time sp = duration sp -. sp.covered

let add t ~name ~tag ~start ~stop ~program =
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  let sp =
    {
      id = t.next;
      name;
      parent = (match parent with Some p -> p.id | None -> -1);
      tag = (match (tag, parent) with Some g, _ -> g | None, Some p -> p.tag | None, None -> "");
      start;
      stop;
      program;
      covered = 0.0;
      n_children = 0;
    }
  in
  t.next <- t.next + 1;
  t.all <- sp :: t.all;
  sp

let close_child t sp =
  match List.find_opt (fun p -> p.id = sp.parent) t.stack with
  | Some p ->
      p.covered <- p.covered +. duration sp;
      p.n_children <- p.n_children + 1
  | None -> ()

(* [with_span t name f] times [f] as a child of the innermost open span.
   With tracing off it is just [f ()]. *)
let with_span t ?tag name f =
  if not t.on then f ()
  else begin
    let sp = add t ~name ~tag ~start:(Unix.gettimeofday ()) ~stop:0.0 ~program:false in
    t.stack <- sp :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        sp.stop <- Unix.gettimeofday ();
        t.stack <- List.tl t.stack;
        close_child t sp)
      f
  end

(* Graft the children of an Obs root beneath [under] (default: the
   innermost open span). Obs spans carry durations, not start times, so
   siblings are laid out back to back from [start]; self-times are exact
   either way. *)
let graft ?under t ~start (root : Obs.span) =
  if t.on then begin
    let saved = t.stack in
    Option.iter (fun sp -> t.stack <- sp :: t.stack) under;
    let rec place start (o : Obs.span) =
      let stop = start +. (o.Obs.sp_elapsed_ns /. 1e9) in
      let sp = add t ~name:o.Obs.sp_name ~tag:None ~start ~stop ~program:true in
      t.stack <- sp :: t.stack;
      ignore (List.fold_left place start (Obs.children o));
      t.stack <- List.tl t.stack;
      close_child t sp;
      stop
    in
    ignore (List.fold_left place start (Obs.children root));
    t.stack <- saved
  end

(* The most recently opened span called [name]. *)
let last t name = List.find (fun sp -> sp.name = name) t.all

let spans t = List.rev t.all

(* Share of a span's time that its children leave unattributed. *)
let unattributed sp =
  let d = duration sp in
  if d <= 0.0 then 0.0 else Float.max 0.0 (self_time sp) /. d

(* Benchmark spans with children that leave more than 20% of their time
   unattributed; leaves are single public calls and never flagged. *)
let flagged t =
  List.filter (fun sp -> (not sp.program) && sp.n_children > 0 && unattributed sp > 0.2) (spans t)

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span, self-time in the event args. *)
let write_chrome t ~path ~env =
  let open Server.Json in
  let all = spans t in
  let t0 = List.fold_left (fun m sp -> Float.min m sp.start) infinity all in
  let event sp =
    Obj
      [
        ("name", Str sp.name);
        ("cat", Str (if sp.program then "program" else "bench"));
        ("ph", Str "X");
        ("pid", Num 1.0);
        ("tid", Num 1.0);
        ("ts", Num ((sp.start -. t0) *. 1e6));
        ("dur", Num (duration sp *. 1e6));
        ( "args",
          Obj
            [
              ("id", Num (float_of_int sp.id));
              ("parent", Num (float_of_int sp.parent));
              ("tag", Str sp.tag);
              ("self_us", Num (self_time sp *. 1e6));
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  output_string oc (to_string (Obj (List.map (fun (k, v) -> (k, Str v)) env)));
  output_string oc ",\"traceEvents\":[";
  List.iteri
    (fun i sp ->
      if i > 0 then output_string oc ",\n";
      output_string oc (to_string (event sp)))
    all;
  output_string oc "]}\n";
  close_out oc
