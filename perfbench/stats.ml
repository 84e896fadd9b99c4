(* Order statistics over timing samples. *)

(* Linear interpolation between closest ranks, the same rule as Python's
   statistics.quantiles(method="inclusive"). *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = p /. 100.0 *. float_of_int (n - 1) in
      let lo = truncate pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

(* The highest whole percentile that still has at least ten samples above
   it, or None when there are fewer than eleven samples. *)
let tail_percentile n =
  if n < 11 then None
  else
    let rec go p =
      if p <= 50 then None
      else if float_of_int n *. (1.0 -. (float_of_int p /. 100.0)) >= 10.0 then Some p
      else go (p - 1)
    in
    go 99

let samples_beyond p xs =
  let v = percentile p xs in
  List.length (List.filter (fun x -> x > v) xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* "min=.. p25=.. median=.. p90=.. n=40": the summary printed beside
   every timing metric. *)
let describe xs =
  let n = List.length xs in
  let tail =
    match tail_percentile n with
    | Some p -> Printf.sprintf " p%d=%.4f" p (percentile (float_of_int p) xs)
    | None -> ""
  in
  Printf.sprintf "min=%.4f p25=%.4f median=%.4f%s n=%d" (percentile 0.0 xs) (percentile 25.0 xs) (median xs) tail n
