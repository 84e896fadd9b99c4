(* Closed-name-set parsing with did-you-mean suggestions, used by the
   backend selector (and anything else with a small fixed vocabulary).
   Mirrors the suggestion shape of Core_registry.resolve so "unknown
   core" and "unknown backend" read the same way. *)

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let is_prefix ~prefix s =
  String.length prefix <= String.length s && String.sub s 0 (String.length prefix) = prefix

let suggest ~names s =
  let budget = max 2 (String.length s / 3) in
  names
  |> List.filter_map (fun n ->
         let d = levenshtein s n in
         if d <= budget || is_prefix ~prefix:s n then Some (d, n) else None)
  |> List.sort compare
  |> List.filteri (fun i _ -> i < 3)
  |> List.map snd

(* [parse ~what ~choices s] resolves [s] against the closed set
   [choices]; on failure the error message lists the valid names and a
   did-you-mean hint, in the same format as Core_registry.resolve. *)
let parse ~what ~(choices : (string * 'a) list) (s : string) : ('a, string) result =
  match List.assoc_opt s choices with
  | Some v -> Ok v
  | None ->
      let names = List.map fst choices in
      let hint =
        match suggest ~names s with
        | [] -> ""
        | [ one ] -> Printf.sprintf "; did you mean '%s'?" one
        | several ->
            Printf.sprintf "; did you mean one of %s?"
              (String.concat ", " (List.map (Printf.sprintf "'%s'") several))
      in
      Error
        (Printf.sprintf "unknown %s '%s' (available: %s)%s" what s
           (String.concat ", " names) hint)
