(* Exact two-phase primal simplex over rationals.

   Dense tableau implementation with Bland's anti-cycling rule, which
   together with exact {!Rat} arithmetic guarantees termination. Problems
   produced by the Longnail scheduler have tens of variables, so the O(m*n)
   pricing per iteration is irrelevant.

   The solver works on the standard form: minimize c.x subject to the given
   rows, with all structural variables constrained to x >= 0. General bounds
   and integrality live one layer up, in {!Lp}. *)

type rel = Le | Ge | Eq

type outcome =
  | Optimal of Rat.t array * Rat.t  (* values of structural variables, objective *)
  | Infeasible
  | Unbounded

exception Iteration_limit of int

(* Pathological instances cannot cycle (Bland), but their pivot count can
   still explode combinatorially; past this budget the solve aborts with a
   structured diagnostic rather than appearing to hang. *)
let default_budget = 200_000

type tableau = {
  rows : Rat.t array array;  (* m x ncols coefficient matrix *)
  rhs : Rat.t array;  (* m *)
  basis : int array;  (* m, column basic in each row *)
  ncols : int;
}

(* Reduced costs r_j = c_j - sum_i c_B(i) * T(i,j) for all columns. *)
let reduced_costs t (c : Rat.t array) =
  let m = Array.length t.rows in
  let r = Array.copy c in
  for i = 0 to m - 1 do
    let cb = c.(t.basis.(i)) in
    if not (Rat.is_zero cb) then
      for j = 0 to t.ncols - 1 do
        if not (Rat.is_zero t.rows.(i).(j)) then
          r.(j) <- Rat.sub r.(j) (Rat.mul cb t.rows.(i).(j))
      done
  done;
  r

let objective_value t (c : Rat.t array) =
  let m = Array.length t.rows in
  let v = ref Rat.zero in
  for i = 0 to m - 1 do
    v := Rat.add !v (Rat.mul c.(t.basis.(i)) t.rhs.(i))
  done;
  !v

let pivot t ~row ~col =
  let m = Array.length t.rows in
  let pinv = Rat.inv t.rows.(row).(col) in
  for j = 0 to t.ncols - 1 do
    t.rows.(row).(j) <- Rat.mul t.rows.(row).(j) pinv
  done;
  t.rhs.(row) <- Rat.mul t.rhs.(row) pinv;
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = t.rows.(i).(col) in
      if not (Rat.is_zero f) then begin
        for j = 0 to t.ncols - 1 do
          t.rows.(i).(j) <- Rat.sub t.rows.(i).(j) (Rat.mul f t.rows.(row).(j))
        done;
        t.rhs.(i) <- Rat.sub t.rhs.(i) (Rat.mul f t.rhs.(row))
      end
    end
  done

(* Ratio test with the degenerate-ratio early exit. The tableau keeps the
   invariant rhs >= 0, so a candidate row's ratio is zero exactly when its
   rhs is zero — detected without dividing. Once any zero-ratio row is in
   hand no positive-rhs row can win, so the remaining rows are only scanned
   for further zero-rhs candidates (Bland tie-break on the smallest basic
   index) and never divided. Semantics are identical to the full scan. *)
let ratio_test t ~col =
  let m = Array.length t.rows in
  let best_row = ref (-1) and best_ratio = ref Rat.zero in
  let degenerate = ref false in
  for i = 0 to m - 1 do
    if Rat.sign t.rows.(i).(col) > 0 then
      if Rat.is_zero t.rhs.(i) then begin
        if (not !degenerate) || t.basis.(i) < t.basis.(!best_row) then best_row := i;
        degenerate := true
      end
      else if not !degenerate then begin
        let ratio = Rat.div t.rhs.(i) t.rows.(i).(col) in
        let better =
          !best_row < 0
          || Rat.lt ratio !best_ratio
          || (Rat.equal ratio !best_ratio && t.basis.(i) < t.basis.(!best_row))
        in
        if better then begin
          best_row := i;
          best_ratio := ratio
        end
      end
  done;
  !best_row

let spend ~budget ~left =
  decr left;
  if !left < 0 then raise (Iteration_limit budget)

(* Run primal simplex iterations on [t] minimizing cost vector [c].
   [banned j] marks columns that may not enter the basis (used to keep
   artificials out in phase 2). Returns [false] on unboundedness. *)
let iterate t (c : Rat.t array) ~banned ~budget ~left =
  let running = ref true and bounded = ref true in
  while !running do
    let r = reduced_costs t c in
    (* Bland: entering column = smallest index with negative reduced cost *)
    let enter = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if (not (banned j)) && Rat.sign r.(j) < 0 then begin
           enter := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !enter < 0 then running := false
    else begin
      let col = !enter in
      let row = ratio_test t ~col in
      if row < 0 then begin
        bounded := false;
        running := false
      end
      else begin
        spend ~budget ~left;
        pivot t ~row ~col;
        t.basis.(row) <- col
      end
    end
  done;
  !bounded

(* ---- the solver ------------------------------------------------------

   Column layout: structural | slack/surplus (one per Le/Ge row) |
   artificial (one per Ge/Eq row after rhs normalization). *)

let solve ?(budget = default_budget) ~(obj : Rat.t array)
    ~(rows : (Rat.t array * rel * Rat.t) list) () : outcome =
  let rows = Array.of_list rows in
  let left = ref budget in
  let nstruct = Array.length obj in
  let m = Array.length rows in
  (* normalize rhs >= 0 so the artificial basis is feasible *)
  let rows =
    Array.map
      (fun (a, rel, b) ->
        if Rat.sign b < 0 then
          (Array.map Rat.neg a, (match rel with Le -> Ge | Ge -> Le | Eq -> Eq), Rat.neg b)
        else (a, rel, b))
      rows
  in
  let n_slack =
    Array.fold_left (fun n (_, rel, _) -> match rel with Eq -> n | Le | Ge -> n + 1) 0 rows
  in
  let n_art =
    Array.fold_left (fun n (_, rel, _) -> match rel with Le -> n | Ge | Eq -> n + 1) 0 rows
  in
  let art_start = nstruct + n_slack in
  let ncols = art_start + n_art in
  let t =
    {
      rows = Array.init m (fun _ -> Array.make ncols Rat.zero);
      rhs = Array.make m Rat.zero;
      basis = Array.make m (-1);
      ncols;
    }
  in
  let slack = ref nstruct and art = ref art_start in
  Array.iteri
    (fun i (a, rel, b) ->
      Array.iteri (fun j v -> if j < nstruct then t.rows.(i).(j) <- v) a;
      t.rhs.(i) <- b;
      match rel with
      | Le ->
          t.rows.(i).(!slack) <- Rat.one;
          t.basis.(i) <- !slack;
          incr slack
      | Ge ->
          t.rows.(i).(!slack) <- Rat.minus_one;
          incr slack;
          t.rows.(i).(!art) <- Rat.one;
          t.basis.(i) <- !art;
          incr art
      | Eq ->
          t.rows.(i).(!art) <- Rat.one;
          t.basis.(i) <- !art;
          incr art)
    rows;
  let infeasible = ref false in
  (* Phase 1: minimize the sum of artificials *)
  if n_art > 0 then begin
    let c1 = Array.make ncols Rat.zero in
    for j = art_start to ncols - 1 do
      c1.(j) <- Rat.one
    done;
    ignore (iterate t c1 ~banned:(fun _ -> false) ~budget ~left);
    if Rat.sign (objective_value t c1) > 0 then infeasible := true
    else
      (* drive remaining artificials out of the basis where possible *)
      for i = 0 to m - 1 do
        if t.basis.(i) >= art_start then begin
          let piv = ref (-1) in
          (try
             for j = 0 to art_start - 1 do
               if not (Rat.is_zero t.rows.(i).(j)) then begin
                 piv := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !piv >= 0 then begin
            pivot t ~row:i ~col:!piv;
            t.basis.(i) <- !piv
          end
          (* otherwise the row is redundant (all-zero with zero rhs) *)
        end
      done
  end;
  if !infeasible then Infeasible
  else begin
    (* Phase 2 *)
    let c2 = Array.make ncols Rat.zero in
    Array.blit obj 0 c2 0 nstruct;
    let banned j = j >= art_start in
    if not (iterate t c2 ~banned ~budget ~left) then Unbounded
    else begin
      let x = Array.make nstruct Rat.zero in
      Array.iteri (fun i b -> if b >= 0 && b < nstruct then x.(b) <- t.rhs.(i)) t.basis;
      Optimal (x, objective_value t c2)
    end
  end

