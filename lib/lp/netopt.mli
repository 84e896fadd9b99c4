(** Optimal solver for linear objectives over difference-constraint systems.

   Solves:   minimize    sum_i cost_i * t_i
             subject to  t_dst - t_src >= w        (difference constraints)
                         lower_i <= t_i <= upper_i
                         t integral

   This is the shape the Longnail scheduling ILP (Figure 7 of the paper)
   takes after the lifetime variables are eliminated analytically:
   at any optimum l_ij = t_j - t_i, so the objective
   "sum t_i + sum l_ij" collapses to a weighted sum of start times with
   integer node costs (1 + indegree - outdegree).

   Algorithm: the feasible set is a lattice polyhedron whose least element
   is the ASAP solution (computed by Bellman-Ford longest paths). A linear
   function restricted to such a lattice is L-natural-convex, so steepest
   ascent over "shift a closed set S by +delta" moves reaches the global
   optimum; the best improving set is a minimum-weight closed set under
   the tight-edge closure relation, found with a max-flow min-cut
   computation (Dinic). Each accepted move strictly decreases the
   objective, guaranteeing termination.

   Exactness is cross-checked against the branch-and-bound MILP solver in
   the test suite. *)

type edge = { e_src : int; e_dst : int; e_w : int; }
exception Unbounded
module Maxflow :
  sig
    type arc = {
      dst : int;
      mutable cap : int;
      mutable flow : int;
      rev : int;
    }
    type t = {
      n : int;
      adj : arc array array;
      mutable adj_build : arc list array;
    }
    val inf : int
    val create : int -> t
    val add_edge : t -> int -> int -> int -> unit
    val freeze : t -> t
    val max_flow : t -> int -> int -> int * int array
  end
val asap :
  ?rounds:int ref ->
  n:int ->
  edges:edge list ->
  lower:int array -> upper:int option array -> unit -> int array option
(** The componentwise-minimal feasible point (Bellman-Ford longest
    paths from [lower]), or [None] when the system is infeasible: a
    positive cycle, or the minimal point violates an upper bound (in
    which case every point does). [rounds] accumulates relaxation
    sweeps. *)

val solve :
  ?rounds:int ref ->
  n:int ->
  edges:edge list ->
  lower:int array ->
  upper:int option array -> cost:int array -> unit -> int array option
(** An optimal point: {!asap}, then the steepest-ascent phase.
    Deterministic: equal inputs give equal outputs. [None] when infeasible; raises {!Unbounded} when the
    objective has no lower bound. *)

val objective : cost:int array -> int array -> int
