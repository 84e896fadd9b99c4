(** ILP scheduler for the LongnailProblem — the formulation of Figure 7.

   Decision variables: a start time t_i per operation and a lifetime l_ij
   per dependence. The multi-criteria objective minimizes the sum of start
   times (latency) plus the sum of lifetimes (pipeline registers in the
   ISAX module). Constraints:
   (C1) t_i + latency_i <= t_j            for every dependence i->j
   (C2) l_ij >= t_j - t_i
   (C3) earliest_i <= t_i <= latest_i
   (C4) integrality / non-negativity
   (C5) t_i + latency_i + 1 <= t_j        for every chain-breaking edge

   The paper solves this with Cbc via OR-Tools. {!schedule_netflow}
   solves it exactly on the network structure of the problem;
   {!schedule_exact} (rational simplex plus branch and bound) is the
   reference oracle for it. *)

type outcome = Scheduled | Infeasible
val horizon : Problem.t -> int

val build_ilp : Problem.t -> Lp.problem * int array
(** The Figure 7 ILP and its start-time variables. *)

val schedule_exact : Problem.t -> outcome
(** Solve {!build_ilp} with {!Lp.solve}. Slow on large graphs; kept as
    the Figure 7 oracle for tests and behind {!ilp_text}. *)

val precedence_edges : Problem.t -> Lp.Netopt.edge list
(** The difference edges of constraints C1 and C5, one per dependence in
    dependence order: weight [latency src], plus 1 when the dependence is
    a chain breaker (the C5 row dominates its C1 row). Shared by every
    Bellman-Ford pass over a scheduling problem. *)

val schedule_netflow : rounds:int ref -> Problem.t -> outcome
(** The scheduling path of the flow: the Figure 7 optimum with the
    lifetimes eliminated (node costs 1 + indegree - outdegree), solved by
    {!Lp.Netopt.solve} over {!precedence_edges}. Writes the start times
    into the problem. [rounds] accumulates Bellman-Ford sweeps. *)

val schedule : Problem.t -> outcome
(** {!schedule_netflow} without a counter. *)

val ilp_text : Problem.t -> string

val ilp_size : Problem.t -> int * int
(** [(variables, constraints)] of the Figure 7 ILP for this instance,
    computed without building it (profiling must stay cheap). *)
