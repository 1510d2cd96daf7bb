(** Dinic max-flow over float capacities, the engine behind
    {!Closure}. *)

type t

val create : n:int -> t
val add_edge : t -> src:int -> dst:int -> cap:float -> unit
(** Directed edge; capacities accumulate if added twice. *)

val run : ?deadline:Rar_util.Deadline.t -> t -> source:int -> sink:int -> float
(** Max-flow value. May be called once per instance. [deadline] is
    checked (phase ["maxflow"]) in the BFS and augmenting loops.
    @raise Rar_util.Deadline.Expired when it runs out. *)

val min_cut_source_side : t -> source:int -> bool array
(** After {!run}: nodes reachable from [source] in the residual
    graph. *)

val cut_capacity : t -> bool array -> float
(** Total {e original} capacity of the edges leaving the node set
    [side] — for the residual source side after {!run}, the value the
    max-flow min-cut theorem says equals the flow. *)
