(** Maximum-weight closure (project selection) by min-cut.

    The binary specialisation of the retiming LP (DESIGN.md §5): with
    retiming values restricted to [{-1, 0}], picking the set
    [Y = { v | r(v) = -1 }] under monotone implication constraints is a
    max-profit closure problem, solved exactly by one max-flow. Used as
    an independent cross-check of the network-simplex / SSP engines and
    as a fast path on large circuits. *)

type instance = {
  n : int;
  profit : float array;
    (** profit of selecting node [v]; objective is
        [maximise sum over selected] *)
  implications : (int * int) list;
    (** [(v, u)]: selecting [v] requires selecting [u] *)
  must_select : int list;
  must_reject : int list;
}

type outcome = {
  selected : bool array;
  best_profit : float;  (** total profit of the selected set *)
}

type error =
  | Contradictory
      (** a node is both forced selected and rejected (directly or
          through implications) *)
  | Uncertified of string
      (** the min-cut certificate rejected the solver's cut *)

val error_to_string : error -> string

val solve :
  ?deadline:Rar_util.Deadline.t -> instance -> (outcome, error) result
(** Every returned selection is certified: the sink is unreachable
    from the source in the residual graph, and the max-flow value
    equals the capacity of the reported cut over the original
    capacities (relative tolerance 1e-7) — so the cut is minimum and
    the closure optimal. [deadline] is checked inside the max-flow
    (phase ["maxflow"]).
    @raise Rar_util.Deadline.Expired when it runs out. *)
