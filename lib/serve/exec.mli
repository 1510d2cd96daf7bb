(** The one run-request executor, behind [rar serve] and the CLI engine
    verbs ([rar run], [rar bench], [rar eco]): library parse, circuit
    preparation, stage analysis and the engine run or ECO session of a
    {!Protocol.run_req}, through a {!Cache.t}. Callers render the
    result. Typed failures of every layer come back as a {!failure};
    an escaping exception (a bug, a heap-guard trip, an [on_batch]
    raise) is the caller's to handle — the server classifies it with
    {!Guard.classify}. *)

type failure = {
  kind : string;
      (** ["bad_library"], ["bad_netlist"], ["unknown_circuit"],
          ["invalid_input"], or {!Guard.kind_of_error} of an engine
          error *)
  message : string;
  batch : int option;  (** index (from 0) of the failed edit batch *)
}

val prepared :
  ?library_file:string ->
  ?bench_file:string ->
  Cache.t ->
  Protocol.run_req ->
  (string * Rar_circuits.Suite.prepared, failure) result
(** The request's prepared circuit and its cache key. The optional
    file names label parse diagnostics (["file:line:col: ..."]) only. *)

val run :
  ?library_file:string ->
  ?bench_file:string ->
  ?on_batch:
    (int ->
    Rar_netlist.Transform.Edit.t list ->
    Rar_engine.config ->
    Rar_engine.result ->
    unit) ->
  deadline:(unit -> Rar_util.Deadline.t option) ->
  Cache.t ->
  Protocol.run_req ->
  (Rar_engine.config * Rar_engine.result, failure) result
(** The final config ([c] edits applied) and result. [deadline] is
    called once the stage is ready; [None] lets a [RAR_FAULTS]
    [deadline=<ms>] profile arm inside the engine. A fresh session
    resolves each batch of the request's [edits] in order, calling
    [on_batch] with its index, the batch, the session config and the
    result; without edits, or on a warm session from the cache, only
    the empty batch is resolved and [on_batch] never fires. *)
