module Transform = Rar_netlist.Transform
module Faults = Rar_resilience.Faults
module Engine = Rar_engine

type failure = { kind : string; message : string; batch : int option }

let ( let* ) = Result.bind
let failure ?batch (kind, message) = { kind; message; batch }

let engine_failure ?batch e =
  failure ?batch (Guard.kind_of_error e, Rar_retime.Error.to_string e)

let prepared ?library_file ?bench_file caches (req : Protocol.run_req) =
  let* libkey, lib =
    Result.map_error failure
      (Cache.library ?file:library_file caches req.library)
  in
  Result.map_error failure
    (Cache.prepared ?file:bench_file caches ~libkey ~lib ~circuit:req.circuit
       ~bench:req.bench)

(* Library parse, circuit preparation, edit-script parse and stage
   analysis: each layer answers with a [(kind, message)] pair, and the
   caches make every one of them a lookup on a repeat. *)
let setup ?library_file ?bench_file caches (req : Protocol.run_req) =
  let* circuit_key, prep = prepared ?library_file ?bench_file caches req in
  let* batches =
    match req.edits with
    | None -> Ok []
    | Some text ->
      Result.map_error
        (fun e -> failure ("invalid_input", e))
        (Transform.Edit.parse_script text)
  in
  let* stage_key, stage =
    Result.map_error failure
      (Cache.stage caches ~circuit_key ~model:req.model prep)
  in
  Ok (batches, stage_key, stage)

let run ?library_file ?bench_file ?(on_batch = fun _ _ _ _ -> ()) ~deadline
    caches (req : Protocol.run_req) =
  let cfg = Protocol.config_of req in
  (* Preparation and stage analysis fan out over the pool: an injected
     task kill there is a failure like one inside the engine. *)
  let* batches, stage_key, stage =
    try setup ?library_file ?bench_file caches req
    with Faults.Injected _ as e -> Error (failure (Guard.classify e))
  in
  let deadline = deadline () in
  match req.approach with
  | Engine.Movable -> (
    (* The movable engine rebuilds the two-phase netlist per move, so
       it cannot hold a warm session; it still shares the cache-wide
       LP solve cache. *)
    if batches <> [] then
      Error
        (failure
           ("invalid_input", "the movable engine cannot resolve edit scripts"))
    else
      match
        Engine.run ?deadline ~solve_cache:(Cache.solve_cache caches) cfg stage
      with
      | Ok res -> Ok (cfg, res)
      | Error e -> Error (engine_failure e))
  | Engine.Initial | Engine.Base | Engine.Grar | Engine.Vl _ ->
    (* Session checkout: a warm session cached under the request's
       final state (stage x config x edit-script digest) resolves the
       empty batch — the LP solve cache replays and the incremental
       stage is already in place. A miss opens a fresh session over
       the (cached, shared, read-only) stage and applies the edit
       batches in order. *)
    let key = Cache.session_key ~stage_key ~cfg ~edits:req.edits in
    let sess, script =
      match Cache.take_session caches key with
      | Some sess -> (sess, [])
      | None -> (Engine.open_session cfg stage, batches)
    in
    let resolve ?batch b =
      match Engine.resolve ?deadline sess b with
      | Ok res -> Ok (Engine.session_config sess, res)
      | Error e -> Error (engine_failure ?batch e)
    in
    (* A failed batch ends the script: the session's state then
       reflects only the batches that succeeded, which no cache key
       describes, so it is dropped rather than checked back in. *)
    let rec go i b rest =
      let* cfg', res = resolve ~batch:i b in
      on_batch i b cfg' res;
      match rest with
      | [] -> Ok (cfg', res)
      | b' :: rest' -> go (i + 1) b' rest'
    in
    let result =
      match script with [] -> resolve [] | b :: rest -> go 0 b rest
    in
    if Result.is_ok result then Cache.put_session caches key sess;
    result
