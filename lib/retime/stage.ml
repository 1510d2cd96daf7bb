module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking

let src = Logs.Src.create "rar.retime.stage" ~doc:"Retiming stage analysis"

module Log = (val Logs.src_log src : Logs.LOG)

type region = Rm | Rn | Rr

type sink_class =
  | Never_ed
  | Always_ed
  | Target of { cut : int list }

(* Result of classifying one sink. The per-sink edge lists are
   returned (not pushed into shared tables) so classification can run
   on the domain pool; {!make} merges them sequentially after the
   join. *)
type classified = {
  cls : sink_class;
  mp : float;                  (* longest pure combinational path *)
  ill : (int * int) list;      (* per-edge Constraint (7) violations *)
  win : (int * int) list;      (* window edges (Target sinks only) *)
  empty_cut : bool;            (* Always_ed via an empty g(t): warn *)
  n_cone : int;                (* |cone|, for the effort counter *)
}

type t = {
  cc : Transform.comb_circuit;
  source : Netlist.t option; (* two-phase netlist the cc came from *)
  lib : Liberty.t;
  clocking : Clocking.t;
  sta : Sta.t;
  annot : float array option; (* ECO delay annotations baked into sta *)
  regions : region array;
  classes : (int * sink_class) list; (* per sink node id *)
  class_tbl : (int, sink_class) Hashtbl.t;
    (* same mapping as [classes]; O(1) lookup for the per-sink hot
       paths (Rgraph.build probes every sink, which on the list was
       O(sinks^2) per build) *)
  initial_arr : Liberty.arc array;   (* un-retimed arrivals *)
  max_paths : (int, float) Hashtbl.t;
  illegal : (int * int) list;        (* edges that can never hold a slave *)
  window : (int, (int * int) list) Hashtbl.t;
    (* per Target sink: edges whose A exceeds the period *)
  per_sink : (int * classified) array;
    (* raw classification results, in sink order — the cache
       {!patch} reuses for sinks outside an edit's affected cone *)
}

let cc t = t.cc
let source t = t.source
let annot t = t.annot
let comb t = t.cc.Transform.comb
let sta t = t.sta
let lib t = t.lib
let clocking t = t.clocking
let model t = Sta.model t.sta
let region t v = t.regions.(v)
let sinks t = Netlist.outputs (comb t)
let slave_latch t = Liberty.latch t.lib

let classify t s =
  match Hashtbl.find_opt t.class_tbl s with
  | Some c -> c
  | None -> invalid_arg "Stage.classify: not a sink node"

let illegal_edges t = t.illegal

let db_of_sink t s = Sta.backward_packed t.sta ~sink:s

let a_value t ~db ~u ~v =
  Sta.arrival_with_slave_after t.sta ~clocking:t.clocking
    ~latch:(slave_latch t) ~u ~v ~db

let initial_arrival t s = Liberty.arc_max t.initial_arr.(s)

let near_critical_endpoints t =
  let period = Clocking.period t.clocking in
  Array.fold_right
    (fun s acc ->
      if Sta.arrival_at_sink t.sta s > period then s :: acc else acc)
    (sinks t) []

let near_critical_initial t =
  let period = Clocking.period t.clocking in
  Array.fold_right
    (fun s acc -> if initial_arrival t s > period then s :: acc else acc)
    (sinks t) []

let window_edges t s =
  match Hashtbl.find_opt t.window s with
  | Some edges -> edges
  | None -> (
    match classify t s with
    | Never_ed -> []
    | Always_ed ->
      invalid_arg "Stage.window_edges: always-error-detecting sink"
    | Target _ ->
      (* Targets are populated eagerly at construction. *)
      [])

let max_path t s =
  match Hashtbl.find_opt t.max_paths s with
  | Some p -> p
  | None -> invalid_arg "Stage.max_path: not a sink node"

let fanout_groups t =
  let net = comb t in
  let acc = ref [] in
  for u = Netlist.node_count net - 1 downto 0 do
    match Netlist.kind net u with
    | Netlist.Output -> ()
    | Netlist.Input | Netlist.Gate _ | Netlist.Seq _ ->
      let fo = Netlist.fanouts net u in
      if Array.length fo > 0 then begin
        let counts = Hashtbl.create 4 in
        Array.iter
          (fun v ->
            Hashtbl.replace counts v
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
          fo;
        let groups =
          Hashtbl.fold (fun v k l -> (v, k) :: l) counts []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        acc := (u, groups) :: !acc
      end
  done;
  Array.of_list !acc

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let eps = 1e-9

let compute_regions ~sta_an ~lib ~clocking net =
  let slave = Liberty.latch lib in
  let close_limit = Clocking.slave_close clocking -. slave.Liberty.setup in
  let budget = Clocking.backward_budget clocking in
  let back_all = Sta.backward_all sta_an in
  let n = Netlist.node_count net in
  let regions = Array.make n Rr in
  let conflict = ref None in
  for v = 0 to n - 1 do
    let must_move = back_all.(v) > budget +. eps in
    let cannot_move =
      (match Netlist.kind net v with
      | Netlist.Output -> true
      | Netlist.Input | Netlist.Gate _ | Netlist.Seq _ -> false)
      || Sta.df sta_an v > close_limit +. eps
    in
    if must_move && cannot_move then
      conflict := Some (Netlist.node_name net v)
    else if must_move then regions.(v) <- Rm
    else if cannot_move then regions.(v) <- Rn
  done;
  match !conflict with
  | Some name -> Error (Error.Illegal_stage { node = name })
  | None -> Ok regions

(* Classification of one sink (paper §IV-A). While scanning every
   latch position in the cone we also record the positions that violate
   the max-delay bound for this sink (the per-edge form of Constraint
   7). Reads only the shared read-only [sta_an] (whose [backward_all]
   cache {!make} forces before fan-out) and this domain's cone scratch,
   so sinks classify in parallel. Every loop walks the sink's fan-in
   cone, never the whole netlist, and reads A(u,v) from the scratch's
   pin-indexed [slave] array: a sink costs O(|cone|) time, and
   allocates only its result lists. Iterating [asc] (ascending ids)
   fixes the order of the illegal, window and cut lists. [can_launch u]
   is the slave's own setup against the closing edge (Constraint 6 at
   u), precomputed per node by the caller. *)
let classify_sink ~sta_an ~clocking ~latch ~can_launch net s =
  let period = Clocking.period clocking in
  let limit = Clocking.max_delay clocking in
  let cv = Netlist.compact net in
  let c = Sta.backward_cone sta_an ~sink:s in
  Sta.slave_arrivals sta_an ~clocking ~latch c;
  let max_path = Sta.cone_max_path sta_an c in
  let e = c.Sta.epoch and k = c.Sta.size in
  let stamp = c.Sta.stamp and asc = c.Sta.asc and nodes = c.Sta.nodes in
  let slave = c.Sta.slave and good = c.Sta.good and bad = c.Sta.bad in
  (* First pin of [w] driven by [u]: A and the good stamp are pair
     values, equal on every such pin. *)
  let pin_from u w =
    let p = ref (Netlist.Compact.fanin_lo cv w) in
    while Netlist.Compact.fanin cv !p <> u do
      incr p
    done;
    !p
  in
  (* A position (u,v) is legal when the slave can launch from u and the
     capture meets max delay (per-edge Constraint 7); it is *good* when
     additionally the capture stays out of the resiliency window. One
     pass over every cone position records per-edge (7) violations, the
     window edges, the worst legal A, and stamps the good positions for
     the path DP below. *)
  let a_max_legal = ref neg_infinity in
  let illegal = ref [] in
  let window = ref [] in
  for i = 0 to k - 1 do
    let v = asc.(i) in
    let tg = Netlist.Compact.tag cv v in
    if tg <> Netlist.Compact.tag_input then begin
      assert (tg <> Netlist.Compact.tag_seq);
      let hi = Netlist.Compact.fanin_hi cv v in
      for p = Netlist.Compact.fanin_lo cv v to hi - 1 do
        let u = Netlist.Compact.fanin cv p in
        let a = slave.(p) in
        if a > limit +. eps then illegal := (u, v) :: !illegal
        else if a > period +. eps then window := (u, v) :: !window;
        if can_launch.(u) && a <= limit +. eps then begin
          if a > !a_max_legal then a_max_legal := a;
          if a <= period +. eps then good.(p) <- e
        end
      done
    end
  done;
  let ill = List.rev !illegal in
  (* Path DP: [bad v] = some source-to-v path passed no good position.
     The sink can be made non-error-detecting iff no bad path reaches
     it. [nodes] reversed is a forward topological order of the cone. *)
  for i = k - 1 downto 0 do
    let v = nodes.(i) in
    let tg = Netlist.Compact.tag cv v in
    if tg = Netlist.Compact.tag_input then bad.(v) <- e
    else begin
      assert (tg <> Netlist.Compact.tag_seq);
      let hi = Netlist.Compact.fanin_hi cv v in
      let p = ref (Netlist.Compact.fanin_lo cv v) in
      while !p < hi do
        let u = Netlist.Compact.fanin cv !p in
        if stamp.(u) = e && bad.(u) = e && good.(!p) <> e then begin
          bad.(v) <- e;
          p := hi
        end
        else incr p
      done
    end
  done;
  let n_cone = k in
  if bad.(s) = e then
    { cls = Always_ed; mp = max_path; ill; win = []; empty_cut = false;
      n_cone }
  else if !a_max_legal <= period +. eps then
    { cls = Never_ed; mp = max_path; ill; win = []; empty_cut = false;
      n_cone }
  else begin
    (* g(t) per Eq. 8-9, over legal positions. Condition (9) for a
       source uses the host-edge position (its worst fanout edge). *)
    let cut = ref [] in
    for i = 0 to k - 1 do
      let v = asc.(i) in
      let tg = Netlist.Compact.tag cv v in
      if tg = Netlist.Compact.tag_input || tg = Netlist.Compact.tag_gate then begin
        let ok_after = ref false in
        let fo_hi = Netlist.Compact.fanout_hi cv v in
        for p = Netlist.Compact.fanout_lo cv v to fo_hi - 1 do
          let w = Netlist.Compact.fanout cv p in
          if stamp.(w) = e && good.(pin_from v w) = e then ok_after := true
        done;
        if !ok_after then begin
          let bad_before = ref false in
          if tg = Netlist.Compact.tag_input then
            for p = Netlist.Compact.fanout_lo cv v to fo_hi - 1 do
              let w = Netlist.Compact.fanout cv p in
              if stamp.(w) = e && slave.(pin_from v w) > period +. eps then
                bad_before := true
            done
          else begin
            let fi_hi = Netlist.Compact.fanin_hi cv v in
            for p = Netlist.Compact.fanin_lo cv v to fi_hi - 1 do
              if slave.(p) > period +. eps then bad_before := true
            done
          end;
          if !bad_before then cut := v :: !cut
        end
      end
    done;
    if !cut = [] then
      { cls = Always_ed; mp = max_path; ill; win = !window; empty_cut = true;
        n_cone }
    else
      { cls = Target { cut = List.rev !cut }; mp = max_path; ill;
        win = !window; empty_cut = false; n_cone }
  end

(* [Sta.df u <= slave close - setup], per node: whether a slave placed
   after [u] meets its own setup (Constraint 6). Sink-independent, so
   computed once per {!make} / {!patch}. *)
let launch_ok ~sta_an ~clocking ~latch net =
  let close_limit = Clocking.slave_close clocking -. latch.Liberty.setup in
  Array.init (Netlist.node_count net) (fun u ->
      Sta.df sta_an u <= close_limit +. eps)

(* Σ|cone| over the sinks classified by one {!make} or {!patch}. *)
let m_cone_nodes = Rar_obs.Metrics.counter "stage_cone_nodes"

let classify_all ~sta_an ~clocking ~latch net sinks =
  let can_launch = launch_ok ~sta_an ~clocking ~latch net in
  let classified =
    Rar_util.Pool.map_adaptive sinks (fun s ->
        (s, classify_sink ~sta_an ~clocking ~latch ~can_launch net s))
  in
  Rar_obs.Metrics.add m_cone_nodes
    (Array.fold_left (fun acc (_, r) -> acc + r.n_cone) 0 classified);
  classified

(* Shared back half of {!make} and {!patch}: reject untimeable sinks,
   merge per-sink classification results sequentially in sink order
   (so the resulting tables and lists are identical for every pool
   size — and identical between a cold make and a patch), promote
   illegal-edge sources and compute the initial arrivals. *)
let finish ~cc ~source ~lib ~clocking ~sta_an ~annot ~latch ~regions
    ~classified =
  let net = cc.Transform.comb in
  let limit = Clocking.max_delay clocking in
  let too_long =
    Array.fold_left
      (fun acc s ->
        match acc with
        | Some _ -> acc
        | None ->
          if Sta.arrival_at_sink sta_an s > limit +. eps then Some s else None)
      None (Netlist.outputs net)
  in
  match too_long with
  | Some s ->
    Error (Error.Untimeable_sink { sink = Netlist.node_name net s; limit })
  | None ->
    let max_paths = Hashtbl.create 64 in
    let illegal_tbl = Hashtbl.create 64 in
    let window_tbl = Hashtbl.create 64 in
    let classes =
      Array.to_list
        (Array.map
           (fun (s, r) ->
             Hashtbl.replace max_paths s r.mp;
             List.iter (fun e -> Hashtbl.replace illegal_tbl e ()) r.ill;
             (match r.cls with
             | Target _ -> Hashtbl.replace window_tbl s r.win
             | Never_ed | Always_ed -> ());
             if r.empty_cut then
               Log.warn (fun m ->
                   m "sink %s: retiming-dependent but empty g(t); treating \
                      as always error-detecting"
                     (Netlist.node_name net s));
             (s, r.cls))
           classified)
    in
    let class_tbl = Hashtbl.create (Array.length classified * 2) in
    List.iter (fun (s, c) -> Hashtbl.replace class_tbl s c) classes;
    let illegal = Hashtbl.fold (fun e () acc -> e :: acc) illegal_tbl [] in
    (* A source whose shared initial position covers an illegal edge
       must clear its host latch: promote to V_m. *)
    List.iter
      (fun (u, _) ->
        if Netlist.kind net u = Netlist.Input && regions.(u) = Rr then
          regions.(u) <- Rm)
      illegal;
    let initial_arr =
      Sta.forward_with_latches sta_an ~clocking ~latch
        ~latched:(fun ~v ~pin ->
          let u = (Netlist.fanins net v).(pin) in
          Netlist.kind net u = Netlist.Input)
    in
    Ok { cc; source; lib; clocking; sta = sta_an; annot; regions; classes;
         class_tbl; initial_arr; max_paths; illegal; window = window_tbl;
         per_sink = classified }

let make ?(model = Sta.Path_based) ?source ?annot ~lib ~clocking cc =
  let net = cc.Transform.comb in
  let sta_an = Sta.analyse ?annot lib model net in
  let latch = Liberty.latch lib in
  match compute_regions ~sta_an ~lib ~clocking net with
  | Error _ as e -> e
  | Ok regions ->
    (* Per-sink classification is independent (each sink scans its
       own fan-in cone against the shared read-only STA), so it fans
       out across the domain pool. [backward_all]'s memo is already
       forced by [compute_regions] above; force it regardless so the
       shared [Sta.t] stays read-only inside the workers. *)
    ignore (Sta.backward_all sta_an : float array);
    (* Adaptive chunked dispatch: a sink classifies in well under a
       millisecond, so anything smaller than a few hundred sinks is
       cheaper to scan in place than to ship through the pool (waking
       a domain costs milliseconds on a contended host — the
       BENCH_eval stage_make regression). ISCAS-scale circuits
       (<= ~250 sinks) therefore stay on the sequential path; larger
       endpoint sets are cut into a few chunks per worker, so
       mid-size designs fan out instead of tripping the pool's
       task-ratio fallback the old fixed 256-sink grain hit. *)
    let classified =
      classify_all ~sta_an ~clocking ~latch net (Netlist.outputs net)
    in
    finish ~cc ~source ~lib ~clocking ~sta_an ~annot ~latch ~regions
      ~classified

let patch t (applied : Transform.Edit.applied) =
  Rar_obs.Trace.span "stage/patch" @@ fun () ->
  let net = applied.Transform.Edit.net in
  let annot = Some applied.Transform.Edit.annot in
  let cc = { t.cc with Transform.comb = net } in
  let lib = t.lib and clocking = t.clocking in
  let latch = Liberty.latch lib in
  let sta_an, changed =
    Sta.patch t.sta ~net ?annot
      ~dirty_arcs:applied.Transform.Edit.dirty_arcs
      ~seeds:applied.Transform.Edit.seeds ()
  in
  match compute_regions ~sta_an ~lib ~clocking net with
  | Error _ as e -> e
  | Ok regions ->
    (* Affected sinks: everything forward-reachable (over the edited
       netlist) from a node whose arcs, fanins or arrival changed.
       Every other sink's fan-in cone has identical structure and
       timing, so its cached classification is still exact. *)
    let cv = Netlist.compact net in
    let n = Netlist.Compact.n cv in
    let reach = Array.copy changed in
    let topo = Netlist.Compact.topo cv in
    for i = 0 to n - 1 do
      let v = topo.(i) in
      if reach.(v) then begin
        let hi = Netlist.Compact.fanout_hi cv v in
        for p = Netlist.Compact.fanout_lo cv v to hi - 1 do
          reach.(Netlist.Compact.fanout cv p) <- true
        done
      end
    done;
    let affected =
      Array.of_list
        (Array.fold_right
           (fun (s, _) acc -> if reach.(s) then s :: acc else acc)
           t.per_sink [])
    in
    ignore (Sta.backward_all sta_an : float array);
    let reclassified = classify_all ~sta_an ~clocking ~latch net affected in
    let fresh = Hashtbl.create (Array.length reclassified * 2) in
    Array.iter (fun (s, r) -> Hashtbl.replace fresh s r) reclassified;
    let classified =
      Array.map
        (fun (s, old) ->
          match Hashtbl.find_opt fresh s with
          | Some r -> (s, r)
          | None -> (s, old))
        t.per_sink
    in
    finish ~cc ~source:t.source ~lib ~clocking ~sta_an ~annot ~latch
      ~regions ~classified

let pp_summary ppf t =
  let net = comb t in
  let count pred = Array.fold_left (fun a v -> if pred v then a + 1 else a) 0 in
  let n = Netlist.node_count net in
  let ids = Array.init n (fun i -> i) in
  let never, always, target =
    List.fold_left
      (fun (nv, aw, tg) (_, c) ->
        match c with
        | Never_ed -> (nv + 1, aw, tg)
        | Always_ed -> (nv, aw + 1, tg)
        | Target _ -> (nv, aw, tg + 1))
      (0, 0, 0) t.classes
  in
  Format.fprintf ppf
    "stage %s: |Vm|=%d |Vn|=%d |Vr|=%d sinks: %d never-ed, %d always-ed, %d \
     targets"
    (Netlist.name net)
    (count (fun v -> t.regions.(v) = Rm) ids)
    (count (fun v -> t.regions.(v) = Rn) ids)
    (count (fun v -> t.regions.(v) = Rr) ids)
    never always target
