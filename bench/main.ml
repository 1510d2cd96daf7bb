(* Benchmark harness. One positional argument picks the mode (default
   [full]); every mode writes one rar-bench/1 document, BENCH_eval.json
   in the working directory (schema in EXPERIMENTS.md), holding only
   the sections the mode ran:

     full   scaling curve, every paper kernel, overheads, wall clock, ECO
     smoke  seconds-long kernels/overheads/wall clock/ECO subset
     scale  100k-gate classic FEAS row plus a 25k-gate G-RAR row
     eco    25k-gate G-RAR edit-and-resolve vs cold re-solve

   CI gates the smoke, scale and eco modes with
   scripts/ci_gates/bench_gate.py against bench/smoke_floor.json.

   Bechamel kernel groups of the full mode, one per table and figure:
     table_i    benchmark preparation (generate + derive clock + STA)
     table_ii   G-RAR under the gate-based vs path-based delay model
     table_iii  the three virtual-library variants
     table_iv_v base retiming vs RVL-RAR vs G-RAR (areas)
     table_vi   placement decode + verification pass
     table_vii  LP engine ablation: network simplex vs SSP vs closure
     table_viii error-rate simulation
     table_ix   movable-master local search
     fig1       clocking arithmetic (diagram rendering)
     fig4       the worked-example pipeline end to end *)

open Bechamel
open Toolkit

module Report = Rar_report.Report
module Suite = Rar_circuits.Suite
module Fig4 = Rar_circuits.Fig4
module Stage = Rar_retime.Stage
module Rgraph = Rar_retime.Rgraph
module Grar = Rar_retime.Grar
module Base = Rar_retime.Base_retiming
module Classic = Rar_retime.Classic
module Outcome = Rar_retime.Outcome
module Vl = Rar_vl.Vl
module Movable = Rar_vl.Movable
module Sim = Rar_sim.Sim
module Sta = Rar_sta.Sta
module Difflp = Rar_flow.Difflp
module Transform = Rar_netlist.Transform
module Clocking = Rar_sta.Clocking
module Engine = Rar_engine
module Json = Rar_util.Json

let ok = function
  | Ok v -> v
  | Error e -> failwith (Rar_retime.Error.to_string e)

(* Effective pool size before any section overrides it with set_jobs:
   what RAR_JOBS / the core-count default resolve to after the
   host-core clamp, recorded in the document's host header. *)
let jobs_effective = Rar_util.Pool.effective_jobs ()

let time_wall f =
  let t0 = Rar_util.Clock.now_s () in
  let r = f () in
  (r, Rar_util.Clock.now_s () -. t0)

let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* Representative circuit for the timed kernels: s1423 is the smallest
   benchmark on which every engine behaves non-trivially. *)
let ctx = Report.create ~names:[ "s1423" ] ~sim_cycles:50 ()
let circuit = "s1423"

let prepared = lazy (Report.prepared ctx circuit)
let stage_path = lazy (Report.stage ctx circuit)
let stage_gate = lazy (Report.stage ctx ~model:Sta.Gate_based circuit)

let grar_result = lazy (Report.run ctx circuit ~spec:Engine.Grar ~c:1.0)

let sim_design =
  lazy
    (let r = Lazy.force grar_result in
     let st = r.Engine.stage in
     let cc = Stage.cc st in
     let staged =
       Transform.apply_retiming cc r.Engine.outcome.Outcome.placements
     in
     let p = Lazy.force prepared in
     {
       Sim.staged;
       lib = p.Suite.lib;
       clocking = p.Suite.clocking;
       ed_sinks =
         List.map
           (fun s -> Sim.sink_of_comb ~comb:cc.Transform.comb ~staged s)
           r.Engine.outcome.Outcome.ed_sinks;
     })

let classic_graph () =
  let p = Lazy.force prepared in
  Classic.of_netlist ~host_registers:1 ~lib:p.Suite.lib p.Suite.flop_netlist

(* Min-period classic retiming from a fresh graph: the ablation kernel
   and the body of the deadline and trace overhead pairs. *)
let classic_pipeline ?deadline graph () =
  let g = graph () in
  let pmin = Classic.min_period ?deadline g in
  ignore (ok (Classic.retime ?deadline g ~period:pmin))

let tests =
  [
    Test.make ~name:"table_i/prepare" (Staged.stage (fun () ->
        ignore (Suite.load circuit)));
    Test.make ~name:"table_ii/grar_path" (Staged.stage (fun () ->
        ignore (ok (Grar.run_on_stage ~c:1.0 (Lazy.force stage_path)))));
    Test.make ~name:"table_ii/grar_gate" (Staged.stage (fun () ->
        ignore (ok (Grar.run_on_stage ~c:1.0 (Lazy.force stage_gate)))));
    Test.make ~name:"table_iii/nvl" (Staged.stage (fun () ->
        ignore (ok (Vl.run_on_stage ~c:1.0 Vl.Nvl (Lazy.force stage_path)))));
    Test.make ~name:"table_iii/evl" (Staged.stage (fun () ->
        ignore (ok (Vl.run_on_stage ~c:1.0 Vl.Evl (Lazy.force stage_path)))));
    Test.make ~name:"table_iii/rvl" (Staged.stage (fun () ->
        ignore (ok (Vl.run_on_stage ~c:1.0 Vl.Rvl (Lazy.force stage_path)))));
    Test.make ~name:"table_iv_v/base" (Staged.stage (fun () ->
        ignore (ok (Base.run_on_stage ~c:1.0 (Lazy.force stage_path)))));
    Test.make ~name:"table_vi/decode_verify" (Staged.stage (fun () ->
        let st = Lazy.force stage_path in
        let g = Rgraph.build ~edl_overhead:1.0 st in
        let r = ok (Rgraph.solve g) in
        let placements = Rgraph.placements_of g r in
        ignore (Outcome.assemble ~c:1.0 st placements)));
    Test.make ~name:"table_vii/engine_simplex" (Staged.stage (fun () ->
        let g = Rgraph.build ~edl_overhead:1.0 (Lazy.force stage_path) in
        ignore (ok (Rgraph.solve ~engine:Difflp.Network_simplex g))));
    Test.make ~name:"table_vii/engine_ssp" (Staged.stage (fun () ->
        let g = Rgraph.build ~edl_overhead:1.0 (Lazy.force stage_path) in
        ignore (ok (Rgraph.solve ~engine:Difflp.Ssp g))));
    Test.make ~name:"table_vii/engine_closure" (Staged.stage (fun () ->
        let g = Rgraph.build ~edl_overhead:1.0 (Lazy.force stage_path) in
        ignore (ok (Rgraph.solve ~engine:Difflp.Closure g))));
    Test.make ~name:"table_viii/sim_50_cycles" (Staged.stage (fun () ->
        ignore (Sim.error_rate ~cycles:50 ~seed:"bench" (Lazy.force sim_design))));
    Test.make ~name:"table_ix/movable" (Staged.stage (fun () ->
        let p = Lazy.force prepared in
        ignore
          (ok
             (Movable.run ~max_moves:2 ~lib:p.Suite.lib
                ~clocking:p.Suite.clocking ~c:1.0 p.Suite.two_phase))));
    Test.make ~name:"ablation/edl_cluster" (Staged.stage (fun () ->
        let r = Lazy.force grar_result in
        ignore
          (Rar_retime.Edl_cluster.annotate
             ~lib:(Lazy.force prepared).Suite.lib r.Engine.outcome)));
    Test.make ~name:"ablation/period_search" (Staged.stage (fun () ->
        ignore
          (Rar_retime.Period_search.min_feasible ~lib:(Fig4.library ())
             (Fig4.circuit ()))));
    Test.make ~name:"ablation/classic_retiming"
      (Staged.stage (classic_pipeline classic_graph));
    Test.make ~name:"fig1/clocking" (Staged.stage (fun () ->
        let c = Clocking.of_p 1.0 in
        ignore (Format.asprintf "%a" Clocking.pp_diagram c)));
    Test.make ~name:"fig4/worked_example" (Staged.stage (fun () ->
        ignore
          (ok
             (Grar.run ~lib:(Fig4.library ()) ~clocking:Fig4.clocking ~c:2.0
                (Fig4.circuit ())))));
  ]

(* A 150-gate generated circuit: the smoke mode's kernel, whose
   estimate CI compares against the checked-in floor
   (bench/smoke_floor.json), failing on a > 2x regression, and every
   mode's classic overhead pairs: at s1423 size (~1 s/run) each pair's
   102 runs would take close to two minutes. *)
let smoke_net =
  lazy
    (let spec =
       {
         (Option.get (Rar_circuits.Spec.find "s1196")) with
         Rar_circuits.Spec.n_gates = 150;
         depth = 8;
       }
     in
     Rar_circuits.Generator.generate spec)

let smoke_graph () =
  let lib = Rar_liberty.Liberty.default () in
  Classic.of_netlist ~host_registers:1 ~lib (Lazy.force smoke_net)

let smoke_tests =
  [
    Test.make ~name:"smoke/classic_retiming"
      (Staged.stage (classic_pipeline smoke_graph));
  ]

(* No GC stabilisation between samples: on OCaml 5.1 bechamel's
   repeated [Gc.compact] calls leave the major heap growing without
   bound afterwards — on an 8 GB, 2-core host the full mode reached
   7.8 GB at its ECO section and was killed. *)
let measure_kernels tests =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~stabilize:false ~limit:200 ~quota:(Time.second 2.0)
      ~kde:(Some 10) ()
  in
  List.concat_map
    (fun test ->
      let results =
        Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ])
      in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.fold
        (fun name ols_result acc ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Printf.printf "  %-28s %12.0f ns/run\n%!" name est;
            Json.Obj [ ("name", Json.String name); ("ns_per_run", Json.Float est) ]
            :: acc
          | _ ->
            Printf.printf "  %-28s (no estimate)\n%!" name;
            acc)
        ols [])
    tests

(* ------------------------------------------------------------------ *)
(* Instrumentation overheads                                           *)
(* ------------------------------------------------------------------ *)

(* Armed tracing and metrics around [f]; the buffers are cleared every
   run so they do not grow across iterations. *)
let with_tracing f =
  Rar_obs.Trace.clear ();
  Rar_obs.Trace.arm ();
  Rar_obs.Metrics.arm ();
  Fun.protect
    ~finally:(fun () ->
      Rar_obs.Trace.disarm ();
      Rar_obs.Metrics.disarm ();
      Rar_obs.Trace.clear ();
      Rar_obs.Metrics.reset ())
    f

(* An overhead is the armed/plain time ratio of one body. Gating the
   quotient of two separately measured estimates flakes: clock-speed
   drift between the two measurement windows reads as overhead. Each
   round here times one run of each side back to back, alternating
   which goes first, so drift hits both sides equally; the median of
   many short rounds discards the ones a host hiccup lands in. *)
let paired_ratio (plain, armed) =
  let time f = snd (time_wall f) in
  plain ();
  armed ();
  let ratio i =
    if i mod 2 = 0 then
      let p = time plain in
      let a = time armed in
      a /. Float.max 1e-9 p
    else
      let a = time armed in
      let p = time plain in
      a /. Float.max 1e-9 p
  in
  List.nth (List.sort compare (List.init 51 ratio)) 25

(* A far-future deadline exercises the strided in-loop checks at full
   frequency without ever firing. *)
let classic_overheads =
  let plain = classic_pipeline smoke_graph in
  [
    ( "deadline_overhead_ratio",
      ( plain,
        fun () ->
          classic_pipeline
            ~deadline:(Rar_util.Deadline.make ~budget_s:86400.)
            smoke_graph () ) );
    ("trace_overhead_ratio", (plain, fun () -> with_tracing plain));
  ]

let chain_lp =
  lazy
    (let n = 1500 in
     let t = Difflp.create ~n in
     for i = 0 to n - 2 do
       Difflp.add_constraint t ~u:(i + 1) ~v:i ~bound:1
     done;
     Difflp.add_constraint t ~u:0 ~v:(n - 1) ~bound:1;
     Difflp.add_objective t 0 1.0;
     Difflp.add_objective t (n - 1) (-1.0);
     t)

let chain_solve ~verify () =
  ignore (Difflp.solve ~verify (Lazy.force chain_lp) ~reference:0)

(* The verify pair isolates the optimality-certificate cost; the
   fallback pair times the full fail-and-retry path under an injected
   timeout against a clean certified solve. *)
let solve_overheads =
  [
    ("verify_overhead_ratio", (chain_solve ~verify:false, chain_solve ~verify:true));
    ( "fallback_overhead_ratio",
      ( chain_solve ~verify:true,
        fun () ->
          Rar_resilience.Faults.configure [ Rar_resilience.Faults.Timeout ];
          Fun.protect ~finally:Rar_resilience.Faults.use_env
            (chain_solve ~verify:true) ) );
  ]

(* ------------------------------------------------------------------ *)
(* Wall clock: sequential vs pool                                      *)
(* ------------------------------------------------------------------ *)

type wallclock = {
  stage_names : string list;  (* Stage.make seq vs par_jobs *)
  par_jobs : int;
  table_names : string list;  (* Report.all_tables at jobs 1, 2, 4 *)
  sim_cycles : int;
}

let wall_stage_make ~jobs names =
  Rar_util.Pool.set_jobs jobs;
  List.fold_left
    (fun total name ->
      let p = Report.prepared ctx name in
      let _, dt =
        time_wall (fun () ->
            ok
              (Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking
                 p.Suite.cc))
      in
      total +. dt)
    0. names

let run_wallclock w =
  let seq_s = wall_stage_make ~jobs:1 w.stage_names in
  let par_s = wall_stage_make ~jobs:w.par_jobs w.stage_names in
  let speedup = seq_s /. Float.max 1e-9 par_s in
  Printf.printf "  Stage.make   %s: %.3fs seq, %.3fs at %d jobs (%.2fx)\n%!"
    (String.concat "+" w.stage_names) seq_s par_s w.par_jobs speedup;
  let first = ref None in
  let jobs_curve =
    List.map
      (fun j ->
        Rar_util.Pool.set_jobs j;
        let t = Report.create ~names:w.table_names ~sim_cycles:w.sim_cycles () in
        let _, dt = time_wall (fun () -> Report.all_tables t) in
        let eff = Rar_util.Pool.effective_jobs () in
        let base = Option.value !first ~default:dt in
        first := Some base;
        let speedup = base /. Float.max 1e-9 dt in
        Printf.printf "  all_tables   jobs=%d (effective %d): %.3fs (%.2fx vs first)\n%!"
          j eff dt speedup;
        Json.Obj
          [
            ("jobs_requested", Json.Int j);
            ("jobs_effective", Json.Int eff);
            ("all_tables_s", Json.Float dt);
            ("speedup_vs_first", Json.Float speedup);
          ])
      [ 1; 2; 4 ]
  in
  Rar_util.Pool.set_jobs 1;
  Json.Obj
    [
      ( "stage_make",
        Json.Obj
          [
            ("circuits", Json.List (List.map (fun n -> Json.String n) w.stage_names));
            ("seq_s", Json.Float seq_s);
            ("par_s", Json.Float par_s);
            ("jobs", Json.Int w.par_jobs);
            ("speedup", Json.Float speedup);
          ] );
      ( "jobs_curve",
        Json.Obj
          [
            ("circuits", Json.List (List.map (fun n -> Json.String n) w.table_names));
            ("sim_cycles", Json.Int w.sim_cycles);
            ("points", Json.List jobs_curve);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Scaling: generated 10^4..10^6-gate circuits                         *)
(* ------------------------------------------------------------------ *)

(* Run [f] under armed tracing and metrics; return its result plus the
   summed inclusive wall seconds per span name — the per-phase
   breakdown of each scaling row — and the counter snapshot. *)
let span_totals f =
  Rar_obs.Trace.clear ();
  Rar_obs.Trace.arm ();
  Rar_obs.Metrics.reset ();
  Rar_obs.Metrics.arm ();
  let r =
    Fun.protect
      ~finally:(fun () ->
        Rar_obs.Trace.disarm ();
        Rar_obs.Metrics.disarm ())
      f
  in
  let counters, _gauges = Rar_obs.Metrics.snapshot () in
  let evs = Rar_obs.Trace.events () in
  Rar_obs.Trace.clear ();
  let stacks = Hashtbl.create 8 and totals = Hashtbl.create 8 in
  List.iter
    (fun (e : Rar_obs.Trace.event) ->
      let st =
        match Hashtbl.find_opt stacks e.dom with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add stacks e.dom s;
          s
      in
      match e.phase with
      | Rar_obs.Trace.Begin -> st := (e.name, e.ts_s) :: !st
      | Rar_obs.Trace.End -> (
        match !st with
        | (n, t0) :: rest when n = e.name ->
          st := rest;
          Hashtbl.replace totals n
            (e.ts_s -. t0
            +. Option.value ~default:0. (Hashtbl.find_opt totals n))
        | _ -> ()))
    evs;
  ( r,
    List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) totals []),
    counters )

(* The effort counters published in every scaling and ECO row: solver
   work (pivots, the block-pricing hit rate that keeps full sweeps
   rare), LP-prep pruning, the parallel-FEAS sweep count, and stage
   classification's cone work (Σ|cone| over the classified sinks).
   Fixed whitelist so the row shape is stable; absent counters are 0. *)
let counters_json counters =
  Json.Obj
    (List.map
       (fun k -> (k, Json.Int (Option.value ~default:0 (List.assoc_opt k counters))))
       [
         "netsimplex_pivots";
         "netsimplex_block_hits";
         "netsimplex_cycle_arcs";
         "netsimplex_shift_nodes";
         "endpoints_pruned";
         "feas_parallel_sweeps";
         "stage_cone_nodes";
       ])

(* A scaling row: generate a circuit with the sizing shared with
   `rar generate` (Rar_circuits.Defaults), so a row is reproducible
   from the CLI with the same gate count, then time one pipeline on it.
   [Feas] is end-to-end classic min-period retiming through the
   matrix-free FEAS route — the only classic path that fits 10^6 gates.
   [Grar] is prepare + stage + G-RAR engine, the paper pipeline. *)
type leg = Feas of int | Grar of int

let feas_leg net =
  let lib = Rar_liberty.Liberty.default () in
  let g = Classic.of_netlist ~host_registers:1 ~lib net in
  let p0 = Classic.period_of g in
  let o = ok (Classic.retime_feas g) in
  ( Printf.sprintf "%.3f -> %.3f ns, %d -> %d regs" p0
      o.Classic.achieved_period o.Classic.registers_before
      o.Classic.registers_after,
    [
      ("period_before_ns", Json.Float p0);
      ("period_after_ns", Json.Float o.Classic.achieved_period);
      ("registers_before", Json.Int o.Classic.registers_before);
      ("registers_after", Json.Int o.Classic.registers_after);
    ] )

let grar_leg net =
  let p = Suite.prepare net in
  let st =
    ok (Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking p.Suite.cc)
  in
  let o = (ok (Grar.run_on_stage ~c:1.0 st)).Grar.outcome in
  ( Printf.sprintf "P %.3f ns, %d slaves, %d EDLs" p.Suite.p o.Outcome.n_slaves
      (Outcome.ed_count o),
    [
      ("p_ns", Json.Float p.Suite.p);
      ("n_slaves", Json.Int o.Outcome.n_slaves);
      ("edl_count", Json.Int (Outcome.ed_count o));
      ("total_area", Json.Float o.Outcome.total_area);
    ] )

let run_leg leg =
  let t0 = Rar_util.Clock.now_s () in
  let path, run_key, run, gates =
    match leg with
    | Feas gates -> ("classic_feas", "retime_s", feas_leg, gates)
    | Grar gates -> ("grar", "run_s", grar_leg, gates)
  in
  let spec = Rar_circuits.Defaults.scale_spec ~gates in
  let net, generate_s =
    time_wall (fun () -> Rar_circuits.Generator.generate spec)
  in
  let ((summary, stats), spans, counters), run_s =
    time_wall (fun () -> span_totals (fun () -> run net))
  in
  Printf.printf "  %-12s %9d gates: gen %6.2fs, %s %6.2fs, %s\n%!" path gates
    generate_s run_key run_s summary;
  Json.Obj
    ([
       ("circuit", Json.String spec.Rar_circuits.Spec.name);
       ("gates", Json.Int gates);
       ("path", Json.String path);
       ("total_s", Json.Float (Rar_util.Clock.now_s () -. t0));
       ("phases", floats [ ("generate_s", generate_s); (run_key, run_s) ]);
       ("spans", floats spans);
       ("counters", counters_json counters);
     ]
    @ stats)

(* ------------------------------------------------------------------ *)
(* ECO: cold solve vs session edit-and-resolve                         *)
(* ------------------------------------------------------------------ *)

type eco = { gates : int; batches : int; edits_per_batch : int }

(* [k] gate names spread across the deepest two-fifths of the node-id
   range of a generated circuit (the generator emits gates in layer
   order, so late ids have small forward cones): late-fix targets,
   and the regime where an annotation rarely flips a downstream sink
   classification. *)
let eco_edit_targets net k =
  let module N = Rar_netlist.Netlist in
  let gates = ref [] in
  for i = N.node_count net - 1 downto 0 do
    match N.kind net i with
    | N.Gate _ -> gates := i :: !gates
    | N.Input | N.Output | N.Seq _ -> ()
  done;
  let gates = Array.of_list !gates in
  let m = Array.length gates in
  let base = 3 * m / 5 in
  List.init k (fun j ->
      N.node_name net gates.(base + ((j + 1) * (m - base) / (k + 2))))

(* Cold-open a G-RAR run on a generated circuit, resolve small
   delay-annotation batches through an engine session, then cold
   re-solve the cumulatively edited netlist and check the session's
   last result against it. The G-RAR LP is built from the stage's
   discrete data only (regions, sink classes, cut sets, fanout groups),
   so annotations too small to flip a classification leave the LP
   byte-identical and steady-state resolves replay the cached solution:
   the measured speedup is cone-limited re-analysis plus a solve-cache
   hit versus the full cold stage + solve pipeline. The first resolve
   (empty batch) pays the one-time cache-priming solve and is reported
   separately. The headline speedup uses the *median* resolve: an edit
   that does flip a downstream classification legitimately pays a
   genuine re-solve, and one such batch must not mask the steady-state
   cost of the others (every per-batch time is still reported). *)
let run_eco e =
  Rar_obs.Metrics.reset ();
  Rar_obs.Metrics.arm ();
  let spec = Rar_circuits.Defaults.scale_spec ~gates:e.gates in
  let net = Rar_circuits.Generator.generate spec in
  let p = Suite.prepare net in
  let cfg = Engine.config ~c:1.0 Engine.Grar in
  let stage0, stage_s =
    time_wall (fun () ->
        ok (Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking p.Suite.cc))
  in
  let comb = p.Suite.cc.Transform.comb in
  let session = Engine.open_session cfg stage0 in
  let r0, warm_s = time_wall (fun () -> ok (Engine.resolve session [])) in
  let names = eco_edit_targets comb (e.batches * e.edits_per_batch) in
  let batches =
    List.init e.batches (fun b ->
        List.filteri (fun i _ -> i / e.edits_per_batch = b) names
        |> List.map (fun node ->
               Transform.Edit.Annotate { node; extra = 0.0001 }))
  in
  let last = ref r0 in
  let resolve_s =
    List.map
      (fun batch ->
        let r, dt = time_wall (fun () -> ok (Engine.resolve session batch)) in
        last := r;
        dt)
      batches
  in
  let applied = Transform.Edit.apply comb (List.concat batches) in
  let rc, cold_s =
    time_wall (fun () ->
        let st =
          ok
            (Stage.make ~annot:applied.Transform.Edit.annot ~lib:p.Suite.lib
               ~clocking:p.Suite.clocking
               { p.Suite.cc with Transform.comb = applied.Transform.Edit.net })
        in
        ok (Engine.run cfg st))
  in
  let identical =
    !last.Engine.outcome = rc.Engine.outcome
    && !last.Engine.extras = rc.Engine.extras
  in
  let counters, _ = Rar_obs.Metrics.snapshot () in
  Rar_obs.Metrics.disarm ();
  let n = List.length resolve_s in
  let mean = List.fold_left ( +. ) 0. resolve_s /. float_of_int (max 1 n) in
  let median =
    match List.sort compare resolve_s with
    | [] -> 0.
    | sorted -> List.nth sorted ((n - 1) / 2)
  in
  let speedup = cold_s /. Float.max 1e-9 median in
  Printf.printf
    "  eco %7d gates: stage %6.2fs, cold %6.2fs, warm-up %6.2fs, %d batches \
     median %6.3fs (%.1fx), identical %b\n%!"
    e.gates stage_s cold_s warm_s n median speedup identical;
  Json.Obj
    [
      ("circuit", Json.String spec.Rar_circuits.Spec.name);
      ("gates", Json.Int e.gates);
      ("engine", Json.String "grar");
      ("stage_make_s", Json.Float stage_s);
      ("cold_solve_s", Json.Float cold_s);
      ("warmup_resolve_s", Json.Float warm_s);
      ("resolve_s", Json.List (List.map (fun s -> Json.Float s) resolve_s));
      ("mean_resolve_s", Json.Float mean);
      ("median_resolve_s", Json.Float median);
      ("speedup", Json.Float speedup);
      ("identical", Json.Bool identical);
      ("counters", counters_json counters);
    ]

(* ------------------------------------------------------------------ *)
(* Ablations (full mode, printed only)                                 *)
(* ------------------------------------------------------------------ *)

(* How much of the EDL saving survives once the error-signal
   collection tree (folded into c by the paper) is made explicit. *)
let run_cluster_ablation () =
  let lib = (Lazy.force prepared).Suite.lib in
  Printf.printf "\n== Ablation: error-collection tree (circuit %s, c = 1) ==\n"
    circuit;
  Printf.printf "  %-6s %6s %12s %14s %10s\n" "engine" "EDL#" "seq area"
    "seq + OR tree" "tree gates";
  let show tag (o : Outcome.t) =
    let o', tree = Rar_retime.Edl_cluster.annotate ~lib o in
    Printf.printf "  %-6s %6d %12.2f %14.2f %10d\n" tag
      (Outcome.ed_count o) o.Outcome.seq_area o'.Outcome.seq_area
      tree.Rar_retime.Edl_cluster.or_gates
  in
  show "base" (ok (Base.run_on_stage ~c:1.0 (Lazy.force stage_path))).Base.outcome;
  show "rvl"
    (ok (Vl.run_on_stage ~c:1.0 Vl.Rvl (Lazy.force stage_path))).Vl.outcome;
  show "grar" (Lazy.force grar_result).Engine.outcome

(* Resynthesis (buffer cleanup + timing-driven decomposition of wide
   gates) before retiming — the paper's related-work lever. *)
let run_resynth_ablation () =
  let lib = Rar_liberty.Liberty.default () in
  Printf.printf "\n== Ablation: resynthesis before retiming (circuit %s, c = 1) ==\n"
    circuit;
  let spec = Option.get (Rar_circuits.Spec.find circuit) in
  let net = Rar_circuits.Generator.generate spec in
  let net', rs = Rar_retime.Resynth.optimize ~lib net in
  Printf.printf
    "  rewrites: %d bufs removed, %d inv pairs removed, %d gates decomposed \
     (+%d internals)\n"
    rs.Rar_retime.Resynth.bufs_removed rs.Rar_retime.Resynth.inv_pairs_removed
    rs.Rar_retime.Resynth.gates_decomposed rs.Rar_retime.Resynth.gates_added;
  let show tag n =
    let p = Suite.prepare ~lib n in
    match
      Stage.make ~lib ~clocking:p.Suite.clocking p.Suite.cc
    with
    | Error e -> Printf.printf "  %s: %s\n" tag (Rar_retime.Error.to_string e)
    | Ok st -> (
      match Grar.run_on_stage ~c:1.0 st with
      | Error e ->
        Printf.printf "  %s: %s\n" tag (Rar_retime.Error.to_string e)
      | Ok r ->
        Printf.printf
          "  %-12s P=%.3f slaves=%d edl=%d seq=%.2f comb=%.2f total=%.2f\n"
          tag p.Suite.p r.Grar.outcome.Outcome.n_slaves
          (Outcome.ed_count r.Grar.outcome)
          r.Grar.outcome.Outcome.seq_area r.Grar.outcome.Outcome.comb_area
          r.Grar.outcome.Outcome.total_area)
  in
  show "original" net;
  show "resynthesised" net'

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

type profile = {
  subject : string;  (* what the kernels run on *)
  scaling : leg list;
  kernels : Test.t list;
  overheads : (string * ((unit -> unit) * (unit -> unit))) list;
  wallclock : wallclock option;
  eco : eco option;
  ablations : bool;
}

let none =
  {
    subject = "";
    scaling = [];
    kernels = [];
    overheads = [];
    wallclock = None;
    eco = None;
    ablations = false;
  }

let profiles =
  [
    ( "full",
      {
        subject = "circuit " ^ circuit;
        scaling = [ Feas 25_000; Grar 25_000; Feas 100_000; Feas 1_000_000 ];
        kernels = tests;
        overheads = classic_overheads @ solve_overheads;
        wallclock =
          Some
            {
              stage_names = [ "s1423"; "s5378" ];
              par_jobs = 4;
              table_names = [ "s1196"; "s1238"; "s1423" ];
              sim_cycles = 50;
            };
        eco = Some { gates = 25_000; batches = 4; edits_per_batch = 3 };
        ablations = true;
      } );
    ( "smoke",
      {
        none with
        subject = "generated 150-gate circuit";
        kernels = smoke_tests;
        overheads = classic_overheads;
        wallclock =
          Some
            {
              stage_names = [ "s1196" ];
              par_jobs = 2;
              table_names = [ "s1196" ];
              sim_cycles = 5;
            };
        eco = Some { gates = 2_000; batches = 2; edits_per_batch = 2 };
      } );
    ("scale", { none with scaling = [ Feas 100_000; Grar 25_000 ] });
    ("eco", { none with eco = Some { gates = 25_000; batches = 4; edits_per_batch = 3 } });
  ]

(* Sections run in this order. Scaling goes first: it must run on a
   fresh heap, before the bechamel kernels and the table grids leave a
   fragmented multi-GB free list behind (OCaml 5.1's [Gc.compact]
   cannot defragment — heap compaction only returned in 5.2). *)
let run mode p =
  let t0 = Rar_util.Clock.now_s () in
  let section title = Printf.printf "\n== %s ==\n%!" title in
  let scaling =
    if p.scaling = [] then []
    else begin
      section "Scaling (generated circuits)";
      [ ("scaling", Json.List (List.map run_leg p.scaling)) ]
    end
  in
  let kernels =
    if p.kernels = [] then []
    else begin
      section ("Bechamel kernels (" ^ p.subject ^ ", monotonic clock)");
      [ ("kernels", Json.List (measure_kernels p.kernels)) ]
    end
  in
  let overheads =
    if p.overheads = [] then []
    else begin
      section "Overheads: armed vs plain, paired rounds";
      Rar_util.Pool.set_jobs 1;
      [
        ( "overheads",
          floats
            (List.map
               (fun (label, pair) ->
                 let r = paired_ratio pair in
                 Printf.printf "  %-28s %12.3fx\n%!" label r;
                 (label, r))
               p.overheads) );
      ]
    end
  in
  let wallclock =
    match p.wallclock with
    | None -> []
    | Some w ->
      section "Wall clock: sequential vs pool";
      [ ("wallclock", run_wallclock w) ]
  in
  let eco =
    match p.eco with
    | None -> []
    | Some e ->
      section "ECO: cold solve vs edit-and-resolve";
      [ ("eco", run_eco e) ]
  in
  if p.ablations then begin
    run_cluster_ablation ();
    run_resynth_ablation ()
  end;
  let total_s = Rar_util.Clock.now_s () -. t0 in
  let doc =
    Json.Obj
      ([
         ("schema", Json.String "rar-bench/1");
         ("mode", Json.String mode);
         ( "host",
           Json.Obj
             [
               ("cores", Json.Int (Domain.recommended_domain_count ()));
               ("jobs_effective", Json.Int jobs_effective);
             ] );
         ("total_s", Json.Float total_s);
       ]
      @ scaling @ kernels @ overheads @ wallclock @ eco)
  in
  let path = "BENCH_eval.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "\nwrote %s (%.1fs total)\n%!" path total_s

let () =
  let usage () =
    Printf.eprintf "usage: %s [%s]\n" Sys.argv.(0)
      (String.concat "|" (List.map fst profiles));
    exit 2
  in
  let mode =
    match Sys.argv with
    | [| _ |] -> "full"
    | [| _; m |] -> m
    | _ -> usage ()
  in
  match List.assoc_opt mode profiles with
  | Some p -> run mode p
  | None -> usage ()
