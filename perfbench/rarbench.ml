(* The rar benchmark: closed-loop workloads over the retiming flows.

   One process, one client, one operation at a time. Each workload
   sets up its inputs from --seed (nine times; the median is
   setup_s), then repeats the same pass of operations on those inputs
   until --seconds have elapsed, and times each operation by its best
   repeat. Every operation's output is checked outside its timing by
   [Check], which shares no code with the engines' verdicts.
   With --trace 1 the same passes run untraced and then traced, and
   the per-layer metrics come from the traced half (see [Layers]).

   The last line of stdout is the result object
   {"correct", "attempted", "failed", "metrics"}; the line before it is
   the run record. See README.md for the workloads and metrics. *)

module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Classic = Rar_retime.Classic
module Engine = Rar_engine
module Suite = Rar_circuits.Suite
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Defaults = Rar_circuits.Defaults
module Sim = Rar_sim.Sim
module Json = Rar_util.Json
module Pool = Rar_util.Pool
module Rng = Rar_util.Rng
module Deadline = Rar_util.Deadline

let now = Rar_util.Clock.monotonic_s
let call = Layers.call

(* ------------------------------------------------------------------ *)
(* Workload parameters                                                 *)
(* ------------------------------------------------------------------ *)

(* Sizes keep a pass to a few seconds on a 2-core host, so a run
   repeats it many times and its best repeats shed the stretches a busy
   host slows: the 100k-gate FEAS run of the scale studies takes 19 s
   on its own. Several circuits per pass average out how much one
   circuit costs. *)
let feas_gates = 2_000
let feas_circuits = 10
let eco_gates = 1_000
let eco_sessions = 5
let eco_batches_per_session = 8
let eco_resizes_per_session = 3
let eco_annotations_per_batch = 2
let suite_circuits =
  [ "s1196"; "s1238"; "s1423"; "s1488"; "s5378"; "s9234"; "plasma" ]
let sim_cycles = 100
let c = 1.0
(* The first set-up or two in a process run up to 2.5x slower while
   the heap grows; the median of nine is a later one. *)
let setups = 9
let op_budget_s = 60.

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

(* Quality of the designs one pass produces, summed over its ops. *)
type quality = {
  mutable area : float;
  mutable edl : int;
  mutable slaves : int;
  mutable period_before_ns : float;
  mutable period_ns : float;
  mutable registers_before : int;
  mutable registers : int;
  mutable retype_rounds : int;
  mutable cycles : int;
  mutable silent_cycles : int;
}

let q = {
  area = 0.; edl = 0; slaves = 0; period_before_ns = 0.; period_ns = 0.;
  registers_before = 0; registers = 0;
  retype_rounds = 0; cycles = 0; silent_cycles = 0;
}

let reset_quality () =
  q.area <- 0.; q.edl <- 0; q.slaves <- 0; q.period_before_ns <- 0.;
  q.period_ns <- 0.; q.registers_before <- 0; q.registers <- 0; q.retype_rounds <- 0; q.cycles <- 0;
  q.silent_cycles <- 0

let count_outcome (o : Outcome.t) =
  q.area <- q.area +. o.total_area;
  q.edl <- q.edl + Outcome.ed_count o;
  q.slaves <- q.slaves + o.n_slaves

exception Op_failed of string

let ok = function
  | Ok v -> v
  | Error e -> raise (Op_failed (Rar_retime.Error.to_string e))

(* One timed operation: [run] does the work and returns the check to
   run on its output once the clock has stopped. *)
type op = {
  label : string;
  run : Deadline.t -> unit -> unit -> (unit, string) result;
}

(* [pass st i] builds the ops of pass i; any work it does before
   returning them is untimed. *)
type 'st workload = {
  setup : int -> 'st;  (* seed -> inputs and warm state *)
  pass : 'st -> int -> op list;
}

type loop = {
  pass_s : float list;  (* summed op time per pass *)
  op_s : float list list;  (* op times per pass, in op order *)
  attempted : int;
  failed : int;
  passes : int;
  first_quality : quality;
  first_top_heap : int;  (* top_heap_words once the first pass is done *)
}

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let sum xs = List.fold_left ( +. ) 0. xs

(* The fastest of an op's repeats. The host's other tenants slow
   stretches of a run by up to 60%, so the slower repeats measure the
   tenants; the fastest tracks the program. *)
let best xs = List.fold_left Float.min infinity xs

(* Each op's time: its best over the passes, which all run the same ops
   in the same order. *)
let per_op (l : loop) =
  match l.op_s with
  | [] -> []
  | first :: _ ->
    List.mapi (fun j _ -> best (List.map (fun ops -> List.nth ops j) l.op_s)) first

(* The 90th percentile (nearest rank) and the number of samples beyond
   it. *)
let tail xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let i = max 0 (int_of_float (Float.ceil (0.9 *. float_of_int n)) - 1) in
    (a.(i), n - 1 - i)

let failures = ref []

let note_failure label msg =
  if List.length !failures < 5 then
    failures := Printf.sprintf "%s: %s" label msg :: !failures

let run_loop wl st ~seconds =
  let t0 = now () in
  let pass_s = ref [] and op_s = ref [] in
  let ops_of_pass = ref [] in
  let attempted = ref 0 and failed = ref 0 and passes = ref 0 in
  let first = ref None and first_top_heap = ref 0 in
  while !passes = 0 || now () -. t0 < seconds do
    Gc.full_major ();
    reset_quality ();
    let sum = ref 0. in
    ops_of_pass := [];
    List.iter
      (fun op ->
        incr attempted;
        let deadline = Deadline.make ~budget_s:op_budget_s in
        let s0 = now () in
        let checked =
          try Ok (op.run deadline ()) with
          | Op_failed m -> Error m
          | Deadline.Expired { phase; _ } -> Error ("deadline in " ^ phase)
          | e -> Error (Printexc.to_string e)
        in
        let dt = now () -. s0 in
        sum := !sum +. dt;
        ops_of_pass := dt :: !ops_of_pass;
        let verdict =
          match checked with
          | Error m -> Error m
          | Ok check -> (
            try Layers.paused check
            with e -> Error ("check raised " ^ Printexc.to_string e))
        in
        match verdict with
        | Ok () -> ()
        | Error m ->
          incr failed;
          note_failure op.label m)
      (wl.pass st !passes);
    if !first = None then begin
      first := Some { q with area = q.area };
      first_top_heap := (Gc.quick_stat ()).Gc.top_heap_words
    end;
    pass_s := !sum :: !pass_s;
    op_s := List.rev !ops_of_pass :: !op_s;
    incr passes
  done;
  {
    pass_s = List.rev !pass_s;
    op_s = List.rev !op_s;
    attempted = !attempted;
    failed = !failed;
    passes = !passes;
    first_quality = Option.get !first;
    first_top_heap = !first_top_heap;
  }

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let seeded (spec : Spec.t) tag = { spec with seed = spec.seed ^ "/" ^ tag }

let generate spec = call "circuits" "generate" (fun () -> Generator.generate spec)

(* The [k] generated circuits of a seed. *)
let scale_nets ~gates ~k seed =
  List.init k (fun i ->
      generate
        (seeded (Defaults.scale_spec ~gates) (Printf.sprintf "%d/%d" seed i)))

(* A workload running [op] once on every circuit in every pass. *)
let per_net ~gates ~k ~label op =
  {
    setup = scale_nets ~gates ~k;
    pass = (fun nets _ -> List.map (fun net -> { label; run = op net }) nets);
  }

let prepare net = call "circuits" "prepare" (fun () -> Suite.prepare net)

(* Gates analysed by Stage.make while tracing, for words per gate. *)
let staged_gates = ref 0

let stage_make ?source (p : Suite.prepared) =
  if !Layers.armed then
    staged_gates := !staged_gates + Array.length (Netlist.gates p.cc.comb);
  call "stage" "make" (fun () ->
      ok (Stage.make ?source ~lib:p.lib ~clocking:p.clocking p.cc))

let engine_run deadline cfg st =
  call "engine" "run" (fun () -> ok (Engine.run ~deadline cfg st))

let check_result (r : Engine.result) () = Check.retimed ~c r.stage r.outcome

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let grar_cfg = Engine.config ~c Engine.Grar

let lib = Liberty.default ()

let netlist_area net =
  Array.fold_left
    (fun a v -> a +. Liberty.gate_area lib net v)
    0.
    (Array.init (Netlist.node_count net) Fun.id)

(* Classic min-period retiming through the matrix-free FEAS route on
   the flop netlists, as [rar classic --feas] runs it; never touches
   Stage, Rgraph or Difflp. *)
let classic_feas =
  per_net ~gates:feas_gates ~k:feas_circuits ~label:"classic-feas"
    (fun net deadline () ->
      let g =
        call "classic" "of_netlist" (fun () ->
            Classic.of_netlist ~host_registers:1 ~lib net)
      in
      q.period_before_ns <- q.period_before_ns +. Classic.period_of g;
      let o =
        call "classic" "retime_feas" (fun () -> ok (Classic.retime_feas ~deadline g))
      in
      q.area <- q.area +. netlist_area o.retimed;
      q.period_ns <- q.period_ns +. o.achieved_period;
      q.registers_before <- q.registers_before + o.registers_before;
      q.registers <- q.registers + o.registers_after;
      fun () -> Check.classic ~lib ~input:net o)

type eco = {
  session : Engine.session;
  targets : string array;  (* late-layer gates, annotated *)
  critical : string array;  (* gates feeding near-critical masters, resized *)
  rng : Rng.t;
  mutable edits : Transform.Edit.t list;  (* every applied edit, newest first *)
  mutable last : Engine.result;
  p : Suite.prepared;
}

(* Gates in the deepest two fifths of the node-id range (the generator
   emits gates in layer order): late-fix ECO targets with small
   forward cones. *)
let late_gates net =
  let gates = Netlist.gates net in
  let m = Array.length gates in
  Array.sub gates (3 * m / 5) (m - (3 * m / 5))
  |> Array.map (Netlist.node_name net)

(* Gates in the fanin cones of the near-critical masters: resizing them
   moves arrivals inside the resiliency window, so sink classes and cut
   sets change and the LP must be solved again. *)
let critical_gates st =
  let comb = Stage.comb st in
  let cone = Array.make (Netlist.node_count comb) false in
  List.iter
    (fun s -> Array.iteri (fun v b -> if b then cone.(v) <- true) (Netlist.fanin_cone comb s))
    (Stage.near_critical_initial st);
  Netlist.gates comb
  |> Array.to_list
  |> List.filter (fun v -> cone.(v))
  |> List.map (Netlist.node_name comb)
  |> Array.of_list

let initial_drive net name =
  match Option.map (Netlist.kind net) (Netlist.find net name) with
  | Some (Netlist.Gate { drive; _ }) -> drive
  | _ -> invalid_arg ("not a gate: " ^ name)

(* The largest drive, or the smallest for a gate already at the
   largest: always a change, and a large one. *)
let next_drive d =
  let ds = Liberty.drives lib in
  let big = List.fold_left max d ds in
  if d < big then big else List.hd ds

(* The [i]th ECO circuit of a seed, prepared and staged. *)
let eco_input seed i =
  let net =
    generate
      (seeded (Defaults.scale_spec ~gates:eco_gates) (Printf.sprintf "%d/%d" seed i))
  in
  let p = prepare net in
  (seed, i, p, stage_make p)

(* A fresh session on an ECO circuit, with its first solve done and its
   edit stream at the start: every pass edits the same way. *)
let eco_open (seed, i, (p : Suite.prepared), st) =
  let rng = Rng.of_string (Printf.sprintf "eco/%d/%d" seed i) in
  let critical = critical_gates st in
  Rng.shuffle rng critical;
  let session =
    call "engine" "open_session" (fun () -> Engine.open_session grar_cfg st)
  in
  let r0 = call "engine" "resolve" (fun () -> ok (Engine.resolve session [])) in
  {
    session;
    targets = late_gates p.cc.comb;
    critical;
    rng;
    edits = [];
    last = r0;
    p;
  }

(* The [k]th resize of a session resizes the [k]th of as many disjoint
   groups of its critical gates, in seeded order. A few gates at a time
   often leave every sink class as it was, and how often differs from
   circuit to circuit, so a run's re-solve count would depend on the
   seed; a whole group re-solves on nearly every resize. The groups are
   disjoint, so no resize returns a session to a netlist it has already
   solved. *)
let resize_batch e k =
  let n = Array.length e.critical in
  let lo = k * n / eco_resizes_per_session in
  let hi = (k + 1) * n / eco_resizes_per_session in
  List.init (hi - lo) (fun j ->
      let node = e.critical.(lo + j) in
      Transform.Edit.Resize { node; drive = next_drive (initial_drive e.p.cc.comb node) })

let annotate_batch e =
  List.init eco_annotations_per_batch (fun _ ->
      Transform.Edit.Annotate { node = Rng.pick e.rng e.targets; extra = 0.0001 })

(* The session's last result must be what a cold stage + engine run
   computes on the cumulatively edited netlist. *)
let eco_matches_cold e =
  let applied = Transform.Edit.apply e.p.cc.comb (List.rev e.edits) in
  match
    Stage.make ~annot:applied.annot ~lib:e.p.lib ~clocking:e.p.clocking
      { e.p.cc with comb = applied.net }
  with
  | Error err -> Error ("cold stage: " ^ Rar_retime.Error.to_string err)
  | Ok st -> (
    match Engine.run grar_cfg st with
    | Error err -> Error ("cold run: " ^ Rar_retime.Error.to_string err)
    | Ok cold ->
      if cold.outcome = e.last.outcome && cold.extras = e.last.extras then Ok ()
      else Error "session result differs from a cold re-solve")

(* One session's edit batches: resizes among annotation batches, at
   seeded positions. After the last, the session must match a cold
   re-solve. *)
let eco_batches e =
  let resizes = Array.init eco_batches_per_session (fun b -> b < eco_resizes_per_session) in
  Rng.shuffle e.rng resizes;
  let resizes_before b =
    Array.fold_left (fun n r -> if r then n + 1 else n) 0 (Array.sub resizes 0 b)
  in
  List.init eco_batches_per_session (fun b ->
      let resize = resizes.(b) in
      let batch = if resize then resize_batch e (resizes_before b) else annotate_batch e in
      {
        label = (if resize then "eco-resize" else "eco-annotate");
        run =
          (fun deadline () ->
            let r =
              call "engine" "resolve" (fun () ->
                  ok (Engine.resolve ~deadline e.session batch))
            in
            e.edits <- List.rev_append batch e.edits;
            e.last <- r;
            count_outcome r.outcome;
            if b < eco_batches_per_session - 1 then check_result r
            else fun () -> Result.bind (check_result r ()) (fun () -> eco_matches_cold e));
      })

(* ECO sessions on generated circuits, edited in turn by one client:
   annotation batches that leave the G-RAR LP unchanged (the solve
   cache replays them) and a minority of resizes that reclassify sink
   cones and force a re-solve. Three batches in eight resize, so the
   90th percentile lands on re-solves. The set-up opens the sessions of
   the first pass; each later pass opens them afresh, untimed and
   untraced, and replays the same edits. *)
let eco_session =
  {
    setup =
      (fun seed ->
        let inputs = List.init eco_sessions (eco_input seed) in
        (inputs, List.map eco_open inputs));
    pass =
      (fun (inputs, first) i ->
        List.concat_map eco_batches
          (if i = 0 then first else Layers.paused (fun () -> List.map eco_open inputs)));
  }

(* The circuit Table I uses, as the suite builds it. *)
let suite_net name =
  match Spec.find name with
  | Some spec -> generate spec
  | None -> call "circuits" "generate" Rar_circuits.Plasma.generate

(* G-RAR last: its design is the one simulated. *)
let suite_specs = [ Engine.Base; Engine.Vl Rar_vl.Vl.Rvl; Engine.Grar ]

let error_rate name (p : Suite.prepared) (r : Engine.result) =
  let cc = Stage.cc r.stage in
  let staged = Transform.apply_retiming cc r.outcome.placements in
  let design =
    {
      Sim.staged;
      lib = p.lib;
      clocking = p.clocking;
      ed_sinks =
        List.map (fun s -> Sim.sink_of_comb ~comb:cc.comb ~staged s) r.outcome.ed_sinks;
    }
  in
  call "sim" "error_rate" (fun () ->
      Sim.error_rate ~cycles:sim_cycles ~seed:name design)

(* Silent failures (window hits at non-error-detecting masters) are
   counted, not failed: the simulator's worst-pin delays on the staged
   netlist are more pessimistic than the path-based STA the design is
   verified against, and some generated circuits show a hit (see
   README.md). *)
let check_rate (rate : Sim.rate) () =
  if rate.cycles <> sim_cycles then Error (Printf.sprintf "simulated %d cycles" rate.cycles)
  else Ok ()

(* Table I circuits through base, RVL and G-RAR at c = 1.0, plus the
   error-rate simulation of each G-RAR design. One op is one circuit's
   table row. The inputs are the same for every seed: the suite's own
   circuits, not seeded variants, and one vector stream per circuit.
   The paper compares the engines on that fixed set. With seven rows of
   far-apart cost the median op is a single row, and seeded variants,
   or seeded vectors (the simulator's work follows the vectors'
   activity), moved it by up to a third from seed to seed. *)
let paper_suite =
  {
    setup =
      (fun _seed ->
        List.map
          (fun name ->
            let p = prepare (suite_net name) in
            (name, p, stage_make ~source:p.two_phase p))
          suite_circuits);
    pass =
      (fun circuits _ ->
        List.map
          (fun (name, (p : Suite.prepared), st) ->
            {
              label = name;
              run =
                (fun deadline () ->
                  let results =
                    List.map
                      (fun spec ->
                        let r = engine_run deadline (Engine.config ~c spec) st in
                        count_outcome r.outcome;
                        (match r.extras with
                        | Engine.Retype { retype_rounds; _ } ->
                          q.retype_rounds <- q.retype_rounds + retype_rounds
                        | _ -> ());
                        r)
                      suite_specs
                  in
                  let rate = error_rate name p (List.nth results 2) in
                  q.cycles <- q.cycles + rate.cycles;
                  q.silent_cycles <- q.silent_cycles + rate.silent_cycles;
                  fun () ->
                    List.fold_left
                      (fun acc r -> Result.bind acc (check_result r))
                      (check_rate rate ()) results);
            })
          circuits);
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = string * float * string

let main_dom = (Domain.self () :> int)

let bytes_per_word = float_of_int (Sys.word_size / 8)

let end_to_end ~setup_s (l : loop) : metric list =
  let ops = per_op l in
  let p50 = median ops and tail_v, _ = tail ops in
  [
    (* One pass, each op at its best: finer-grained than the fastest
       pass, so a pass slowed for a second of its length still counts. *)
    ("wall_s", sum (per_op l), "s");
    ("setup_s", setup_s, "s");
    ("op_p50_s", p50, "s");
    ("op_tail_s", tail_v, "s");
    (* The major-heap high-water mark through the set-ups and the first
       pass: fixed work, so a program that completes more passes (and
       grows a bigger ECO solve cache) is not charged for them. *)
    ( "peak_heap_mb",
      float_of_int l.first_top_heap *. bytes_per_word /. 1048576.,
      "MB" );
  ]

let per_layer ~setup_spans ~untraced ~(traced : loop) : metric list =
  let s = Layers.merge setup_spans (Layers.spans ~dom:main_dom) in
  let self p = Layers.self_where s p in
  let named n = Layers.get s.self n in
  let pre = Layers.has_prefix in
  let cnt n = float_of_int (Layers.counter n) in
  let solves =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt s.count "difflp/solve"))
  in
  let gcm layer =
    let g = Layers.gc layer in
    [
      (layer ^ ".minor_words", g.minor, "words");
      (layer ^ ".major_words", g.major, "words");
    ]
  in
  let stage_gc = Layers.gc "stage" in
  let fq = traced.first_quality in
  let traced_wall = sum (per_op traced) and untraced_wall = sum (per_op untraced) in
  [
    ("circuits.generate_s", named "bench/circuits.generate", "s");
    ("circuits.prepare_s", named "bench/circuits.prepare", "s");
    ("sta.analyse_s", named "sta/analyse" +. named "sta/backward_all", "s");
    ("sta.pin_relaxations", cnt "sta_pin_relaxations", "count");
    ("sta.patch_s", named "sta/patch", "s");
    ("sta.incremental_pins", cnt "sta_incremental_pins", "count");
    ("stage.make_s", named "bench/stage.make", "s");
    ("stage.make_major_words", stage_gc.major, "words");
    ( "stage.make_words_per_gate",
      stage_gc.alloc /. float_of_int (max 1 !staged_gates),
      "words/gate" );
    ("stage.patch_s", named "stage/patch", "s");
    ("engine.grar_self_s", named "engine/run:grar", "s");
    ("engine.base_self_s", named "engine/run:base", "s");
    ("engine.rvl_self_s", named "engine/run:rvl", "s");
    ("engine.resolve_s", named "engine/resolve", "s");
    ( "flow.solve_s",
      self (fun n -> n = "difflp/solve" || pre "solver/" n),
      "s" );
    ("flow.netsimplex_s", named "solver/network-simplex", "s");
    ("flow.closure_s", named "solver/closure", "s");
    ("flow.solves", solves, "count");
    ("flow.netsimplex_pivots", cnt "netsimplex_pivots", "count");
    ("flow.netsimplex_shift_nodes", cnt "netsimplex_shift_nodes", "count");
    ("flow.cache_hits", cnt "difflp_cache_hits", "count");
    ( "flow.cache_hit_ratio",
      (if solves = 0. then 0. else cnt "difflp_cache_hits" /. solves),
      "ratio" );
    ("flow.fallbacks", cnt "solver_fallbacks", "count");
    ("classic.of_netlist_s", named "classic/of_netlist", "s");
    ("classic.feas_s", named "classic/feas", "s");
    ("classic.realize_s", named "classic/realize", "s");
    ("classic.feas_parallel_sweeps", cnt "feas_parallel_sweeps", "count");
    ("classic.spfa_relaxations", cnt "spfa_relaxations", "count");
    ("vl.rvl_s", Layers.get s.incl "engine/run:rvl", "s");
    ("vl.retype_rounds", float_of_int fq.retype_rounds, "count");
    ("sim.error_rate_s", named "bench/sim.error_rate", "s");
    ("sim.cycles", float_of_int fq.cycles, "count");
    ("sim.silent_cycles", float_of_int fq.silent_cycles, "count");
    ("pool.jobs_effective", float_of_int (Pool.effective_jobs ()), "count");
    ("pool.batches", cnt "pool_batches", "count");
    ("pool.tasks", cnt "pool_tasks", "count");
  ]
  @ List.concat_map gcm [ "circuits"; "stage"; "engine"; "classic"; "sim" ]
  @ [
      ("quality.area_total", fq.area, "area");
      ("quality.edl_count", float_of_int fq.edl, "count");
      ("quality.slave_count", float_of_int fq.slaves, "count");
      ("quality.period_before_ns", fq.period_before_ns, "ns");
      ("quality.period_ns", fq.period_ns, "ns");
      ("quality.registers_before", float_of_int fq.registers_before, "count");
      ("quality.registers", float_of_int fq.registers, "count");
      ("trace.coverage", s.root_s /. Float.max 1e-9 (List.fold_left ( +. ) 0. traced.pass_s), "ratio");
      ("trace.overhead_ratio", traced_wall /. Float.max 1e-9 untraced_wall, "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let timed_setup wl seed =
  let rec go i times st =
    if i = setups then (List.rev times, Option.get st)
    else begin
      Gc.full_major ();
      let t0 = now () in
      let s = wl.setup seed in
      go (i + 1) ((now () -. t0) :: times) (Some s)
    end
  in
  go 0 [] None

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  setup_times : float list;
  loops : loop list;
}

let measure wl ~seed ~seconds ~trace =
  let setup_times, st = timed_setup wl seed in
  let setup_s = median setup_times in
  let untraced = run_loop wl st ~seconds in
  if not trace then
    {
      metrics = end_to_end ~setup_s untraced;
      attempted = untraced.attempted;
      failed = untraced.failed;
      setup_times;
      loops = [ untraced ];
    }
  else begin
    Layers.arm ();
    staged_gates := 0;
    let st = wl.setup seed in
    let setup_spans = Layers.spans ~dom:main_dom in
    Rar_obs.Trace.clear ();
    let traced = run_loop wl st ~seconds in
    Layers.disarm ();
    {
      metrics = per_layer ~setup_spans ~untraced ~traced;
      attempted = untraced.attempted + traced.attempted;
      failed = untraced.failed + traced.failed;
      setup_times;
      loops = [ untraced; traced ];
    }
  end

let workloads =
  [
    ("classic_feas", measure classic_feas);
    ("eco_session", measure eco_session);
    ("paper_suite", measure paper_suite);
  ]

let env_or k d = Option.value ~default:d (Sys.getenv_opt k)

let record ~workload ~seed ~seconds ~trace (o : outcome) =
  let l = List.hd o.loops in
  let _, beyond = tail (per_op l) in
  Json.Obj
    [
      ("schema", Json.String "rarbench-record/1");
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("git_rev", Json.String (env_or "RARBENCH_GIT_REV" "unknown"));
      ("source_digest", Json.String (env_or "RARBENCH_SOURCE_DIGEST" "unknown"));
      ("nproc", Json.Int (Pool.host_cores ()));
      ("jobs_effective", Json.Int (Pool.effective_jobs ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("setup_s", Json.List (List.map (fun x -> Json.Float x) o.setup_times));
      ("passes", Json.List (List.map (fun (l : loop) -> Json.Int l.passes) o.loops));
      ("ops", Json.List (List.map (fun (l : loop) -> Json.Int l.attempted) o.loops));
      ( "pass_s",
        Json.List
          (List.map
             (fun (l : loop) -> Json.List (List.map (fun x -> Json.Float x) l.pass_s))
             o.loops) );
      ( "op_s",
        Json.List
          (List.map
             (fun (l : loop) ->
               Json.List
                 (List.map
                    (fun ops -> Json.List (List.map (fun x -> Json.Float x) ops))
                    l.op_s))
             o.loops) );
      ("op_tail_percentile", Json.Int 90);
      ("op_tail_samples_beyond", Json.Int beyond);
      ( "failed_ratio",
        Json.Float (float_of_int o.failed /. float_of_int (max 1 o.attempted)) );
      ("failures", Json.List (List.rev_map (fun s -> Json.String s) !failures));
      ( "gc_domains",
        Json.String
          "Gc.quick_stat of the benchmark's domain; pool workers' allocation \
           only as merged by the runtime" );
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S timed phase length (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rarbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "rarbench: unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some run ->
    if !trace <> 0 && !trace <> 1 then (prerr_endline "rarbench: --trace is 0 or 1"; exit 2);
    let trace = !trace = 1 in
    let o = run ~seed:!seed ~seconds:!seconds ~trace in
    List.iter
      (fun (name, v, unit) -> Printf.printf "%-32s %.6g %s\n" name v unit)
      o.metrics;
    List.iter (Printf.printf "failure: %s\n") (List.rev !failures);
    print_endline (Json.to_string (record ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace o));
    let result =
      Json.Obj
        [
          ("correct", Json.Bool (o.failed = 0));
          ("attempted", Json.Int o.attempted);
          ("failed", Json.Int o.failed);
          ( "metrics",
            Json.Obj
              (List.map
                 (fun (name, v, unit) ->
                   (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                 o.metrics) );
        ]
    in
    print_endline (Json.to_string result)
