(* Retiming-engine properties on generated benchmark circuits: every
   result must be a legal single-latch-per-path placement with no
   max-delay violations; the three LP engines must agree; G-RAR must
   never lose to base retiming on its own objective. *)

module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Suite = Rar_circuits.Suite
module Stage = Rar_retime.Stage
module Rgraph = Rar_retime.Rgraph
module Grar = Rar_retime.Grar
module Base = Rar_retime.Base_retiming
module Outcome = Rar_retime.Outcome
module Difflp = Rar_flow.Difflp

let small_spec seed =
  {
    Spec.name = "prop";
    n_flops = 12 + (seed mod 17);
    n_pi = 4 + (seed mod 5);
    n_po = 3 + (seed mod 4);
    n_gates = 120 + (7 * (seed mod 23));
    depth = 7 + (seed mod 6);
    nce_target = 3 + (seed mod 6);
    seed = Printf.sprintf "prop%d" seed;
    src_bias_pct = 55;
  }

let stage_of_spec spec =
  let p = Suite.prepare (Generator.generate spec) in
  match Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking p.Suite.cc with
  | Ok st -> st
  | Error e -> failwith (Rar_retime.Error.to_string e)

let cached_stage =
  let tbl = Hashtbl.create 8 in
  fun seed ->
    match Hashtbl.find_opt tbl seed with
    | Some st -> st
    | None ->
      let st = stage_of_spec (small_spec seed) in
      Hashtbl.replace tbl seed st;
      st

(* Per-engine legality properties live in Test_engine now, swept over
   the whole registry. *)

let prop_engines_agree_on_objective =
  QCheck.Test.make ~name:"LP engines agree on the G-RAR objective" ~count:8
    QCheck.(int_bound 40)
    (fun seed ->
      let st = cached_stage seed in
      let g = Rgraph.build ~edl_overhead:1.0 st in
      let objectives =
        List.filter_map
          (fun engine ->
            match Rgraph.solve ~engine g with
            | Ok r -> Some (Difflp.objective_value (Rgraph.lp g) r)
            | Error _ -> None)
          Difflp.all_engines
      in
      match objectives with
      | x :: rest -> List.for_all (fun y -> Float.abs (x -. y) < 1e-6) rest
      | [] -> false)

let prop_grar_beats_base_model =
  (* Base retiming's placement is a feasible point of the G-RAR LP, so
     the G-RAR optimum can only be at least as good on the combined
     count + c * EDL measure (evaluated on verified outcomes, with the
     fractional-sharing count replaced by the physical count). *)
  QCheck.Test.make ~name:"G-RAR no worse than base on its objective" ~count:8
    QCheck.(int_bound 40)
    (fun seed ->
      let st = cached_stage seed in
      let c = 1.0 in
      match (Grar.run_on_stage ~c st, Base.run_on_stage ~c st) with
      | Ok g, Ok b ->
        let cost (o : Outcome.t) =
          float_of_int o.Outcome.n_slaves
          +. (c *. float_of_int (Outcome.ed_count o))
        in
        cost g.Grar.outcome <= cost b.Base.outcome +. 1e-6
      | _ -> false)

let prop_deterministic =
  QCheck.Test.make ~name:"retiming is deterministic" ~count:4
    QCheck.(int_bound 40)
    (fun seed ->
      let st = cached_stage seed in
      match (Grar.run_on_stage ~c:2.0 st, Grar.run_on_stage ~c:2.0 st) with
      | Ok a, Ok b ->
        a.Grar.outcome.Outcome.n_slaves = b.Grar.outcome.Outcome.n_slaves
        && Outcome.ed_count a.Grar.outcome = Outcome.ed_count b.Grar.outcome
        && a.Grar.outcome.Outcome.seq_area = b.Grar.outcome.Outcome.seq_area
      | _ -> false)

let prop_ed_iff_window =
  (* Verified assembly: a master is error-detecting exactly when its
     verified arrival is in the resiliency window. *)
  QCheck.Test.make ~name:"EDL assignment matches verified arrivals" ~count:8
    QCheck.(int_bound 40)
    (fun seed ->
      let st = cached_stage seed in
      match Grar.run_on_stage ~c:1.0 st with
      | Error _ -> false
      | Ok r ->
        let o = r.Grar.outcome in
        let period = Clocking.period (Stage.clocking r.Grar.stage) in
        Array.for_all
          (fun (s, a) ->
            let ed = List.mem s o.Outcome.ed_sinks in
            if a > period +. 1e-9 then ed else not ed)
          o.Outcome.arrivals)

(* Deterministic unit checks on one known circuit. *)

let test_regions_exclusive () =
  let st = cached_stage 3 in
  let net = Stage.comb st in
  (* every sink in Rn, no source in Rn *)
  Array.iter
    (fun s ->
      Alcotest.(check bool) "sink in Rn" true (Stage.region st s = Stage.Rn))
    (Stage.sinks st);
  Array.iter
    (fun src ->
      Alcotest.(check bool) "source not Rn" true
        (Stage.region st src <> Stage.Rn))
    (Netlist.inputs net)

let test_grar_converts_targets () =
  let st = cached_stage 3 in
  match Grar.run_on_stage ~c:2.0 st with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok r ->
    (* at c = 2 every modelled conversion must be verified non-ED *)
    List.iter
      (fun s ->
        Alcotest.(check bool) "converted master is non-ED" true
          (not (List.mem s r.Grar.outcome.Outcome.ed_sinks)))
      r.Grar.modelled_non_ed

let test_outcome_area_formula () =
  let st = cached_stage 5 in
  match Base.run_on_stage ~c:1.5 st with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok r ->
    let o = r.Base.outcome in
    let latch = (Liberty.latch (Stage.lib st)).Liberty.seq_area in
    let expect =
      (float_of_int (o.Outcome.n_slaves + o.Outcome.n_masters) *. latch)
      +. (1.5 *. float_of_int (Outcome.ed_count o) *. latch)
    in
    Alcotest.(check (float 1e-6)) "seq area formula" expect o.Outcome.seq_area;
    Alcotest.(check (float 1e-6)) "total = seq + comb"
      (o.Outcome.seq_area +. o.Outcome.comb_area)
      o.Outcome.total_area

let test_sizing_noop_when_clean () =
  let st = cached_stage 7 in
  match Base.run_on_stage ~c:1.0 st with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok r ->
    (* A second sizing pass over a clean result changes nothing. *)
    let limit = Clocking.max_delay (Stage.clocking st) in
    let placements = r.Base.outcome.Outcome.placements in
    (match
       Rar_retime.Sizing.fix ~deadlines:(fun _ -> limit) r.Base.stage
         placements
     with
    | Ok st' ->
      Alcotest.(check bool) "same netlist object" true (st' == r.Base.stage)
    | Error e -> Alcotest.fail (Rar_retime.Error.to_string e))

(* --- stage classification scratch ----------------------------------- *)

(* Everything classification publishes, as one digest. *)
let stage_digest st =
  let buf = Buffer.create 4096 in
  let net = Stage.comb st in
  for v = 0 to Netlist.node_count net - 1 do
    Buffer.add_char buf
      (match Stage.region st v with Stage.Rm -> 'm' | Stage.Rn -> 'n' | Stage.Rr -> 'r')
  done;
  Buffer.add_string buf (Marshal.to_string (Stage.illegal_edges st) []);
  Array.iter
    (fun s ->
      (match Stage.classify st s with
      | Stage.Never_ed -> Buffer.add_string buf "N"
      | Stage.Always_ed -> Buffer.add_string buf "A"
      | Stage.Target { cut } ->
        Buffer.add_string buf (Marshal.to_string (cut, Stage.window_edges st s) []));
      Buffer.add_string buf (Printf.sprintf "%h;" (Stage.max_path st s)))
    (Stage.sinks st);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Two stages whose netlists have the same node count but different
   pin counts: a NAND chain, and an inverter chain over the same
   nodes. *)
let twin_cc ~wide =
  let b = Netlist.Builder.create ~name:(if wide then "wide" else "narrow") () in
  let i = Array.init 4 (fun k -> Netlist.Builder.add_input b (Printf.sprintf "i%d" k)) in
  let gate name fanins =
    let fn = if wide then Rar_netlist.Cell_kind.Nand else Rar_netlist.Cell_kind.Inv in
    let fanins = if wide then fanins else [ List.hd fanins ] in
    Netlist.Builder.add_gate b name ~fn ~fanins ()
  in
  let g0 = gate "g0" [ i.(0); i.(1) ] in
  let g1 = gate "g1" [ g0; i.(2) ] in
  let g2 = gate "g2" [ g1; i.(3) ] in
  let g3 = gate "g3" [ g2; g0 ] in
  ignore (Netlist.Builder.add_output b "o0" ~fanin:g3 : int);
  ignore (Netlist.Builder.add_output b "o1" ~fanin:g1 : int);
  Transform.extract_comb (Netlist.Builder.freeze b)

let test_scratch_alternating_netlists () =
  let lib = Liberty.default () in
  let make cc =
    let clocking, _ = Suite.derive_clocking lib cc in
    match Stage.make ~lib ~clocking cc with
    | Ok st -> stage_digest st
    | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  in
  let narrow = twin_cc ~wide:false and wide = twin_cc ~wide:true in
  let pins cc =
    let cv = Netlist.compact cc.Transform.comb in
    Netlist.Compact.fanin_lo cv (Netlist.Compact.n cv)
  in
  Alcotest.(check int) "equal node counts"
    (Netlist.node_count narrow.Transform.comb)
    (Netlist.node_count wide.Transform.comb);
  Alcotest.(check bool) "different pin counts" true (pins narrow <> pins wide);
  (* References from fresh domains, whose scratch starts empty. *)
  let fresh cc = Domain.join (Domain.spawn (fun () -> make cc)) in
  let ref_narrow = fresh narrow and ref_wide = fresh wide in
  for round = 1 to 3 do
    Alcotest.(check string) (Printf.sprintf "narrow, round %d" round)
      ref_narrow (make narrow);
    Alcotest.(check string) (Printf.sprintf "wide, round %d" round)
      ref_wide (make wide)
  done

(* A walk abandoned by an exception can leave any value in the
   scratch; the next classification on the domain must not read it. *)
let test_scratch_ignores_stale_values () =
  let p = Suite.prepare (Generator.generate (small_spec 5)) in
  let make () =
    match Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking p.Suite.cc with
    | Ok st -> st
    | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  in
  let st = make () in
  let reference = stage_digest st in
  let c = Sta.backward_cone (Stage.sta st) ~sink:(Stage.sinks st).(0) in
  List.iter (fun a -> Array.fill a 0 (Array.length a) 1e9)
    [ c.Sta.rise; c.Sta.fall; c.Sta.slave ];
  List.iter (fun a -> Array.fill a 0 (Array.length a) c.Sta.epoch)
    [ c.Sta.stamp; c.Sta.bad; c.Sta.good ];
  Alcotest.(check string) "same classification after a scribbled scratch"
    reference (stage_digest (make ()))

(* Circuits of 1-3k gates with > 512 sinks, so classification takes
   the pool's parallel branch at every job count above 1. *)
let prop_stage_jobs_identical =
  QCheck.Test.make ~name:"Stage.make digest identical at jobs 1/2/4" ~count:3
    QCheck.(int_bound 1000)
    (fun seed ->
      let spec =
        { Spec.name = "jobs"; n_flops = 520 + (seed mod 80);
          n_pi = 8; n_po = 8; n_gates = 1000 + (seed * 2 mod 2000);
          depth = 8 + (seed mod 5); nce_target = 40;
          seed = Printf.sprintf "jobs%d" seed; src_bias_pct = 55 }
      in
      let p = Suite.prepare (Generator.generate spec) in
      let digest jobs =
        Rar_util.Pool.set_jobs jobs;
        match
          Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking p.Suite.cc
        with
        | Ok st ->
          if Array.length (Stage.sinks st) < 512 then
            QCheck.Test.fail_report "fewer than 512 sinks";
          stage_digest st
        | Error e -> QCheck.Test.fail_report (Rar_retime.Error.to_string e)
      in
      Fun.protect ~finally:(fun () -> Rar_util.Pool.set_jobs 1) @@ fun () ->
      let d1 = digest 1 in
      d1 = digest 2 && d1 = digest 4)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_engines_agree_on_objective;
    QCheck_alcotest.to_alcotest prop_grar_beats_base_model;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_ed_iff_window;
    Alcotest.test_case "regions exclusive" `Quick test_regions_exclusive;
    Alcotest.test_case "grar conversions verified" `Quick
      test_grar_converts_targets;
    Alcotest.test_case "outcome area formula" `Quick test_outcome_area_formula;
    Alcotest.test_case "sizing no-op when clean" `Quick
      test_sizing_noop_when_clean;
    Alcotest.test_case "cone scratch survives alternating netlists" `Quick
      test_scratch_alternating_netlists;
    Alcotest.test_case "stale cone scratch is never read" `Quick
      test_scratch_ignores_stale_values;
    QCheck_alcotest.to_alcotest prop_stage_jobs_identical;
  ]
