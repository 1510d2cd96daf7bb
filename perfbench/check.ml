(* Output checks that share no code with the engines' own verdicts.

   The retiming engines verify their placements through
   [Outcome.assemble], which reuses the stage's compiled STA. These
   checks rebuild the same timing model from the netlist and the
   library alone (topological order, library pin arcs, unateness) and
   re-derive everything a result claims: slave crossings, arrivals,
   the error-detecting set, violations, area, and for classic retiming
   the period and register count of the realized netlist. *)

module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Cell_kind = Rar_netlist.Cell_kind
module Liberty = Rar_liberty.Liberty
module Clocking = Rar_sta.Clocking
module Sta = Rar_sta.Sta
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Classic = Rar_retime.Classic

let eps = 1e-9

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let ( let* ) = Result.bind

(* Every pin a placement claims to latch must be a real fanout pin of
   the node the slave sits after. *)
let latched_pins comb placements =
  let tbl = Hashtbl.create 256 in
  let bad = ref None in
  List.iter
    (fun (p : Transform.placement) ->
      List.iter
        (fun (v, pin) ->
          let fi = Netlist.fanins comb v in
          if pin < 0 || pin >= Array.length fi || fi.(pin) <> p.after then
            bad := Some (Netlist.node_name comb v, pin)
          else Hashtbl.replace tbl (v, pin) ())
        p.latched)
    placements;
  match !bad with
  | Some (v, pin) ->
    fail "placement latches %s pin %d, which the slave's node does not feed" v pin
  | None -> Ok (fun v pin -> Hashtbl.mem tbl (v, pin))

(* Min and max slave count over the paths from the masters (comb
   inputs) to every node; each master->master path must cross exactly
   one slave. *)
let check_crossings comb latched =
  let n = Netlist.node_count comb in
  let lo = Array.make n 0 and hi = Array.make n 0 in
  Array.iter
    (fun v ->
      match Netlist.kind comb v with
      | Netlist.Input -> ()
      | Netlist.Gate _ | Netlist.Output ->
        let l = ref max_int and h = ref min_int in
        Array.iteri
          (fun pin u ->
            let s = if latched v pin then 1 else 0 in
            l := min !l (lo.(u) + s);
            h := max !h (hi.(u) + s))
          (Netlist.fanins comb v);
        lo.(v) <- !l;
        hi.(v) <- !h
      | Netlist.Seq _ -> ())
    (Netlist.topo_comb comb);
  let bad =
    Array.to_list (Netlist.outputs comb)
    |> List.filter (fun s -> lo.(s) <> 1 || hi.(s) <> 1)
  in
  match bad with
  | [] -> Ok ()
  | s :: _ ->
    fail "%d master->master paths cross slaves wrongly (e.g. into %s: %d..%d)"
      (List.length bad) (Netlist.node_name comb s) lo.(s) hi.(s)

(* Worst rise/fall arrival at every node with slaves on the latched
   pins: masters launch at the latch clock-to-Q, a slave passes data at
   max(open, D + d_to_q). *)
let arrivals ~model ~annot ~lib ~clocking comb latched =
  let latch = Liberty.latch lib in
  let open_t = Clocking.slave_open clocking +. latch.Liberty.ck_to_q in
  let through_slave a = Float.max open_t (a +. latch.Liberty.d_to_q) in
  let n = Netlist.node_count comb in
  let ar = Array.make n neg_infinity and af = Array.make n neg_infinity in
  let extra v = match annot with Some a -> a.(v) | None -> 0. in
  let input v pin u =
    if latched v pin then (through_slave ar.(u), through_slave af.(u))
    else (ar.(u), af.(u))
  in
  Array.iter
    (fun v ->
      match Netlist.kind comb v with
      | Netlist.Input ->
        ar.(v) <- latch.Liberty.ck_to_q;
        af.(v) <- latch.Liberty.ck_to_q
      | Netlist.Output ->
        let r, f = input v 0 (Netlist.fanins comb v).(0) in
        ar.(v) <- r;
        af.(v) <- f
      | Netlist.Gate { fn; drive } ->
        let cell = Liberty.comb_cell lib fn ~drive in
        let load = Liberty.gate_load lib comb v in
        let x = extra v in
        let adj d = if x = 0. then d else d +. x in
        Array.iteri
          (fun pin u ->
            let in_r, in_f = input v pin u in
            let pa = Liberty.pin_arc cell ~pin ~load in
            let out_r, out_f =
              match model with
              | Sta.Gate_based ->
                let d = adj (Liberty.arc_max pa) in
                let w = Float.max in_r in_f in
                (w +. d, w +. d)
              | Sta.Path_based -> (
                let dr = adj pa.Liberty.rise and df = adj pa.Liberty.fall in
                match Cell_kind.unateness fn pin with
                | Cell_kind.Positive -> (in_r +. dr, in_f +. df)
                | Cell_kind.Negative -> (in_f +. dr, in_r +. df)
                | Cell_kind.Non_unate ->
                  let w = Float.max in_r in_f in
                  (w +. dr, w +. df))
            in
            if out_r > ar.(v) then ar.(v) <- out_r;
            if out_f > af.(v) then af.(v) <- out_f)
          (Netlist.fanins comb v)
      | Netlist.Seq _ -> ())
    (Netlist.topo_comb comb);
  fun v -> Float.max ar.(v) af.(v)

(* A G-RAR, base or RVL result: [stage] is the (post-sizing) stage the
   engine verified on, [c] the EDL overhead the area was priced at. *)
let retimed ~c stage (o : Outcome.t) =
  let comb = Stage.comb stage in
  let lib = Stage.lib stage and clocking = Stage.clocking stage in
  let* () =
    if Netlist.seqs comb <> [||] then
      fail "combinational stage holds sequential nodes"
    else Ok ()
  in
  let* latched = latched_pins comb o.placements in
  let* () = check_crossings comb latched in
  let arr =
    arrivals ~model:(Stage.model stage) ~annot:(Stage.annot stage) ~lib
      ~clocking comb latched
  in
  let period = Clocking.period clocking and limit = Clocking.max_delay clocking in
  let sinks = Netlist.outputs comb in
  let late = Array.to_list sinks |> List.filter (fun s -> arr s > limit +. eps) in
  let needs_ed =
    Array.to_list sinks |> List.filter (fun s -> arr s > period +. eps)
  in
  let ed = List.sort_uniq compare o.ed_sinks in
  let* () =
    match late with
    | [] -> Ok ()
    | s :: _ ->
      fail "%d masters miss max delay (e.g. %s at %.4f > %.4f)"
        (List.length late) (Netlist.node_name comb s) (arr s) limit
  in
  let* () =
    if o.violations = [] then Ok ()
    else fail "engine reports %d violations" (List.length o.violations)
  in
  let* () =
    if ed = List.sort compare needs_ed then Ok ()
    else
      fail "ED set has %d masters, recomputed arrivals need %d"
        (List.length ed) (List.length needs_ed)
  in
  let latch_area = (Liberty.latch lib).Liberty.seq_area in
  let n_slaves = List.length o.placements and n_masters = Array.length sinks in
  let area =
    (float_of_int (n_slaves + n_masters) *. latch_area)
    +. (float_of_int (List.length ed) *. c *. latch_area)
    +. Liberty.comb_area lib comb
  in
  if o.n_slaves <> n_slaves || o.n_masters <> n_masters then
    fail "outcome counts %d slaves / %d masters, design has %d / %d"
      o.n_slaves o.n_masters n_slaves n_masters
  else if Float.abs (area -. o.total_area) > 1e-6 *. Float.max 1. area then
    fail "outcome area %.4f, recomputed %.4f" o.total_area area
  else Ok ()

(* Longest register-free path of a flop netlist, with the worst-pin,
   worst-transition gate delays at current loads; primary inputs and
   flop outputs launch at 0. *)
let flop_period ~lib net =
  let n = Netlist.node_count net in
  let arr = Array.make n 0. in
  let worst = ref 0. in
  Array.iter
    (fun v ->
      match Netlist.kind net v with
      | Netlist.Gate { fn; drive } ->
        let fi = Netlist.fanins net v in
        let d =
          Liberty.cell_delay_max
            (Liberty.comb_cell lib fn ~drive)
            ~n_pins:(Array.length fi) ~load:(Liberty.gate_load lib net v)
        in
        let a = Array.fold_left (fun m u -> Float.max m arr.(u)) 0. fi +. d in
        arr.(v) <- a;
        if a > !worst then worst := a
      | Netlist.Input | Netlist.Output | Netlist.Seq _ -> ())
    (Netlist.topo_comb net);
  !worst

let flop_count net =
  Array.fold_left
    (fun k v ->
      match Netlist.kind net v with Netlist.Seq Netlist.Flop -> k + 1 | _ -> k)
    0 (Netlist.seqs net)

(* A classic FEAS result against its input netlist: same logic, a
   valid netlist, and the reported period and register count match a
   fresh analysis of the realized design. *)
let classic ~lib ~input (o : Classic.outcome) =
  let net = o.retimed in
  let* () =
    match Netlist.validate net with
    | Ok () -> Ok ()
    | Error e -> fail "realized netlist invalid: %s" e
  in
  let gates x = Array.length (Netlist.gates x) in
  let* () =
    if gates net = gates input then Ok ()
    else fail "realized netlist has %d gates, input %d" (gates net) (gates input)
  in
  let regs = flop_count net and p = flop_period ~lib net in
  if regs <> o.registers_after then
    fail "reported %d registers, realized netlist has %d" o.registers_after regs
  else if Float.abs (p -. o.achieved_period) > eps *. Float.max 1. p then
    fail "reported period %.6f ns, realized netlist measures %.6f ns"
      o.achieved_period p
  else Ok ()
