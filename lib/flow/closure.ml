type instance = {
  n : int;
  profit : float array;
  implications : (int * int) list;
  must_select : int list;
  must_reject : int list;
}

type outcome = { selected : bool array; best_profit : float }

type error = Contradictory | Uncertified of string

let error_to_string = function
  | Contradictory -> "Closure.solve: contradictory forced selections"
  | Uncertified why -> "Closure.solve: min-cut certificate failed: " ^ why

(* Relative tolerance of the flow = cut check: Dinic treats residuals
   up to its 1e-9 epsilon as saturated, so the two sums may differ by
   rounding, never by a whole edge. *)
let cert_rel_tol = 1e-7

let solve ?deadline inst =
  if Array.length inst.profit <> inst.n then
    invalid_arg "Closure.solve: profit length mismatch";
  let source = inst.n and sink = inst.n + 1 in
  let mf = Maxflow.create ~n:(inst.n + 2) in
  (* "Infinite" capacity: larger than any finite cut. *)
  let inf_cap =
    let s = Array.fold_left (fun acc p -> acc +. Float.abs p) 1. inst.profit in
    1e6 *. s
  in
  let positive_total = ref 0. in
  Array.iteri
    (fun v p ->
      if p > 0. then begin
        positive_total := !positive_total +. p;
        Maxflow.add_edge mf ~src:source ~dst:v ~cap:p
      end
      else if p < 0. then Maxflow.add_edge mf ~src:v ~dst:sink ~cap:(-.p))
    inst.profit;
  List.iter
    (fun (v, u) ->
      if v <> u then Maxflow.add_edge mf ~src:v ~dst:u ~cap:inf_cap)
    inst.implications;
  List.iter
    (fun v -> Maxflow.add_edge mf ~src:source ~dst:v ~cap:inf_cap)
    inst.must_select;
  List.iter
    (fun v -> Maxflow.add_edge mf ~src:v ~dst:sink ~cap:inf_cap)
    inst.must_reject;
  let flow = Maxflow.run ?deadline mf ~source ~sink in
  if flow >= inf_cap *. 0.5 then Error Contradictory
  else begin
    let side = Maxflow.min_cut_source_side mf ~source in
    (* Certificate, over the original capacities: the residual source
       side must exclude the sink and its cut must carry exactly the
       flow (max-flow = min-cut), which proves the cut minimum. *)
    let cut = Maxflow.cut_capacity mf side in
    let gap = Float.abs (flow -. cut) in
    if side.(sink) then Error (Uncertified "sink reachable from the source")
    else if gap > cert_rel_tol *. Float.max 1. (Float.abs cut) then
      Error
        (Uncertified
           (Printf.sprintf "flow %.17g <> cut capacity %.17g" flow cut))
    else begin
      let selected = Array.init inst.n (fun v -> side.(v)) in
      let best_profit = ref 0. in
      Array.iteri
        (fun v s -> if s then best_profit := !best_profit +. inst.profit.(v))
        selected;
      Ok { selected; best_profit = !best_profit }
    end
  end
