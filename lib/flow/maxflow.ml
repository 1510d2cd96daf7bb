module Vec = Rar_util.Vec

let eps = 1e-9

(* [cap] is the residual capacity; [cap0] the capacity the edge was
   added with (0 on reverse edges), kept for the cut certificate. *)
type edge = { dst : int; mutable cap : float; inv : int; cap0 : float }

type t = {
  n : int;
  edges : edge Vec.t;
  head : int list array; (* edge ids per node *)
  mutable ran : bool;
}

let create ~n = { n; edges = Vec.create (); head = Array.make n []; ran = false }

let add_edge t ~src ~dst ~cap =
  if cap < 0. then invalid_arg "Maxflow.add_edge: negative capacity";
  let i = Vec.length t.edges in
  Vec.add_last t.edges { dst; cap; inv = i + 1; cap0 = cap };
  Vec.add_last t.edges { dst = src; cap = 0.; inv = i; cap0 = 0. };
  t.head.(src) <- i :: t.head.(src);
  t.head.(dst) <- (i + 1) :: t.head.(dst)

let run ?deadline t ~source ~sink =
  if t.ran then invalid_arg "Maxflow.run: already ran";
  t.ran <- true;
  let tick () =
    match deadline with
    | None -> ()
    | Some d -> Rar_util.Deadline.check d ~phase:"maxflow"
  in
  let head = Array.map Array.of_list t.head in
  let edges = Vec.to_array t.edges in
  let level = Array.make t.n (-1) in
  let iter = Array.make t.n 0 in
  let bfs () =
    Array.fill level 0 t.n (-1);
    level.(source) <- 0;
    let q = Queue.create () in
    Queue.add source q;
    while not (Queue.is_empty q) do
      tick ();
      let u = Queue.pop q in
      Array.iter
        (fun ei ->
          let e = edges.(ei) in
          if e.cap > eps && level.(e.dst) < 0 then begin
            level.(e.dst) <- level.(u) + 1;
            Queue.add e.dst q
          end)
        head.(u)
    done;
    level.(sink) >= 0
  in
  let rec dfs u pushed =
    if u = sink then pushed
    else begin
      let result = ref 0. in
      while !result = 0. && iter.(u) < Array.length head.(u) do
        tick ();
        let ei = head.(u).(iter.(u)) in
        let e = edges.(ei) in
        if e.cap > eps && level.(e.dst) = level.(u) + 1 then begin
          let d = dfs e.dst (Float.min pushed e.cap) in
          if d > eps then begin
            e.cap <- e.cap -. d;
            edges.(e.inv).cap <- edges.(e.inv).cap +. d;
            result := d
          end
          else iter.(u) <- iter.(u) + 1
        end
        else iter.(u) <- iter.(u) + 1
      done;
      !result
    end
  in
  let total = ref 0. in
  while bfs () do
    Array.fill iter 0 t.n 0;
    let pushed = ref (dfs source infinity) in
    while !pushed > eps do
      total := !total +. !pushed;
      pushed := dfs source infinity
    done
  done;
  !total

let min_cut_source_side t ~source =
  if not t.ran then invalid_arg "Maxflow.min_cut_source_side: run first";
  let seen = Array.make t.n false in
  let stack = ref [ source ] in
  seen.(source) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: rest ->
      stack := rest;
      List.iter
        (fun ei ->
          let e = Vec.get t.edges ei in
          if e.cap > eps && not seen.(e.dst) then begin
            seen.(e.dst) <- true;
            stack := e.dst :: !stack
          end)
        t.head.(u)
  done;
  seen

let cut_capacity t side =
  let total = ref 0. in
  Array.iteri
    (fun u ids ->
      if side.(u) then
        List.iter
          (fun ei ->
            let e = Vec.get t.edges ei in
            if not side.(e.dst) then total := !total +. e.cap0)
          ids)
    t.head;
  !total
