(* Per-layer accounting for the traced run.

   The benchmark wraps each call it makes into a layer's public
   function in a span of its own ("bench/<layer>.<fn>") and takes a
   [Gc.quick_stat] delta around it. The program's own [Rar_obs] spans
   (sta, stage/patch, engine, difflp/solve, solver and classic spans)
   nest inside those. A layer's time is the summed self time of its
   spans: each span's duration minus the part its child spans cover. *)

module Trace = Rar_obs.Trace

type gc = { mutable minor : float; mutable major : float; mutable alloc : float }

let armed = ref false
let gc_by_layer : (string, gc) Hashtbl.t = Hashtbl.create 8

(* [call layer fn f] runs one outside call into [layer]. Untraced it is
   [f ()]; traced it records the span and the calling domain's
   allocation during the call. *)
let call layer fn f =
  if not !armed then f ()
  else begin
    let g =
      match Hashtbl.find_opt gc_by_layer layer with
      | Some g -> g
      | None ->
        let g = { minor = 0.; major = 0.; alloc = 0. } in
        Hashtbl.add gc_by_layer layer g;
        g
    in
    let s0 = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () ->
        let s1 = Gc.quick_stat () in
        let minor = s1.Gc.minor_words -. s0.Gc.minor_words in
        let major = s1.Gc.major_words -. s0.Gc.major_words in
        let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
        g.minor <- g.minor +. minor;
        g.major <- g.major +. major;
        g.alloc <- g.alloc +. minor +. major -. promoted)
      (fun () -> Trace.span ("bench/" ^ layer ^ "." ^ fn) f)
  end

let gc layer =
  match Hashtbl.find_opt gc_by_layer layer with
  | Some g -> g
  | None -> { minor = 0.; major = 0.; alloc = 0. }

let arm () =
  Hashtbl.reset gc_by_layer;
  Trace.clear ();
  Rar_obs.Metrics.reset ();
  Trace.arm ();
  Rar_obs.Metrics.arm ();
  armed := true

let disarm () =
  armed := false;
  Trace.disarm ();
  Rar_obs.Metrics.disarm ()

(* Run [f] untraced inside a traced phase, keeping what was recorded
   so far: for untimed work between passes, which the layer figures
   and the coverage must not count. *)
let paused f =
  if not !armed then f ()
  else begin
    disarm ();
    Fun.protect
      ~finally:(fun () ->
        Trace.arm ();
        Rar_obs.Metrics.arm ();
        armed := true)
      f
  end

type spans = {
  self : (string, float) Hashtbl.t;  (* summed self seconds per name *)
  incl : (string, float) Hashtbl.t;  (* summed inclusive seconds per name *)
  count : (string, int) Hashtbl.t;
  root_s : float;  (* summed duration of outermost spans on [dom] *)
}

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* Fold the recorded events into per-name self/inclusive totals. Spans
   nest per domain; [dom] is the benchmark's own domain, whose
   outermost spans measure how much of the timed phase the layer
   spans cover. *)
let spans ~dom =
  let self = Hashtbl.create 32 and incl = Hashtbl.create 32 in
  let count = Hashtbl.create 32 in
  let root_s = ref 0. in
  (* per domain: stack of (name, start, children seconds) *)
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : Trace.event) ->
      let st =
        match Hashtbl.find_opt stacks e.dom with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add stacks e.dom s;
          s
      in
      match e.phase with
      | Trace.Begin -> st := (e.name, e.ts_s, ref 0.) :: !st
      | Trace.End -> (
        match !st with
        | (n, t0, kids) :: rest when n = e.name ->
          let d = e.ts_s -. t0 in
          st := rest;
          add incl n d;
          add self n (d -. !kids);
          Hashtbl.replace count n
            (1 + Option.value ~default:0 (Hashtbl.find_opt count n));
          (match rest with
          | (_, _, parent) :: _ -> parent := !parent +. d
          | [] -> if e.dom = dom then root_s := !root_s +. d)
        | _ -> ()))
    (Trace.events ());
  { self; incl; count; root_s = !root_s }

(* Totals of two traced phases (set-up and timed passes); the root
   time is the second's, so coverage speaks of the timed phase. *)
let merge a b =
  let copy t = Hashtbl.copy t in
  let self = copy a.self and incl = copy a.incl and count = copy a.count in
  Hashtbl.iter (fun k v -> add self k v) b.self;
  Hashtbl.iter (fun k v -> add incl k v) b.incl;
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace count k (v + Option.value ~default:0 (Hashtbl.find_opt count k)))
    b.count;
  { self; incl; count; root_s = b.root_s }

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

(* Summed self time of every span whose name satisfies [p]. *)
let self_where s p =
  Hashtbl.fold (fun k v acc -> if p k then acc +. v else acc) s.self 0.

let has_prefix pre s =
  String.length s >= String.length pre
  && String.sub s 0 (String.length pre) = pre

let counter name =
  let counters, gauges = Rar_obs.Metrics.snapshot () in
  match List.assoc_opt name counters with
  | Some v -> v
  | None -> Option.value ~default:0 (List.assoc_opt name gauges)
