module B = Netlist.Builder
module Diag = Rar_util.Diag
module Faults = Rar_resilience.Faults

(* Internal structured error. [line = 0] marks the unlocated errors the
   legacy [parse] reported without a "line N:" prefix (OUTPUT-phase
   lookups, freeze failures); the legacy rendering must stay
   byte-identical. *)
type err = { line : int; col : int; msg : string }

let legacy_of_err e =
  if e.line > 0 then Printf.sprintf "line %d: %s" e.line e.msg else e.msg

let diag_of_err ?file e = Diag.make ?file ~line:e.line ~col:e.col e.msg

type line =
  | L_input of string
  | L_output of string
  | L_assign of string * string * string list (* lhs, op, args *)
  | L_blank

let strip s = String.trim s

let parse_line ln =
  let s = strip ln in
  if s = "" || s.[0] = '#' then Ok L_blank
  else
    let paren s =
      match (String.index_opt s '(', String.rindex_opt s ')') with
      | Some i, Some j when j > i ->
        Some (strip (String.sub s 0 i), strip (String.sub s (i + 1) (j - i - 1)))
      | _ -> None
    in
    match String.index_opt s '=' with
    | None -> (
      match paren s with
      | Some (kw, arg) -> (
        match String.uppercase_ascii kw with
        | "INPUT" -> Ok (L_input arg)
        | "OUTPUT" -> Ok (L_output arg)
        | _ -> Error (Printf.sprintf "unknown directive %S" kw))
      | None -> Error "expected INPUT(..), OUTPUT(..) or an assignment")
    | Some eq -> (
      let lhs = strip (String.sub s 0 eq) in
      let rhs = strip (String.sub s (eq + 1) (String.length s - eq - 1)) in
      match paren rhs with
      | None -> Error "right-hand side must be OP(args)"
      | Some (op, args) ->
        let args =
          if strip args = "" then []
          else List.map strip (String.split_on_char ',' args)
        in
        Ok (L_assign (lhs, op, args)))

(* Column of the first non-blank character, 1-based; 0 for all-blank. *)
let content_col ln =
  let n = String.length ln in
  let rec go i =
    if i >= n then 0
    else if ln.[i] = ' ' || ln.[i] = '\t' || ln.[i] = '\r' then go (i + 1)
    else i + 1
  in
  go 0

let parse_err text =
  let text = Faults.truncate text in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let b = B.create ~name:"bench" () in
  let ids = Hashtbl.create 64 in
  (* signal name -> node id (deferred for gates/flops) *)
  let pending = ref [] in
  (* (id, arg names) to connect *)
  let outputs = ref [] in
  let errors = ref [] in
  let at lineno msg =
    let col = if lineno > 0 then content_col lines.(lineno - 1) else 0 in
    errors := { line = lineno; col; msg } :: !errors
  in
  let lookup name =
    match Hashtbl.find_opt ids name with
    | Some id -> Ok id
    | None -> Error (Printf.sprintf "undefined signal %S" name)
  in
  let define name id =
    if Hashtbl.mem ids name then
      Error (Printf.sprintf "signal %S defined twice" name)
    else begin
      Hashtbl.add ids name id;
      Ok ()
    end
  in
  (try
     Array.iteri
       (fun i ln ->
         let fail msg = at (i + 1) msg in
         match parse_line ln with
         | Error msg -> fail msg
         | Ok L_blank -> ()
         | Ok (L_input name) -> (
           match define name (B.add_input b name) with
           | Ok () -> ()
           | Error msg -> fail msg)
         | Ok (L_output name) -> outputs := name :: !outputs
         | Ok (L_assign (lhs, op, args)) -> (
           let mk () =
             match String.uppercase_ascii op with
             | "DFF" -> Ok (B.add_seq_deferred b lhs ~role:Netlist.Flop)
             | "MLATCH" -> Ok (B.add_seq_deferred b lhs ~role:Netlist.Master)
             | "SLATCH" -> Ok (B.add_seq_deferred b lhs ~role:Netlist.Slave)
             | _ -> (
               match Cell_kind.of_name op with
               | Some fn -> Ok (B.add_gate_deferred b lhs ~fn ())
               | None -> Error (Printf.sprintf "unknown operator %S" op))
           in
           match mk () with
           | Error msg -> fail msg
           | Ok id -> (
             match define lhs id with
             | Error msg -> fail msg
             | Ok () -> pending := (id, args, i + 1) :: !pending)))
       lines;
     (* Wire deferred nodes. *)
     List.iter
       (fun (id, args, lineno) ->
         let resolved = List.map lookup args in
         match
           List.fold_right
             (fun r acc ->
               match (r, acc) with
               | Ok id, Ok ids -> Ok (id :: ids)
               | Error e, _ -> Error e
               | _, (Error _ as e) -> e)
             resolved (Ok [])
         with
         | Ok fanins -> B.connect b id ~fanins
         | Error msg -> at lineno msg)
       !pending;
     (* OUTPUT(x) names a signal; create a sink node for it. *)
     List.iter
       (fun name ->
         match lookup name with
         | Error msg -> at 0 msg
         | Ok id ->
           let po_name =
             if Hashtbl.mem ids (name ^ "$po") then name ^ "$po2"
             else name ^ "$po"
           in
           ignore (B.add_output b po_name ~fanin:id))
       (List.rev !outputs);
     match !errors with
     | e :: _ -> Error e
     | [] -> ( try Ok (B.freeze b) with Failure msg -> Error { line = 0; col = 0; msg })
   with
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | e ->
    (* Mutated input must never escape as an exception; anything the
       builder throws on malformed structure becomes a located error. *)
    Error
      {
        line = 0;
        col = 0;
        msg =
          Printf.sprintf "Bench_io.parse: unexpected exception %s"
            (Printexc.to_string e);
      })

let parse text =
  match parse_err text with
  | Ok net -> Ok net
  | Error e -> Error (legacy_of_err e)

let parse_diag ?file text =
  match parse_err text with
  | Ok net -> Ok net
  | Error e -> Error (diag_of_err ?file e)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic len)

let parse_file_diag path =
  match read_file path with
  | exception Sys_error msg -> Error (Diag.make msg)
  | text -> parse_diag ~file:path text

let op_name fn = String.uppercase_ascii (Cell_kind.name fn)

let print net =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" (Netlist.name net));
  Array.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "INPUT(%s)\n" (Netlist.node_name net v)))
    (Netlist.inputs net);
  Array.iter
    (fun v ->
      let driver = (Netlist.fanins net v).(0) in
      Buffer.add_string buf
        (Printf.sprintf "OUTPUT(%s)\n" (Netlist.node_name net driver)))
    (Netlist.outputs net);
  let args v =
    String.concat ", "
      (Array.to_list
         (Array.map (fun u -> Netlist.node_name net u) (Netlist.fanins net v)))
  in
  for v = 0 to Netlist.node_count net - 1 do
    match Netlist.kind net v with
    | Netlist.Input | Netlist.Output -> ()
    | Netlist.Gate { fn; _ } ->
      Buffer.add_string buf
        (Printf.sprintf "%s = %s(%s)\n" (Netlist.node_name net v) (op_name fn)
           (args v))
    | Netlist.Seq role ->
      let op =
        match role with
        | Netlist.Flop -> "DFF"
        | Netlist.Master -> "MLATCH"
        | Netlist.Slave -> "SLATCH"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s = %s(%s)\n" (Netlist.node_name net v) op (args v))
  done;
  Buffer.contents buf
