(* Request inputs of the socket workload.

   A kind is one builtin nest at one size.  serve-miss derives fresh
   nests from the kinds by shifting subscript offsets, which keeps the
   corpus's mix of strategies. *)

open Loopir.Ast

type kind = { name : string; prog : program; params : (string * int) list }

(* Every loop-bound parameter takes [size], except Cholesky's matrix
   count and right-hand sides, which multiply the work without changing
   the dependence pattern. *)
let params_at (prog : program) size =
  List.map
    (fun p ->
      ( p,
        match (prog.name, p) with
        | "cholesky", ("nmat" | "nrhs") -> 1
        | "cholesky", "m" -> max 1 (size / 2)
        | _ -> size ))
    prog.params

let key_of ~params prog = Svc.Key.to_string (Svc.Key.of_request ~params prog)

(* Every builtin nest at each size; nests without parameters (fig2)
   appear once. *)
let kinds sizes =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun (name, prog) ->
      List.filter_map
        (fun size ->
          let params = params_at prog size in
          let k = key_of ~params prog in
          if Hashtbl.mem seen k then None
          else begin
            Hashtbl.add seen k ();
            Some { name = Printf.sprintf "%s@%d" name size; prog; params }
          end)
        sizes)
    Loopir.Builtin.all
  |> Array.of_list

(* [shift off prog] adds [off a d] to the [d]-th subscript of every
   reference to array [a].  All references to one array move together,
   so every dependence, and with it the strategy and the schedule, is
   that of the original nest: only the cells' addresses change. *)
let shift off (prog : program) =
  let rec expr e =
    match e with
    | Ref (a, subs) -> Ref (a, subscripts a subs)
    | Bin (op, x, y) -> Bin (op, expr x, expr y)
    | Un (op, x) -> Un (op, expr x)
    | Min l -> Min (List.map expr l)
    | Max l -> Max (List.map expr l)
    | Mod (x, y) -> Mod (expr x, expr y)
    | Pow (x, k) -> Pow (expr x, k)
    | Int _ | Real _ | Var _ -> e
  and subscripts a subs =
    List.mapi (fun d s -> Bin (Add, expr s, Int (off a d))) subs
  in
  let rec stmt = function
    | Assign ((a, subs), rhs) -> Assign ((a, subscripts a subs), expr rhs)
    | Loop l ->
        Loop
          { l with lo = expr l.lo; hi = expr l.hi; body = List.map stmt l.body }
  in
  program ~name:prog.name (List.map stmt prog.body)

(* A request line without its id: the fields after ["id"], rendered once
   so each op only prepends its id. *)
type line = { kind : int; tail : string }

let line_of ~kind (k : kind) prog =
  match
    Svc.Proto.request_to_json
      (Svc.Proto.request ~id:"" ~name:k.name ~params:k.params
         (Svc.Proto.Prog prog))
  with
  | Pipeline.Json.Obj (("id", _) :: rest) ->
      let s = Pipeline.Json.to_string (Pipeline.Json.Obj rest) in
      { kind; tail = String.sub s 1 (String.length s - 1) }
  | _ -> failwith "request_to_json: unexpected shape"

let render ~id l = Printf.sprintf "{\"id\":\"%s\",%s" id l.tail

(* The key the server will compute for the line: decode it and parse its
   source exactly as the server does. *)
let key_of_line l =
  match Svc.Proto.request_of_line (render ~id:"k" l) with
  | Ok { Svc.Proto.source = Svc.Proto.Src src; name; params; _ } ->
      key_of ~params (Loopir.Parser.parse ~name src)
  | Ok { Svc.Proto.source = Svc.Proto.Prog p; params; _ } -> key_of ~params p
  | Error e -> failwith e.Svc.Proto.message

(* serve-miss inputs: a kind shifted by fresh, seeded per-array,
   per-dimension offsets.  [seen] holds every key handed out,
   so the nests are distinct by construction, not by luck. *)
type gen = {
  kinds : kind array;
  rng : Random.State.t;
  seen : (string, unit) Hashtbl.t;
}

let gen kinds ~seed =
  { kinds; rng = Random.State.make [| seed; 0x5e7e |]; seen = Hashtbl.create 4096 }

let rec fresh g ~kind =
  let k = g.kinds.(kind) in
  let offs = Hashtbl.create 8 in
  let off a d =
    match Hashtbl.find_opt offs (a, d) with
    | Some o -> o
    | None ->
        let o = 1 + Random.State.int g.rng 4096 in
        Hashtbl.add offs (a, d) o;
        o
  in
  let l = line_of ~kind k (shift off k.prog) in
  let key = key_of_line l in
  if Hashtbl.mem g.seen key then fresh g ~kind
  else begin
    Hashtbl.add g.seen key ();
    l
  end
