type t = string

let equal = String.equal
let compare = String.compare
let hash (k : t) = Hashtbl.hash k
let to_string (k : t) = k
let of_hex (s : string) : t = s

(* Alpha-rename loop indices to position-derived names ($0, $1, … in
   pre-order), respecting shadowing: an inner loop reusing an outer index
   name rebinds it for its own body only.  Bounds of a loop are renamed in
   the enclosing scope (the index is not in scope in its own bounds). *)
let canonical prog =
  let prog = Loopir.Normalize.unit_strides prog in
  let counter = ref 0 in
  let rn_expr env e =
    Loopir.Ast.map_expr
      (function
        | Loopir.Ast.Var v as e -> (
            match List.assoc_opt v env with
            | Some fresh -> Loopir.Ast.Var fresh
            | None -> e)
        | e -> e)
      e
  in
  let rec rn_stmt env = function
    | Loopir.Ast.Assign ((a, subs), rhs) ->
        Loopir.Ast.Assign
          ((a, List.map (rn_expr env) subs), rn_expr env rhs)
    | Loopir.Ast.Loop l ->
        let lo = rn_expr env l.Loopir.Ast.lo
        and hi = rn_expr env l.Loopir.Ast.hi in
        let fresh = Printf.sprintf "$%d" !counter in
        incr counter;
        let env = (l.Loopir.Ast.index, fresh) :: env in
        Loopir.Ast.Loop
          {
            Loopir.Ast.index = fresh;
            lo;
            hi;
            step = l.Loopir.Ast.step;
            body = List.map (rn_stmt env) l.Loopir.Ast.body;
          }
  in
  {
    Loopir.Ast.name = "";
    params = prog.Loopir.Ast.params;
    body = List.map (rn_stmt []) prog.Loopir.Ast.body;
  }

let of_request ?strategy ?(extra = []) ~params prog =
  let c = canonical prog in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Loopir.Pretty.program_to_string c);
  Buffer.add_string buf "\nparams:";
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d;" k v))
    (List.filter (fun (k, _) -> List.mem k c.Loopir.Ast.params) params
    |> List.sort (fun (a, _) (b, _) -> String.compare a b));
  Buffer.add_string buf "\nstrategy:";
  Buffer.add_string buf
    (match strategy with
    | None -> "auto"
    | Some s -> Pipeline.Plan.strategy_name s);
  List.iter
    (fun e ->
      Buffer.add_char buf '\n';
      Buffer.add_char buf '+';
      Buffer.add_string buf e)
    extra;
  (* 128-bit FNV-1a over the canonical request text; the digest discipline
     lives in Numeric.Digest, shared with the presburger hash-cons layer. *)
  Numeric.Digest.(to_hex (of_string (Buffer.contents buf)))
