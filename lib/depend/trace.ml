module Ast = Loopir.Ast

type instance = { inst : int; stmt : int; iter : int array }

type t = {
  instances : instance array;
  edge_src : int array;
  edge_dst : int array;
}

let c_builds = Obs.Counter.make "trace.builds"

let n_edges t = Array.length t.edge_src

let iter_edges t f =
  for k = 0 to Array.length t.edge_src - 1 do
    f t.edge_src.(k) t.edge_dst.(k)
  done

let edges t =
  List.init (Array.length t.edge_src) (fun k -> (t.edge_src.(k), t.edge_dst.(k)))

(* Doubles an array, keeping its contents. *)
let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ---- compilation -------------------------------------------------------- *)

(* Index expressions compiled against the loop-slot scope: a name binds to
   its innermost enclosing loop, else to a parameter.  A name bound by
   neither compiles to a closure that raises when evaluated, like every
   other failure of {!Loopir.Eval_int.compile}, so a statement that never
   runs never fails. *)
let cint scope params =
  Loopir.Eval_int.compile ~var:(fun v ->
      match List.assoc_opt v scope with
      | Some j -> fun it -> it.(j)
      | None -> (
          match List.assoc_opt v params with
          | Some k -> fun _ -> k
          | None -> fun _ -> Diag.fail (Diag.Unbound_variable v)))

(* An array reference: its compiled subscripts, and the key they are
   evaluated into — the array's interned name, then the subscripts, so the
   key's length tells the ranks of one name apart. *)
type cref = { key : int array; subs : (int array -> int) array }

type node =
  | Stmt of { id : int; depth : int; reads : cref array; write : cref }
  | Loop of {
      slot : int;
      lo : int array -> int;
      hi : int array -> int;
      body : node array;
    }

(* The right-hand side's references in recording order: subscripts' own
   references first, then the reference itself; operands left to
   right. *)
let rec reads_of cref acc = function
  | Ast.Int _ | Ast.Real _ | Ast.Var _ -> acc
  | Ast.Ref (a, subs) -> cref (a, subs) :: List.fold_left (reads_of cref) acc subs
  | Ast.Bin (_, a, b) | Ast.Mod (a, b) -> reads_of cref (reads_of cref acc a) b
  | Ast.Un (_, a) | Ast.Pow (a, _) -> reads_of cref acc a
  | Ast.Min es | Ast.Max es -> List.fold_left (reads_of cref) acc es

(* ---- cells ---------------------------------------------------------------- *)

(* The cells touched so far, keyed by (name, subscripts): memory follows
   the distinct cells, never the arrays' extents.  Each cell holds its last
   writer and the readers since that write, most recent first. *)
module Cells = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    let i = ref 0 in
    if n = Array.length b then
      while !i < n && a.(!i) = b.(!i) do
        incr i
      done;
    !i = n

  (* Multiplicative mixing, with the high bits folded down: the table
     masks the low ones, which strided subscripts leave all alike. *)
  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h + a.(i)) * 0x2545F4914F6CDD1D
    done;
    (!h lxor (!h lsr 32)) land max_int
end)

type cell = { mutable writer : int; mutable readers : int list }

(* Evaluates a reference's subscripts, left to right, into its key and
   returns its cell; the key is copied only when the cell is new. *)
let cell_of cells r it =
  let key = r.key and subs = r.subs in
  for i = 0 to Array.length subs - 1 do
    key.(i + 1) <- subs.(i) it
  done;
  match Cells.find cells key with
  | c -> c
  | exception Not_found ->
      let c = { writer = -1; readers = [] } in
      Cells.add cells (Array.copy key) c;
      c

(* Growable int-pair buffer. *)
type ebuf = { mutable src : int array; mutable dst : int array; mutable len : int }

let ebuf_push b s d =
  if b.len = Array.length b.src then begin
    b.src <- grow b.src 0;
    b.dst <- grow b.dst 0
  end;
  b.src.(b.len) <- s;
  b.dst.(b.len) <- d;
  b.len <- b.len + 1

let add_edge eb src dst = if src <> dst then ebuf_push eb src dst

let read eb inst c =
  if c.writer >= 0 then add_edge eb c.writer inst;
  c.readers <- inst :: c.readers

let write eb inst c =
  if c.writer >= 0 then add_edge eb c.writer inst;
  List.iter (fun r -> add_edge eb r inst) c.readers;
  c.readers <- [];
  c.writer <- inst

(* ---- the pass ------------------------------------------------------------- *)

let build prog ~params =
  Obs.Counter.incr c_builds;
  let prog = Loopir.Normalize.unit_strides prog in
  List.iter
    (fun p ->
      if not (List.mem_assoc p params) then
        Diag.fail (Diag.Unbound_parameter p))
    prog.Ast.params;
  (* Static ids number the statements in the same textual order as
     Prog.stmts_of; loop [d] levels deep binds slot [d]. *)
  let names = Hashtbl.create 16 in
  let max_depth = ref 0 and next_id = ref 0 in
  let cref scope (a, subs) =
    let name =
      match Hashtbl.find_opt names a with
      | Some k -> k
      | None ->
          let k = Hashtbl.length names in
          Hashtbl.add names a k;
          k
    in
    let key = Array.make (1 + List.length subs) name in
    { key; subs = Array.of_list (List.map (cint scope params) subs) }
  in
  let rec compile scope depth = function
    | Ast.Assign (lhs, rhs) ->
        let id = !next_id in
        incr next_id;
        let reads = Array.of_list (List.rev (reads_of (cref scope) [] rhs)) in
        Stmt { id; depth; reads; write = cref scope lhs }
    | Ast.Loop l ->
        max_depth := max !max_depth (depth + 1);
        let lo = cint scope params l.Ast.lo and hi = cint scope params l.Ast.hi in
        let inner = (l.Ast.index, depth) :: scope in
        let body = Array.of_list (List.map (compile inner (depth + 1)) l.Ast.body) in
        Loop { slot = depth; lo; hi; body }
  in
  let program = List.map (compile [] 0) prog.Ast.body in
  let cells = Cells.create 64 in
  let eb = { src = Array.make 1024 0; dst = Array.make 1024 0; len = 0 } in
  let dummy = { inst = -1; stmt = -1; iter = [||] } in
  let instances = ref (Array.make 1024 dummy) and n_inst = ref 0 in
  let it = Array.make !max_depth 0 in
  let rec run = function
    | Stmt { id; depth; reads; write = w } ->
        let inst = !n_inst in
        if inst = Array.length !instances then
          instances := grow !instances dummy;
        !instances.(inst) <- { inst; stmt = id; iter = Array.sub it 0 depth };
        n_inst := inst + 1;
        for k = 0 to Array.length reads - 1 do
          read eb inst (cell_of cells reads.(k) it)
        done;
        write eb inst (cell_of cells w it)
    | Loop { slot; lo; hi; body } ->
        let lo = lo it and hi = hi it in
        for v = lo to hi do
          it.(slot) <- v;
          Array.iter run body
        done
  in
  List.iter run program;
  {
    instances = Array.sub !instances 0 !n_inst;
    edge_src = Array.sub eb.src 0 eb.len;
    edge_dst = Array.sub eb.dst 0 eb.len;
  }

let build_result prog ~params = Diag.result (fun () -> build prog ~params)
