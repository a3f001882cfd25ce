(* Tests for the execution substrate: paged array store, interpreter,
   schedules (legality + semantics), cost simulator, domain executor. *)

module Sched = Runtime.Sched
module Interp = Runtime.Interp
module Arrays = Runtime.Arrays
module Sim = Runtime.Sim
module Exec = Runtime.Exec
module Trace = Depend.Trace
module Partition = Core.Partition
module Dataflow = Core.Dataflow

(* ------------------------------------------------------------------ *)
(* The dense store, kept as the paged store's reference                *)

(* [Runtime.Arrays] as it was before its pages, kept verbatim: one dense
   [float array] per array over the scanned extent, every cell seeded at
   freeze.  [Reference] runs on it, and every paged store must equal it
   on every cell of every extent, touched or not. *)
module Dense = struct
  type extent = { mutable lo : int array; mutable hi : int array }

  type store = {
    ext : extent;
    mutable data : float array;  (** row-major with offsets from [ext] *)
  }

  type t = {
    tbl : (string, store) Hashtbl.t;
    mutable frozen : bool;
  }

  let create () = { tbl = Hashtbl.create 8; frozen = false }

  let note_index t name idx =
    if t.frozen then invalid_arg "Arrays.note_bounds: already frozen";
    match Hashtbl.find_opt t.tbl name with
    | None ->
        Hashtbl.add t.tbl name
          { ext = { lo = Array.copy idx; hi = Array.copy idx }; data = [||] }
    | Some s ->
        let lo = s.ext.lo and hi = s.ext.hi in
        if Array.length idx <> Array.length lo then
          invalid_arg ("Arrays: rank mismatch for " ^ name);
        for k = 0 to Array.length idx - 1 do
          let v = idx.(k) in
          if v < lo.(k) then lo.(k) <- v;
          if v > hi.(k) then hi.(k) <- v
        done

  let note_bounds t name idx = note_index t name (Array.of_list idx)

  (* Initial cell values: a per-array name hash mixed with the indices,
     outermost first.  [freeze] carries the mix of an index prefix down a
     row-major pass, so seeding a cell costs one [mix] and allocates
     nothing. *)
  let[@inline] mix h v =
    let h = (h lxor v) * 0x3c79ac492ba7b653 in
    h lxor (h lsr 29)

  let[@inline] value_of_hash h =
    float_of_int ((h land max_int) mod 1000) /. 97.0

  let initial_value_index name idx =
    value_of_hash (Array.fold_left mix (Hashtbl.hash name) idx)

  let initial_value name idx = initial_value_index name (Array.of_list idx)

  let cell_count ext =
    Array.fold_left ( * ) 1
      (Array.mapi (fun k lo -> ext.hi.(k) - lo + 1) ext.lo)

  (* The flat offset of an index tuple; -1 outside the extent. *)
  let offset ext idx =
    let lo = ext.lo and hi = ext.hi in
    let rec go k acc =
      if k = Array.length idx then acc
      else
        let v = idx.(k) in
        if v < lo.(k) || v > hi.(k) then -1
        else go (k + 1) ((acc * (hi.(k) - lo.(k) + 1)) + (v - lo.(k)))
    in
    go 0 0

  let seed name ext =
    let rank = Array.length ext.lo in
    let data = Array.create_float (cell_count ext) in
    let off = ref 0 in
    let rec fill k h =
      if k = rank - 1 then
        for v = ext.lo.(k) to ext.hi.(k) do
          data.(!off) <- value_of_hash (mix h v);
          incr off
        done
      else
        for v = ext.lo.(k) to ext.hi.(k) do
          fill (k + 1) (mix h v)
        done
    in
    let h = Hashtbl.hash name in
    if rank = 0 then data.(0) <- value_of_hash h else fill 0 h;
    data

  let freeze t =
    if not t.frozen then begin
      Hashtbl.iter (fun name s -> s.data <- seed name s.ext) t.tbl;
      t.frozen <- true
    end

  let get_index t name idx =
    match Hashtbl.find_opt t.tbl name with
    | None -> initial_value_index name idx
    | Some s ->
        let off = offset s.ext idx in
        if off < 0 then initial_value_index name idx else s.data.(off)

  let set_index t name idx v =
    if not t.frozen then invalid_arg "Arrays.set: freeze first";
    match Hashtbl.find_opt t.tbl name with
    | None -> invalid_arg ("Arrays.set: unknown array " ^ name)
    | Some s ->
        let off = offset s.ext idx in
        if off < 0 then
          invalid_arg
            (Printf.sprintf "Arrays.set: %s index out of scanned bounds" name)
        else s.data.(off) <- v

  let get t name idx = get_index t name (Array.of_list idx)
  let set t name idx v = set_index t name (Array.of_list idx) v

  let copy t =
    let tbl = Hashtbl.create (Hashtbl.length t.tbl) in
    Hashtbl.iter
      (fun name s ->
        Hashtbl.add tbl name
          {
            ext = { lo = Array.copy s.ext.lo; hi = Array.copy s.ext.hi };
            data = Array.copy s.data;
          })
      t.tbl;
    { tbl; frozen = t.frozen }

  type view = {
    v_lo : int array;
    v_hi : int array;
    v_strides : int array;
    v_data : float array;
  }

  let view t name =
    if not t.frozen then invalid_arg "Arrays.view: freeze first";
    match Hashtbl.find_opt t.tbl name with
    | None -> None
    | Some s ->
        let n = Array.length s.ext.lo in
        let strides = Array.make n 1 in
        for k = n - 2 downto 0 do
          strides.(k) <- strides.(k + 1) * (s.ext.hi.(k + 1) - s.ext.lo.(k + 1) + 1)
        done;
        Some
          {
            v_lo = Array.copy s.ext.lo;
            v_hi = Array.copy s.ext.hi;
            v_strides = strides;
            v_data = s.data;
          }

  let arrays t =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl [] |> List.sort compare

  let max_abs_diff a b =
    List.fold_left
      (fun acc name ->
        match (Hashtbl.find_opt a.tbl name, Hashtbl.find_opt b.tbl name) with
        | Some sa, Some sb when Array.length sa.data = Array.length sb.data ->
            let m = ref acc in
            Array.iteri
              (fun k v ->
                let d = Float.abs (v -. sb.data.(k)) in
                if d > !m then m := d)
              sa.data;
            !m
        | _ -> infinity)
      0.0 (arrays a)

  (* Bit for bit: a NaN cell differs from every other value, and -0.0
     from 0.0, which a tolerance test would both miss. *)
  let same_cells x y =
    let n = Array.length x in
    n = Array.length y
    &&
    let rec go k =
      k = n
      || Int64.bits_of_float x.(k) = Int64.bits_of_float y.(k) && go (k + 1)
    in
    go 0

  let equal a b =
    arrays a = arrays b
    && List.for_all
         (fun name ->
           let sa = Hashtbl.find a.tbl name and sb = Hashtbl.find b.tbl name in
           sa.ext.lo = sb.ext.lo && sa.ext.hi = sb.ext.hi
           && same_cells sa.data sb.data)
         (arrays a)
end

(* Row-major successor of an index tuple within [lo, hi]. *)
let advance lo hi idx =
  let rec go d =
    if d >= 0 then
      if idx.(d) < hi.(d) then idx.(d) <- idx.(d) + 1
      else begin
        idx.(d) <- lo.(d);
        go (d - 1)
      end
  in
  go (Array.length idx - 1)

(* The paged store [p] against the dense store [d]: the same arrays and
   extents, and every cell of every extent, touched or not, the same bit
   for bit, a cell of an absent page read as its initial value. *)
let matches_dense d p =
  Dense.arrays d = Arrays.arrays p
  && List.for_all
       (fun name ->
         let dv = Option.get (Dense.view d name)
         and pv = Option.get (Arrays.view p name) in
         dv.Dense.v_lo = pv.Arrays.v_lo
         && dv.Dense.v_hi = pv.Arrays.v_hi
         &&
         let h = Arrays.handle p name and data = dv.Dense.v_data in
         let idx = Array.copy dv.Dense.v_lo in
         let rec go o =
           o = Array.length data
           || Int64.bits_of_float data.(o)
              = Int64.bits_of_float (Arrays.read h idx)
              && begin
                   advance dv.Dense.v_lo dv.Dense.v_hi idx;
                   go (o + 1)
                 end
         in
         go 0)
       (Dense.arrays d)

(* ------------------------------------------------------------------ *)
(* Arrays                                                               *)

let test_arrays_basic () =
  let s = Arrays.create () in
  Arrays.note_bounds s "a" [ -3; 2 ];
  Arrays.note_bounds s "a" [ 5; 7 ];
  Arrays.freeze s;
  Alcotest.(check (float 0.0))
    "initial value deterministic"
    (Arrays.initial_value "a" [ 0; 3 ])
    (Arrays.get s "a" [ 0; 3 ]);
  Arrays.set s "a" [ -3; 7 ] 42.0;
  Alcotest.(check (float 0.0)) "set/get" 42.0 (Arrays.get s "a" [ -3; 7 ]);
  (* out-of-extent read falls back to the deterministic initial value *)
  Alcotest.(check (float 0.0))
    "out-of-extent read"
    (Arrays.initial_value "a" [ 100; 100 ])
    (Arrays.get s "a" [ 100; 100 ])

let test_arrays_equal () =
  let mk () =
    let s = Arrays.create () in
    Arrays.note_bounds s "x" [ 0 ];
    Arrays.note_bounds s "x" [ 4 ];
    Arrays.freeze s;
    s
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "fresh equal" true (Arrays.equal a b);
  Arrays.set a "x" [ 2 ] 1.0;
  Alcotest.(check bool) "diverged" false (Arrays.equal a b)

let test_arrays_seeding () =
  (* Every cell [freeze] seeds, and every out-of-extent read, equals
     [initial_value] — ranks 1 to 3, negative lower bounds. *)
  let cases =
    [
      ("r1", [ [ -5 ]; [ 7 ] ]);
      ("r2", [ [ -3; 4 ]; [ 2; -2 ] ]);
      ("r3", [ [ -2; -1; 0 ]; [ 2; 3; -4 ] ]);
    ]
  in
  List.iter
    (fun (name, points) ->
      let s = Arrays.create () in
      List.iter (Arrays.note_bounds s name) points;
      Arrays.freeze s;
      let v = Option.get (Arrays.view s name) in
      (* One dimension beyond the extent on both sides. *)
      let rec tuples k =
        if k = Array.length v.Arrays.v_lo then [ [] ]
        else
          let rest = tuples (k + 1) in
          List.concat_map
            (fun x -> List.map (fun t -> x :: t) rest)
            (List.init
               (v.Arrays.v_hi.(k) - v.Arrays.v_lo.(k) + 3)
               (fun j -> v.Arrays.v_lo.(k) - 1 + j))
      in
      List.iter
        (fun idx ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s(%s)" name
               (String.concat "," (List.map string_of_int idx)))
            (Arrays.initial_value name idx)
            (Arrays.get s name idx))
        (tuples 0))
    cases;
  (* A degenerate mix would make the check above vacuous: a fresh 64×64
     array must take most of the 1000 possible values. *)
  let s = Arrays.create () in
  Arrays.note_bounds s "a" [ 0; 0 ];
  Arrays.note_bounds s "a" [ 63; 63 ];
  Arrays.freeze s;
  let seen = Hashtbl.create 1000 in
  for i = 0 to 63 do
    for j = 0 to 63 do
      Hashtbl.replace seen (Arrays.get s "a" [ i; j ]) ()
    done
  done;
  let distinct = Hashtbl.length seen in
  if distinct < 900 then
    Alcotest.failf "64x64 array takes only %d distinct initial values" distinct

(* Equality is bit for bit over equal extents: a NaN cell differs from a
   value (a tolerance test reads |NaN - x| > m as false), -0.0 differs
   from 0.0, and equal data lengths over different extents differ. *)
let test_arrays_equal_bits () =
  let mk lo hi =
    let s = Arrays.create () in
    Arrays.note_bounds s "x" [ lo ];
    Arrays.note_bounds s "x" [ hi ];
    Arrays.freeze s;
    s
  in
  let a = mk 0 4 and b = mk 0 4 in
  Arrays.set a "x" [ 2 ] Float.nan;
  Arrays.set b "x" [ 2 ] 1.0;
  Alcotest.(check bool) "NaN against a value" false (Arrays.equal a b);
  Arrays.set b "x" [ 2 ] Float.nan;
  Alcotest.(check bool) "the same NaN" true (Arrays.equal a b);
  Arrays.set a "x" [ 2 ] (-0.0);
  Arrays.set b "x" [ 2 ] 0.0;
  Alcotest.(check bool) "-0.0 against 0.0" false (Arrays.equal a b);
  let zeroed lo hi =
    let s = mk lo hi in
    for i = lo to hi do
      Arrays.set s "x" [ i ] 0.0
    done;
    s
  in
  Alcotest.(check bool) "same cells, same extents" true
    (Arrays.equal (zeroed 0 4) (zeroed 0 4));
  Alcotest.(check bool) "same cells, shifted extents" false
    (Arrays.equal (zeroed 0 4) (zeroed 1 5));
  (* A run that writes NaN everywhere differs from its untouched store. *)
  let env =
    Interp.prepare
      (Loopir.Parser.parse ~name:"nan"
         "DO i = 1, n\n  a(i) = SQRT(-1.0) + b(i)\nENDDO")
      ~params:[ ("n", 3) ]
  in
  Alcotest.(check bool) "NaN run against the initial store" false
    (Arrays.equal (Interp.run_sequential env) (Interp.scan_bounds env))

let test_arrays_copy () =
  let s = Arrays.create () in
  Arrays.note_bounds s "x" [ -2; 0 ];
  Arrays.note_bounds s "x" [ 3; 4 ];
  Arrays.freeze s;
  let img = Arrays.image s in
  let c = Arrays.of_image img in
  Alcotest.(check bool) "a copy is equal" true (Arrays.equal s c);
  Arrays.set c "x" [ 1; 1 ] 42.0;
  Alcotest.(check bool) "writes to the copy stay there" false
    (Arrays.equal s c);
  Alcotest.(check (float 0.0))
    "original cell untouched"
    (Arrays.initial_value "x" [ 1; 1 ])
    (Arrays.get s "x" [ 1; 1 ]);
  Arrays.set s "x" [ 2; 2 ] 7.0;
  Alcotest.(check (float 0.0))
    "writes to the original miss the image"
    (Arrays.initial_value "x" [ 2; 2 ])
    (Arrays.get (Arrays.of_image img) "x" [ 2; 2 ])

(* The seeding table holds, for every residue, the value the dense
   store's formula computes: [value_of_hash] reduces a hash modulo 1000
   and divides by 97. *)
let test_arrays_seed_table () =
  for k = 0 to 999 do
    List.iter
      (fun h ->
        let want = Dense.value_of_hash h in
        if
          Int64.bits_of_float (Arrays.seed_value k) <> Int64.bits_of_float want
          || Int64.bits_of_float want
             <> Int64.bits_of_float (float_of_int k /. 97.0)
        then Alcotest.failf "residue %d (hash %d)" k h)
      [ k; k + 1000; k + (1000 * 7919) ]
  done

(* Random paged stores against dense mirrors built from the same notes
   and writes.  [b] marks a subset of [a]'s cells, so it holds fewer
   pages, and one store in eight has a wider extent; writes go to cells
   marked in both, and sometimes to one only [a] marked.  [equal] and [max_abs_diff] must agree with the dense
   store's, every cell must match its mirror, and a copy must equal its
   source and take writes apart from it. *)
let prop_equal_copy_match_dense ~count =
  QCheck2.Test.make ~name:"equal and copy = dense on random stores" ~count
    ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let int n = Random.State.int rng n in
      let rank = 1 + int 2 in
      let lo = Array.init rank (fun _ -> int 41 - 20) in
      let len =
        Array.init rank (fun _ -> 1 + int (if rank = 1 then 600 else 40))
      in
      let point () = Array.init rank (fun k -> lo.(k) + int len.(k)) in
      let corners = [ lo; Array.init rank (fun k -> lo.(k) + len.(k) - 1) ] in
      let points = List.init (int 10) (fun _ -> point ()) in
      let shared = List.filter (fun _ -> int 2 = 0) points in
      let wider =
        if int 8 = 0 then [ Array.map (fun v -> v + 1) (List.nth corners 1) ]
        else []
      in
      let build marks =
        let p = Arrays.create () and d = Dense.create () in
        List.iter
          (fun idx ->
            Arrays.note_index p "x" idx;
            Dense.note_index d "x" idx)
          marks;
        Arrays.freeze p;
        Dense.freeze d;
        (p, d)
      in
      let a, da = build (corners @ points)
      and b, db = build (corners @ shared @ wider) in
      let writable = Array.of_list (corners @ shared) in
      let value idx =
        match int 5 with
        | 0 -> 0.0
        | 1 -> -0.0
        | 2 -> Float.nan
        | 3 -> 1.5
        | _ -> Dense.initial_value "x" (Array.to_list idx)
      in
      let write stores idx v =
        List.iter (fun (p, d) ->
            Arrays.set_index p "x" idx v;
            Dense.set_index d "x" idx v)
          stores
      in
      for _ = 1 to int 6 do
        let idx = writable.(int (Array.length writable)) in
        write [ (a, da); (b, db) ] idx (value idx)
      done;
      if int 2 = 0 then begin
        let idx = writable.(int (Array.length writable)) in
        write [ (b, db) ] idx (value idx)
      end;
      (* A cell [a] alone marked, often on a page [b] lacks. *)
      if points <> [] && int 2 = 0 then begin
        let idx = List.nth points (int (List.length points)) in
        write [ (a, da) ] idx (value idx)
      end;
      let c = Arrays.of_image (Arrays.image a) and dc = Dense.copy da in
      let idx = writable.(int (Array.length writable)) in
      let old = Arrays.get_index a "x" idx in
      let fresh = if Float.is_nan old then 2.5 else Float.nan in
      let copy_equal = Arrays.equal c a && matches_dense da c in
      write [ (c, dc) ] idx fresh;
      matches_dense da a && matches_dense db b && matches_dense dc c
      && Arrays.equal a b = Dense.equal da db
      && Float.equal (Arrays.max_abs_diff a b) (Dense.max_abs_diff da db)
      && copy_equal
      && (not (Arrays.equal c a))
      && matches_dense da a)

(* ------------------------------------------------------------------ *)
(* Dry scan: exact extents                                              *)

(* Per-point reference scan: every reference of every statement instance,
   evaluated with checked arithmetic. *)
let brute_force_scan (env : Interp.env) =
  let store = Arrays.create () in
  let eval bindings =
    Loopir.Eval_int.eval (fun v ->
        match List.assoc_opt v bindings with
        | Some x -> x
        | None -> List.assoc v env.Interp.params)
  in
  Array.iter
    (fun (info : Loopir.Prog.stmt_info) ->
      let rec go bindings = function
        | [] ->
            List.iter
              (fun (a, subs, _) ->
                Arrays.note_bounds store a (List.map (eval bindings) subs))
              (Loopir.Prog.refs_of info)
        | (l : Loopir.Prog.loop_ctx) :: rest ->
            for v = eval bindings l.lo to eval bindings l.hi do
              go ((l.index, v) :: bindings) rest
            done
      in
      go [] info.Loopir.Prog.loops)
    env.Interp.stmts;
  Arrays.freeze store;
  store

let check_extents label env =
  let want = brute_force_scan env and got = Interp.scan_bounds env in
  Alcotest.(check (list string))
    (label ^ ": arrays") (Arrays.arrays want) (Arrays.arrays got);
  List.iter
    (fun a ->
      match (Arrays.view want a, Arrays.view got a) with
      | Some w, Some g ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s: %s lo" label a)
            w.Arrays.v_lo g.Arrays.v_lo;
          Alcotest.(check (array int))
            (Printf.sprintf "%s: %s hi" label a)
            w.Arrays.v_hi g.Arrays.v_hi
      | _ -> Alcotest.failf "%s: %s missing a view" label a)
    (Arrays.arrays want)

let test_scan_bounds_builtins () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun size ->
          let params = List.map (fun p -> (p, size)) prog.Loopir.Ast.params in
          check_extents
            (Printf.sprintf "%s@%d" name size)
            (Interp.prepare prog ~params))
        [ 0; 1; 2; 3; 5; 8; 16 ])
    Loopir.Builtin.all

let scan_src ?(params = []) src =
  Interp.prepare (Loopir.Parser.parse ~name:"scan" src) ~params

let test_scan_bounds_hand_written () =
  List.iter
    (fun (label, src, params) -> check_extents label (scan_src ~params src))
    [
      ( "mod/min/max/floor-div subscripts",
        "DO i = 1, n\n\
        \  DO j = -3, n\n\
        \    a(MOD(i*j, 5), MIN(i, j) + MAX(j, 2), (i - j)/3) = b(i + j) + \
         c(MOD(j, 3) - 2)\n\
        \  ENDDO\n\
         ENDDO",
        [ ("n", 7) ] );
      ( "subscript without the innermost index",
        "DO i = 1, n\n\
        \  DO j = 2, n\n\
        \    a(i) = a(i) + b(2*i - 1, j) + d(n - i, 3)\n\
        \  ENDDO\n\
         ENDDO",
        [ ("n", 6) ] );
      ( "negative step",
        "DO i = n, 1, -2\n\
        \  DO j = 10, i, -3\n\
        \    a(3*i - j) = a(i) + b(j - i, -i)\n\
        \  ENDDO\n\
         ENDDO",
        [ ("n", 9) ] );
      ( "triangular and min/max bounds",
        "DO i = 1, n\n\
        \  DO j = i, MIN(2*i, n + 1)\n\
        \    a(i, j - i) = a(j, i) + 1.0\n\
        \  ENDDO\n\
        \  DO k = MAX(1, i - 2), (n + i)/2\n\
        \    b(k - i) = b(k + i) * 2.0\n\
        \  ENDDO\n\
         ENDDO",
        [ ("n", 8) ] );
      ( "empty inner loop",
        "DO i = 1, n\n\
        \  DO j = 1, 0\n\
        \    z(i, j) = 1.0\n\
        \  ENDDO\n\
        \  a(i) = 2.0\n\
         ENDDO",
        [ ("n", 4) ] );
      ( "statement outside any loop",
        "s(n + 1) = t(2*n) + t(MOD(n, 3))",
        [ ("n", 5) ] );
    ];
  (* An array touched only inside empty loops stays absent. *)
  let store =
    Interp.scan_bounds
      (scan_src ~params:[ ("n", 4) ]
         "DO i = 1, n\n  DO j = 1, 0\n    z(i, j) = 1.0\n  ENDDO\nENDDO\n\
          DO i = 1, 0\n  y(i) = 1.0\nENDDO")
  in
  Alcotest.(check (list string)) "empty loops note nothing" [] (Arrays.arrays store)

let test_scan_bounds_overflow () =
  (* 2^61·i overflows at i = 2: the endpoint scan (which meets it at
     i = 3) raises what the per-point scan raises. *)
  let env =
    scan_src ~params:[ ("n", 3) ]
      "DO i = 1, n\n  a(i * 2305843009213693952) = 1.0\nENDDO"
  in
  Alcotest.check_raises "reference scan" Numeric.Safeint.Overflow (fun () ->
      ignore (brute_force_scan env));
  Alcotest.check_raises "scan_bounds" Numeric.Safeint.Overflow (fun () ->
      ignore (Interp.scan_bounds env));
  Alcotest.check_raises "run_sequential" Numeric.Safeint.Overflow (fun () ->
      ignore (Interp.run_sequential env))

let test_prepare_rejects_reused_index () =
  (* The parser rejects such a nest; one built from the AST must not reach
     analysis or execution either. *)
  let inner =
    Loopir.Parser.parse ~name:"inner" "DO i = 5, 6\n  a(i) = a(i) + 1.0\nENDDO"
  in
  let prog =
    Loopir.Ast.program ~name:"reuse"
      [
        Loopir.Ast.Loop
          {
            index = "i";
            lo = Loopir.Ast.Int 1;
            hi = Loopir.Ast.Int 3;
            step = 1;
            body = inner.Loopir.Ast.body;
          };
      ]
  in
  Alcotest.check_raises "prepare"
    (Invalid_argument
       "Interp.prepare: loop index i reuses an enclosing loop's index")
    (fun () -> ignore (Interp.prepare prog ~params:[]))

(* Pages follow the touched cells: example1 at 200×300 touches 104,322
   of the 417,404 cells of [a]'s extent, and 64-cell pages hold under
   40% of the extent. *)
let test_seeded_cells_example1 () =
  let env =
    Interp.prepare Loopir.Builtin.example1 ~params:[ ("n1", 200); ("n2", 300) ]
  in
  let store = Interp.scan_bounds env in
  let v = Option.get (Arrays.view store "a") in
  let extent =
    Array.fold_left ( * ) 1
      (Array.mapi (fun k lo -> v.Arrays.v_hi.(k) - lo + 1) v.Arrays.v_lo)
  in
  Alcotest.(check int) "extent of a" 417_404 extent;
  Alcotest.(check int) "64-cell pages" 6 v.Arrays.v_shift;
  let seeded = Arrays.seeded_cells store in
  if seeded > 167_000 then
    Alcotest.failf "example1 200x300 seeds %d cells (limit 167000)" seeded;
  Alcotest.(check int) "a copy holds the same pages" seeded
    (Arrays.seeded_cells (Interp.scan_bounds env))

(* Three cells 10^8 apart: the extent of [a] is 3×10^8 + 1 cells, so its
   pages grow to 2^13 cells and its table stops at 36,622 entries; the
   scan and the oracle allocate a few pages, where a dense store took
   3×10^8 words. *)
let test_sparse_store_cheap () =
  let env =
    scan_src
      "DO i = 1, 3\n\
      \  a(100000000*i) = a(100000000*i - 100000000) + 1\n\
      \  b(i) = a(100000000*i)\n\
       ENDDO"
  in
  let probe = Obs.Gcstats.mark () in
  ignore (Interp.scan_bounds env);
  let store = Interp.run_sequential env in
  let words = Obs.Gcstats.words_since probe in
  if words >= 1_000_000.0 then
    Alcotest.failf "scan + run_sequential allocated %.0f words (limit 1000000)"
      words;
  let v = Option.get (Arrays.view store "a") in
  Alcotest.(check (array int)) "extent" [| 300_000_000 |] v.Arrays.v_hi;
  Alcotest.(check int) "page size 2^13" 13 v.Arrays.v_shift;
  Alcotest.(check int) "page table" 36_622 (Array.length v.Arrays.v_table);
  (* Three whole pages of [a], its last page's 769 cells, and [b]'s
     three. *)
  Alcotest.(check int) "seeded cells"
    ((3 * 8192) + 769 + 3)
    (Arrays.seeded_cells store);
  Alcotest.(check (float 0.0))
    "b(3) = a(3e8) = a(2e8) + 1 = a(1e8) + 2 = a(0) + 3"
    (Arrays.initial_value "a" [ 0 ] +. 3.0)
    (Arrays.get store "b" [ 3 ])

(* An extent whose cell count overflows fails typed, naming the array:
   2^63 + 1 cells wrapped to 1 in the dense store, whose seeding then
   ran off its one-cell array.  A count that fits but needs pages over
   2^20 cells fails the same way. *)
let test_extent_overflow_typed () =
  let fails label src =
    let env = scan_src src in
    let e = Diag.Error (Diag.Extent_overflow "a") in
    Alcotest.check_raises (label ^ ": scan_bounds") e (fun () ->
        ignore (Interp.scan_bounds env));
    Alcotest.check_raises (label ^ ": run_sequential") e (fun () ->
        ignore (Interp.run_sequential env));
    match
      Pipeline.Driver.run ~name:"overflow" ~params:[]
        (Loopir.Parser.parse ~name:"overflow" src)
    with
    | Error { Pipeline.Driver.stage = Diag.Execute; error; _ } ->
        Alcotest.(check string) (label ^ ": driver") "extent-overflow"
          (Diag.label error);
        Alcotest.(check string)
          (label ^ ": message")
          "the extent of array a has more cells than a store can address"
          (Diag.to_string error)
    | Error e ->
        Alcotest.failf "%s: driver failed at %s" label
          (Pipeline.Driver.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: driver ran" label
  in
  Alcotest.(check int) "the unchecked count wraps" 1
    (77158673929 * 119537721);
  fails "2^63 + 1 cells"
    "DO i = 0, 1\n  a(77158673928*i, 119537720*i) = a(0, 0) + 1.0\nENDDO";
  fails "2^40 cells" "DO i = 0, 1\n  a(1099511627775*i) = 1.0\nENDDO"

(* ------------------------------------------------------------------ *)
(* The reference interpreter                                            *)

(* The interpreter as it was before its scope moved into a slot array
   and its scan was compiled, kept verbatim over the dense store
   [Dense]: bindings in an assoc list per instance, every name looked up
   through closures, index tuples as lists, the endpoint scan walked
   through [Eval_int.eval].  [Interp.run_sequential], [scan_bounds],
   [exec_instance] and [run_schedule] must match it bit for bit on every
   cell, and raise what it raises. *)
module Reference = struct
  module Ast = Loopir.Ast
  module Prog = Loopir.Prog

  let param (t : Interp.env) name =
    match List.assoc_opt name t.params with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Interp: unbound variable %s" name)

  let var_env (t : Interp.env) bindings name =
    match List.assoc_opt name bindings with Some v -> v | None -> param t name

  (* Float evaluation of right-hand sides. *)
  let rec feval store ienv e =
    match e with
    | Ast.Int k -> float_of_int k
    | Ast.Real r -> r
    | Ast.Var v -> float_of_int (ienv v)
    | Ast.Ref (a, subs) ->
        Dense.get store a (List.map (Loopir.Eval_int.eval ienv) subs)
    | Ast.Bin (Ast.Add, a, b) -> feval store ienv a +. feval store ienv b
    | Ast.Bin (Ast.Sub, a, b) -> feval store ienv a -. feval store ienv b
    | Ast.Bin (Ast.Mul, a, b) -> feval store ienv a *. feval store ienv b
    | Ast.Bin (Ast.Div, a, b) -> feval store ienv a /. feval store ienv b
    | Ast.Un (Ast.Neg, a) -> -.feval store ienv a
    | Ast.Un (Ast.Sqrt, a) -> sqrt (feval store ienv a)
    | Ast.Un (Ast.Abs, a) -> Float.abs (feval store ienv a)
    | Ast.Min es ->
        List.fold_left (fun m e -> Float.min m (feval store ienv e)) infinity es
    | Ast.Max es ->
        List.fold_left
          (fun m e -> Float.max m (feval store ienv e))
          neg_infinity es
    | Ast.Mod (a, b) ->
        float_of_int
          (Numeric.Safeint.emod (Loopir.Eval_int.eval ienv a)
             (Loopir.Eval_int.eval ienv b))
    | Ast.Pow (a, k) -> feval store ienv a ** float_of_int k

  (* Walk the whole program in source order, calling [visit] on each statement
     instance's environment. *)
  let iterate (t : Interp.env) visit =
    let rec run bindings stmt_counter = function
      | Ast.Assign (lhs, rhs) ->
          let id = !stmt_counter in
          incr stmt_counter;
          visit ~stmt:id ~bindings lhs rhs
      | Ast.Loop l ->
          let ienv = var_env t bindings in
          let lo = Loopir.Eval_int.eval ienv l.Ast.lo
          and hi = Loopir.Eval_int.eval ienv l.Ast.hi in
          let saved = !stmt_counter in
          if lo > hi then begin
            (* Still advance the static statement numbering. *)
            let rec count = function
              | Ast.Assign _ -> incr stmt_counter
              | Ast.Loop l -> List.iter count l.Ast.body
            in
            List.iter count l.Ast.body
          end
          else
            for v = lo to hi do
              stmt_counter := saved;
              List.iter
                (run ((l.Ast.index, v) :: bindings) stmt_counter)
                l.Ast.body
            done
      in
    let counter = ref 0 in
    List.iter (run [] counter) t.prog.Ast.body

  (* A subscript whose every subexpression is affine: its value, and the
     value of each subexpression, is linear in the innermost loop index.
     [Affine.of_expr] itself may overflow on huge constants; such a
     subscript is treated as non-affine and evaluated at every point. *)
  let is_affine e =
    match Loopir.Affine.of_expr e with
    | Some _ -> true
    | None | (exception Numeric.Safeint.Overflow) -> false

  (* Note the extents of one statement's references by walking its own
     enclosing loops.  Loop bounds are evaluated at every point of the outer
     loops.  Inside the innermost loop, a reference with all-affine
     subscripts is evaluated only at the two ends, where each subscript
     takes its minimum and maximum; the others at every point.  At each
     evaluated point the references are noted in source order. *)
  let scan_stmt (t : Interp.env) store (info : Prog.stmt_info) =
    let loops = Array.of_list info.Prog.loops in
    let depth = Array.length loops in
    let names = Array.map (fun (l : Prog.loop_ctx) -> l.Prog.index) loops in
    let slots = Array.make depth 0 in
    (* Slots [0 .. !bound-1] are bound; the innermost binding wins. *)
    let bound = ref 0 in
    let env name =
      let rec find k =
        if k < 0 then param t name
        else if String.equal names.(k) name then slots.(k)
        else find (k - 1)
      in
      find (!bound - 1)
    in
    let refs = Prog.refs_of info in
    let general =
      List.filter (fun (_, subs, _) -> not (List.for_all is_affine subs)) refs
    in
    let note (a, subs, _) =
      Dense.note_bounds store a (List.map (Loopir.Eval_int.eval env) subs)
    in
    let at k v rs =
      slots.(k) <- v;
      List.iter note rs
    in
    let rec walk k =
      bound := k;
      let lo = Loopir.Eval_int.eval env loops.(k).Prog.lo
      and hi = Loopir.Eval_int.eval env loops.(k).Prog.hi in
      if k < depth - 1 then
        for v = lo to hi do
          slots.(k) <- v;
          walk (k + 1)
        done
      else if lo <= hi then begin
        bound := depth;
        at k lo refs;
        if hi > lo then begin
          if general <> [] then
            for v = lo + 1 to hi - 1 do
              at k v general
            done;
          at k hi refs
        end
      end
    in
    if depth = 0 then List.iter note refs else walk 0

  let scan_bounds (t : Interp.env) =
    let store = Dense.create () in
    Array.iter (scan_stmt t store) t.stmts;
    Dense.freeze store;
    store

  let exec_assign t store bindings (a, subs) rhs =
    let ienv = var_env t bindings in
    let v = feval store ienv rhs in
    Dense.set store a (List.map (Loopir.Eval_int.eval ienv) subs) v

  let run_sequential t =
    let store = scan_bounds t in
    iterate t (fun ~stmt:_ ~bindings lhs rhs ->
        exec_assign t store bindings lhs rhs);
    store

  (* Statement [stmt] of [t] at the point [iter], on a fresh scan. *)
  let run_instance (t : Interp.env) stmt iter =
    let store = scan_bounds t in
    let info = t.stmts.(stmt) in
    let vars = Prog.loop_vars info in
    let bindings = List.mapi (fun k v -> (v, iter.(k))) vars in
    exec_assign t store bindings info.Prog.lhs info.Prog.rhs;
    store
end

let reference_run = Reference.run_sequential

(* The schedule of one instance. *)
let one_instance stmt iter =
  Sched.of_list [ ("one", Sched.Doall [ (stmt, iter) ]) ]

(* A store, or the exception raised on the way to it. *)
let outcome f =
  match f () with
  | store -> Ok store
  | exception e -> Error (Printexc.to_string e)

(* The arrays of [env] whose per-point extent has more cells than the
   paged store addresses (over 2^36, or an overflowing count).  There
   the paged store fails typed, and the dense one wraps its count and
   fails on the way to seeding it. *)
let overflowing_arrays (env : Interp.env) =
  let d = Dense.create () in
  match Array.iter (Reference.scan_stmt env d) env.Interp.stmts with
  | exception _ -> []
  | () ->
      Hashtbl.fold
        (fun name (s : Dense.store) acc ->
          let lo = s.Dense.ext.Dense.lo and hi = s.Dense.ext.Dense.hi in
          let module S = Numeric.Safeint in
          match
            Array.fold_left
              (fun c k -> S.mul c (S.add (S.sub hi.(k) lo.(k)) 1))
              1
              (Array.init (Array.length lo) Fun.id)
          with
          | cells -> if cells > 1 lsl 36 then name :: acc else acc
          | exception S.Overflow -> name :: acc)
        d.Dense.tbl []

(* The reference's outcome against the paged one.  Given [env], a typed
   extent overflow matches any failure of the reference on an array
   whose extent overflows. *)
let same_outcome ?env want got =
  match (want, got) with
  | Ok d, Ok p -> matches_dense d p
  | Error x, Error y -> (
      String.equal x y
      ||
      match env with
      | None -> false
      | Some env ->
          List.exists
            (fun a ->
              String.equal y
                (Printexc.to_string (Diag.Error (Diag.Extent_overflow a))))
            (overflowing_arrays env))
  | _ -> false

let show_outcome = function
  | Ok _ -> "a store"
  | Error e -> "exception " ^ e

(* [Interp.run_sequential] against the reference on one program. *)
let check_run_matches label env =
  let want = outcome (fun () -> reference_run env)
  and got = outcome (fun () -> Interp.run_sequential env) in
  if not (same_outcome want got) then
    Alcotest.failf "%s: reference gave %s, run_sequential %s" label
      (show_outcome want) (show_outcome got)

(* The compiled scan against the reference's endpoint scan on random
   imperfect nests: the same extents and seeded cells, or the same
   exception. *)
let prop_scan_matches_reference ~count =
  QCheck2.Test.make ~name:"scan_bounds = reference on random imperfect nests"
    ~count
    ~print:(fun seed ->
      Loopir.Pretty.program_to_string
        (Nests.random_nest (Random.State.make [| seed |])))
    QCheck2.Gen.int
    (fun seed ->
      let env =
        Interp.prepare (Nests.random_nest (Random.State.make [| seed |]))
          ~params:[]
      in
      same_outcome ~env
        (outcome (fun () -> Reference.scan_bounds env))
        (outcome (fun () -> Interp.scan_bounds env)))

(* ------------------------------------------------------------------ *)
(* The scan's image                                                     *)

(* Three scans of one env: the first walks the nest and records the
   image, the others are copies of it.  Each equals the reference's
   dense seeding, or raises what the reference raises. *)
let repeated_scans_match ?env want (e : Interp.env) =
  List.for_all
    (fun _ -> same_outcome ?env want (outcome (fun () -> Interp.scan_bounds e)))
    [ 1; 2; 3 ]

(* Every cell of every present page of [store] set to NaN, through the
   views the kernels write through. *)
let poison store =
  List.iter
    (fun a ->
      let v = Option.get (Arrays.view store a) in
      Array.fill v.Arrays.v_slab 0 (Array.length v.Arrays.v_slab) Float.nan)
    (Arrays.arrays store)

let test_image_repeats_builtins () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun size ->
          let params = List.map (fun p -> (p, size)) prog.Loopir.Ast.params in
          let env = Interp.prepare prog ~params in
          let want = outcome (fun () -> Reference.scan_bounds env) in
          if not (repeated_scans_match want env) then
            Alcotest.failf "%s@%d: a repeated scan differs from the reference"
              name size;
          let first = Interp.scan_bounds env and again = Interp.scan_bounds env in
          Alcotest.(check bool)
            (Printf.sprintf "%s@%d: repeated scans equal" name size)
            true (Arrays.equal first again);
          Alcotest.(check int)
            (Printf.sprintf "%s@%d: same pages" name size)
            (Arrays.seeded_cells first) (Arrays.seeded_cells again))
        [ 0; 1; 2; 5; 8; 16 ])
    Loopir.Builtin.all

let prop_image_repeats_random_nests ~count =
  QCheck2.Test.make ~name:"repeated scans = reference on random strided nests"
    ~count
    ~print:(fun seed ->
      Loopir.Pretty.program_to_string
        (Nests.random_nest (Random.State.make [| seed |])))
    QCheck2.Gen.int
    (fun seed ->
      let env =
        Interp.prepare (Nests.random_nest (Random.State.make [| seed |]))
          ~params:[]
      in
      repeated_scans_match ~env (outcome (fun () -> Reference.scan_bounds env)) env)

(* No store the env hands out shares cells with its image: after the
   runs have written their stores and the first store is poisoned, a
   further scan equals a scan of a freshly prepared env. *)
let test_image_not_aliased () =
  List.iter
    (fun (name, prog, params) ->
      let fresh () = Interp.prepare prog ~params in
      let env = fresh () in
      let sched = Sched.sequential_of_trace (Trace.build prog ~params) in
      let scanned = Interp.scan_bounds env in
      let seq = Interp.run_sequential env in
      let par = (Exec.run_timed env ~threads:2 sched).Exec.store in
      Alcotest.(check bool) (name ^ ": the runs wrote") false
        (Arrays.equal seq (Interp.scan_bounds (fresh ())));
      Alcotest.(check bool) (name ^ ": the runs agree") true
        (Arrays.equal seq par);
      poison scanned;
      let again = Interp.scan_bounds env in
      Alcotest.(check bool) (name ^ ": a later scan = a fresh env's") true
        (Arrays.equal again (Interp.scan_bounds (fresh ())));
      Alcotest.(check bool) (name ^ ": = dense reference") true
        (matches_dense (Reference.scan_bounds (fresh ())) again))
    [
      ("example1", Loopir.Builtin.example1, [ ("n1", 20); ("n2", 30) ]);
      ("example2", Loopir.Builtin.example2, [ ("n", 12) ]);
      ( "cholesky",
        Loopir.Builtin.cholesky,
        [ ("n", 6); ("m", 3); ("nmat", 2); ("nrhs", 2) ] );
    ]

(* Two domains scan one fresh env at once: both may walk the nest, each
   gets its own store equal to the reference, and a later call copies
   the one image recorded. *)
let test_image_concurrent_first_scans () =
  let progs =
    Array.of_list
      (List.map
         (fun (name, prog) ->
           let params = List.map (fun p -> (p, 6)) prog.Loopir.Ast.params in
           (name, prog, params, Interp.scan_bounds (Interp.prepare prog ~params)))
         Loopir.Builtin.corpus)
  in
  for round = 0 to 199 do
    let name, prog, params, want = progs.(round mod Array.length progs) in
    let env = Interp.prepare prog ~params in
    let ready = Atomic.make 0 in
    let scan () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      Interp.scan_bounds env
    in
    let other = Domain.spawn scan in
    let mine = scan () in
    let theirs = Domain.join other in
    List.iter
      (fun (who, store) ->
        if not (Arrays.equal store want) then
          Alcotest.failf "round %d, %s: the %s store differs" round name who)
      [ ("calling domain's", mine); ("second domain's", theirs);
        ("later", Interp.scan_bounds env) ];
    poison mine;
    if not (Arrays.equal theirs want && Arrays.equal (Interp.scan_bounds env) want)
    then Alcotest.failf "round %d, %s: the two stores share cells" round name
  done

(* A scan that raises records nothing: every call raises again. *)
let test_image_failed_scan_records_nothing () =
  let env = scan_src "DO i = 0, 1\n  a(1099511627775*i) = 1.0\nENDDO" in
  let e = Diag.Error (Diag.Extent_overflow "a") in
  for k = 1 to 3 do
    Alcotest.check_raises (Printf.sprintf "scan_bounds, call %d" k) e (fun () ->
        ignore (Interp.scan_bounds env))
  done;
  Alcotest.check_raises "run_sequential" e (fun () ->
      ignore (Interp.run_sequential env));
  Alcotest.check_raises "check_schedule" e (fun () ->
      ignore (Interp.check_schedule env (Sched.of_list [])))

(* A repeated scan of example1 at 200×300 walks nothing: it allocates
   its 123,516-cell slab and a few words per array, not a word per
   iteration or per cell beyond the slab (exact per-domain counters). *)
let test_image_scan_allocation () =
  let env =
    Interp.prepare Loopir.Builtin.example1 ~params:[ ("n1", 200); ("n2", 300) ]
  in
  let first = Interp.scan_bounds env in
  let cells = float_of_int (Arrays.seeded_cells first) in
  let p = Obs.Gcstats.start () in
  let again = Interp.scan_bounds env in
  let d = Obs.Gcstats.since p in
  Alcotest.(check bool) "equal to the first scan" true (Arrays.equal first again);
  if d.Obs.Gcstats.minor_words > 64.0 then
    Alcotest.failf "a repeated scan allocated %.0f minor words (limit 64)"
      d.Obs.Gcstats.minor_words;
  let beyond = Obs.Gcstats.allocated_words d -. cells in
  if beyond > 64.0 then
    Alcotest.failf
      "a repeated scan allocated %.0f words beyond its %.0f cells (limit 64)"
      beyond cells

(* The sequential schedule of [env]'s program, when its trace builds. *)
let sequential_schedule (env : Interp.env) =
  match Trace.build env.Interp.prog ~params:env.Interp.params with
  | tr -> Some (Sched.sequential_of_trace tr)
  | exception _ -> None

let test_run_matches_reference_builtins () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun v ->
          let params = List.map (fun p -> (p, v)) prog.Loopir.Ast.params in
          let label = Printf.sprintf "%s@%d" name v in
          let env = Interp.prepare prog ~params in
          check_run_matches label env;
          match sequential_schedule env with
          | None -> Alcotest.failf "%s: no trace" label
          | Some s ->
              Alcotest.(check bool)
                (label ^ ": run_schedule (sequential) = reference")
                true
                (same_outcome
                   (outcome (fun () -> reference_run env))
                   (outcome (fun () -> Interp.run_schedule env s))))
        [ 1; 2; 3; 5; 8; 13 ])
    Loopir.Builtin.all

(* One rank per array name, so most nests run to the end; the scan
   property above covers the rank mismatches. *)
let prop_run_matches_reference ~count =
  let nest seed =
    Nests.random_nest ~mixed_ranks:false (Random.State.make [| seed |])
  in
  QCheck2.Test.make
    ~name:"run_sequential = reference on random imperfect nests" ~count
    ~print:(fun seed -> Loopir.Pretty.program_to_string (nest seed))
    QCheck2.Gen.int
    (fun seed ->
      let env = Interp.prepare (nest seed) ~params:[] in
      let want = outcome (fun () -> reference_run env) in
      same_outcome ~env want (outcome (fun () -> Interp.run_sequential env))
      &&
      match sequential_schedule env with
      | None -> true
      | Some s ->
          same_outcome ~env want
            (outcome (fun () -> Interp.run_schedule env s)))

(* [Exec.run_timed]'s store against the dense reference, on every cell,
   at 1, 2 and 4 domains. *)
let check_timed_matches label want env sched =
  List.iter
    (fun threads ->
      let got =
        outcome (fun () -> (Exec.run_timed env ~threads sched).Exec.store)
      in
      if not (same_outcome want got) then
        Alcotest.failf "%s: reference gave %s, run_timed t=%d %s" label
          (show_outcome want) threads (show_outcome got))
    [ 1; 2; 4 ]

let test_timed_matches_dense_builtins () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun v ->
          let params = List.map (fun p -> (p, v)) prog.Loopir.Ast.params in
          let label = Printf.sprintf "%s@%d" name v in
          let env = Interp.prepare prog ~params in
          match sequential_schedule env with
          | None -> Alcotest.failf "%s: no trace" label
          | Some s ->
              check_timed_matches label
                (outcome (fun () -> reference_run env))
                env s)
        [ 1; 2; 3; 5; 8; 13 ])
    Loopir.Builtin.all

(* A random nest whose rank-1 array [a] has every subscript multiplied
   by [stride]: its touched cells spread over an extent up to 10^5 times
   wider, so most of its pages stay absent.  [b], of rank 2, keeps its
   subscripts, so the dense reference stays small enough to build. *)
let strided_nest stride seed =
  let open Loopir.Ast in
  let scale subs =
    if stride = 1 then subs else List.map (fun e -> Bin (Mul, Int stride, e)) subs
  in
  let rec stmt = function
    | Assign ((a, subs), rhs) ->
        Assign
          ( (a, if a = "a" then scale subs else subs),
            map_expr
              (function Ref ("a", subs) -> Ref ("a", scale subs) | e -> e)
              rhs )
    | Loop l -> Loop { l with body = List.map stmt l.body }
  in
  let prog =
    Nests.random_nest ~mixed_ranks:false (Random.State.make [| seed |])
  in
  { prog with body = List.map stmt prog.body }

let strides = [| 1; 7; 64; 1000; 100000 |]

let prop_stores_match_dense_strided ~count =
  let nest (stride, seed) = strided_nest stride seed in
  QCheck2.Test.make
    ~name:"every store = dense reference on strided random nests" ~count
    ~print:(fun c -> Loopir.Pretty.program_to_string (nest c))
    QCheck2.Gen.(pair (map (fun k -> strides.(k)) (int_bound 4)) int)
    (fun c ->
      let env = Interp.prepare (nest c) ~params:[] in
      let want = outcome (fun () -> reference_run env) in
      same_outcome ~env want (outcome (fun () -> Interp.run_sequential env))
      &&
      (* Every nest the oracle runs, the kernels run too: an unbound name
         or an overflowing constant fails only in a statement that
         runs. *)
      match (want, sequential_schedule env) with
      | Ok _, Some s ->
          check_timed_matches "strided nest" want env s;
          true
      | _ -> true)

let test_run_reference_hand_cases () =
  let parse ?(params = []) src =
    Interp.prepare
      { (Loopir.Parser.parse ~name:"hand" src) with Loopir.Ast.params = [] }
      ~params
  in
  (* [q] is left out of the parameters: only evaluating it can notice. *)
  let dead = parse "DO i = 1, 0\n  a(i + q) = a(i) + q\nENDDO" in
  check_run_matches "unbound name in a loop that never runs" dead;
  Alcotest.(check (list string))
    "nothing noted" []
    (Arrays.arrays (Interp.run_sequential dead));
  (* Each failure once in a subscript, which the scan meets first, and
     once in the right-hand side, which only the interpreter evaluates. *)
  let raises label exn ?params src =
    let env = parse ?params src in
    check_run_matches label env;
    Alcotest.check_raises label exn (fun () ->
        ignore (Interp.run_sequential env))
  in
  let unbound = Failure "Interp: unbound variable q" in
  raises "unbound name (subscript)" unbound
    "DO i = 1, 3\n  a(i + q) = a(i) + 1.0\nENDDO";
  raises "unbound name (right-hand side)" unbound
    "DO i = 1, 3\n  a(i) = a(i) + q\nENDDO";
  raises "real subscript"
    (Loopir.Eval_int.Not_integer "1.5")
    "DO i = 1, 3\n  a(i) = a(i * 1.5) + 1.0\nENDDO";
  raises "real MOD operand"
    (Loopir.Eval_int.Not_integer "1.5")
    "DO i = 1, 3\n  a(i) = MOD(i, 1.5)\nENDDO";
  raises "overflowing product (subscript)" Numeric.Safeint.Overflow
    ~params:[ ("p", 1 lsl 40) ]
    "DO i = 1, 3\n  a(p * p * i) = a(i) + 1.0\nENDDO";
  raises "overflowing product (right-hand side)" Numeric.Safeint.Overflow
    ~params:[ ("p", 1 lsl 40) ]
    "DO i = 1, 3\n  a(i) = MOD(p * p * i, 7)\nENDDO";
  (* Outside the scanned extent a read falls back to the initial value
     and a write raises, in both interpreters. *)
  let env = parse "DO i = 1, 2\n  DO j = 1, 2\n    a(i) = b(j) + 1.0\n  ENDDO\nENDDO" in
  let both label iter =
    let want = outcome (fun () -> Reference.run_instance env 0 iter)
    and got =
      outcome (fun () -> Interp.run_schedule env (one_instance 0 iter))
    in
    if not (same_outcome want got) then
      Alcotest.failf "%s: reference gave %s, run_schedule %s" label
        (show_outcome want) (show_outcome got);
    got
  in
  (match both "out-of-extent read" [| 1; 5 |] with
  | Ok store ->
      Alcotest.(check (float 0.0))
        "read falls back to initial_value"
        (Arrays.initial_value "b" [ 5 ] +. 1.0)
        (Arrays.get store "a" [ 1 ])
  | Error e -> Alcotest.failf "out-of-extent read raised %s" e);
  (match both "out-of-extent write" [| 5; 1 |] with
  | Error e ->
      Alcotest.(check string) "write raises"
        (Printexc.to_string
           (Invalid_argument "Arrays.set: a index out of scanned bounds"))
        e
  | Ok _ -> Alcotest.fail "out-of-extent write did not raise");
  (* Evaluation order, at points outside the scanned space (inside it the
     scan meets every failing subscript first): the right-hand side
     before the left-hand subscripts, and subscripts left to right. *)
  let env =
    parse
      "DO i = 1, 1\n\
      \  a(6 / (i - 5)) = MOD(i * 2305843009213693952, 7) + 1.0\n\
      \  b(6 / (i - 5), i * 2305843009213693952) = 1.0\n\
       ENDDO"
  in
  let order label stmt exn =
    let want = outcome (fun () -> Reference.run_instance env stmt [| 5 |])
    and got =
      outcome (fun () -> Interp.run_schedule env (one_instance stmt [| 5 |]))
    in
    Alcotest.(check string) (label ^ ": reference") (show_outcome want)
      ("exception " ^ Printexc.to_string exn);
    Alcotest.(check string) label (show_outcome want) (show_outcome got)
  in
  order "right-hand side first" 0 Numeric.Safeint.Overflow;
  order "subscripts left to right" 1 Division_by_zero;
  (* A duplicated parameter: the first binding wins, as in the scan. *)
  let dup =
    parse ~params:[ ("n", 3); ("n", 5) ] "DO i = 1, n\n  a(i) = n + 0.5\nENDDO"
  in
  check_run_matches "duplicated parameter" dup;
  let store = Interp.run_sequential dup in
  Alcotest.(check (float 0.0)) "a(3) = n + 0.5 with n = 3" 3.5
    (Arrays.get store "a" [ 3 ]);
  Alcotest.(check (array int)) "extent 1..3" [| 3 |]
    (Option.get (Arrays.view store "a")).Arrays.v_hi

(* ------------------------------------------------------------------ *)
(* Interpreter                                                          *)

let test_interp_prefix_sum () =
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let env = Interp.prepare prog ~params:[ ("n", 5) ] in
  let store = Interp.run_sequential env in
  (* s(i) = s(i-1) + a(i): check the recurrence holds on the result. *)
  let s i = Arrays.get store "s" [ i ] in
  let a i = Arrays.get store "a" [ i ] in
  let expected = ref (Arrays.initial_value "s" [ 1 ]) in
  for i = 2 to 5 do
    expected := !expected +. a i;
    Alcotest.(check (float 1e-9)) (Printf.sprintf "s(%d)" i) !expected (s i)
  done

let test_interp_schedule_equivalence_fig2 () =
  let env = Interp.prepare Loopir.Builtin.fig2 ~params:[] in
  let tr = Trace.build Loopir.Builtin.fig2 ~params:[] in
  let sched = Sched.sequential_of_trace tr in
  match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let rec_schedule prog params_assoc params_arr =
  match Partition.choose prog with
  | Partition.Rec_chains rp ->
      let c = Partition.materialize_rec rp ~params:params_arr in
      (Interp.prepare prog ~params:params_assoc, Sched.of_rec ~stmt:0 c)
  | _ -> Alcotest.fail "REC plan expected"

let test_rec_schedule_semantics_ex1 () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 10); ("n2", 10) ]
      [| 10; 10 |]
  in
  (match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("interp: " ^ m));
  let tr =
    Trace.build Loopir.Builtin.example1 ~params:[ ("n1", 10); ("n2", 10) ]
  in
  match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m)

let test_rec_schedule_semantics_ex2 () =
  let env, sched =
    rec_schedule Loopir.Builtin.example2 [ ("n", 12) ] [| 12 |]
  in
  (match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("interp: " ^ m));
  let tr = Trace.build Loopir.Builtin.example2 ~params:[ ("n", 12) ] in
  match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m)

let test_fronts_schedule_cholesky () =
  let params = [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ] in
  let c = Dataflow.peel_concrete Loopir.Builtin.cholesky ~params in
  let sched = Sched.of_fronts c in
  let env = Interp.prepare Loopir.Builtin.cholesky ~params in
  (match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("interp: " ^ m));
  let tr = Trace.build Loopir.Builtin.cholesky ~params in
  match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m)

(* A trace's instances as (statement, vector) pairs, in trace order. *)
let trace_pairs (tr : Trace.t) =
  Array.to_list
    (Array.map
       (fun (i : Trace.instance) -> (i.Trace.stmt, i.Trace.iter))
       tr.Trace.instances)

let test_illegal_schedule_detected () =
  (* Reverse the sequential order of a serial chain: must be caught both by
     the legality checker and by the interpreter. *)
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 6) ] in
  let bad =
    Sched.of_list [ ("bad", Sched.Tasks [ List.rev (trace_pairs tr) ]) ]
  in
  Alcotest.(check (result unit string))
    "legality checker reports the first broken edge"
    (Error
       "dependence 0→1 not respected (phase 0 task 0 idx 4 vs phase 0 task \
        0 idx 3)")
    (Sched.check_legal bad tr);
  let env = Interp.prepare prog ~params:[ ("n", 6) ] in
  match Interp.check_schedule env bad with
  | Ok () -> Alcotest.fail "interpreter missed reversal"
  | Error _ -> ()

let test_duplicate_instance_detected () =
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 3) ] in
  let inst k = (0, [| k |]) in
  let bad =
    Sched.of_list [ ("dup", Sched.Doall [ inst 1; inst 2; inst 3; inst 2 ]) ]
  in
  Alcotest.(check (result unit string))
    "duplicate detected" (Error "instance S0(2) scheduled twice")
    (Sched.check_legal bad tr)

let test_duplicate_across_tasks_detected () =
  (* The same instance appearing in two tasks of one phase must be caught
     even though each task alone is fine. *)
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 3) ] in
  let inst k = (0, [| k |]) in
  let bad =
    Sched.of_list
      [ ("dup", Sched.Tasks [ [ inst 1; inst 2 ]; [ inst 2; inst 3 ] ]) ]
  in
  Alcotest.(check (result unit string))
    "cross-task duplicate detected" (Error "instance S0(2) scheduled twice")
    (Sched.check_legal bad tr)

let test_edge_violation_same_doall_detected () =
  (* Putting a dependent pair in the same DOALL phase breaks the edge even
     though every instance appears exactly once and in source order. *)
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 4) ] in
  let bad = Sched.of_list [ ("flat", Sched.Doall (trace_pairs tr)) ] in
  Alcotest.(check (result unit string))
    "same-phase dependence edge detected"
    (Error
       "dependence 0→1 not respected (phase 0 task 0 idx 0 vs phase 0 task \
        1 idx 0)")
    (Sched.check_legal bad tr)

(* The instance count is checked before any edge: one instance too few,
   or one the trace lacks, is reported as a count mismatch. *)
let test_missing_and_foreign_instances_detected () =
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 6) ] in
  let seq = trace_pairs tr in
  let sequential task = Sched.of_list [ ("seq", Sched.Tasks [ task ]) ] in
  let omitted = List.filteri (fun k _ -> k <> 2) seq in
  Alcotest.(check (result unit string))
    "omitted instance" (Error "schedule has 4 instances, trace has 5")
    (Sched.check_legal (sequential omitted) tr);
  let foreign = seq @ [ (0, [| 7 |]) ] in
  Alcotest.(check (result unit string))
    "instance the trace lacks" (Error "schedule has 6 instances, trace has 5")
    (Sched.check_legal (sequential foreign) tr)

(* A schedule with as many instances as the trace, one of them swapped
   for an instance the trace lacks: the totals agree and vecadd has no
   edge, so only the membership check can catch it. *)
let test_swapped_instance_detected () =
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 3) ] in
  let inst k = (0, [| k |]) in
  let bad =
    Sched.of_list [ ("swap", Sched.Doall [ inst 1; inst 2; inst 9 ]) ]
  in
  Alcotest.(check (result unit string))
    "swapped instance detected" (Error "instance S0(9) is not in the trace")
    (Sched.check_legal bad tr)

(* A schedule as the pipeline builds it (exec-paper builds its cases the
   same way). *)
let driver_schedule ?strategy prog params =
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s" (Diag.to_string e)
  in
  let plan = ok (Pipeline.Driver.classify ?strategy prog) in
  let m = ok (Pipeline.Driver.materialize plan ~prog ~params) in
  (Interp.prepare prog ~params, ok (Pipeline.Driver.schedule m))

(* A schedule is one int array per phase: (width + 1) words per instance
   (its statement and a [width]-coordinate vector), plus a few words per
   phase (its record, label and array headers) and one per task start. *)
let test_schedule_is_flat () =
  List.iter
    (fun (name, strategy, params) ->
      let _, sched = driver_schedule ~strategy Loopir.Builtin.example1 params in
      let phases = Sched.phase_list sched in
      let n = Sched.n_instances sched and width = 2 in
      let tasks =
        List.fold_left (fun acc p -> acc + Sched.n_tasks p) 0 phases
      in
      let limit =
        ((width + 1) * n) + (16 * List.length phases) + tasks + 256
      in
      let words = Obj.reachable_words (Obj.repr sched) in
      if words > limit then
        Alcotest.failf
          "%s: %d words for %d instances, %d phases, %d tasks (limit %d)" name
          words n (List.length phases) tasks limit)
    [
      ("example1-rec", Pipeline.Plan.Rec, [ ("n1", 200); ("n2", 300) ]);
      ("example1-pdm", Pipeline.Plan.Pdm, [ ("n1", 200); ("n2", 300) ]);
      ("example1-mindist", Pipeline.Plan.Mindist, [ ("n1", 100); ("n2", 150) ]);
    ]

(* A schedule read back through Sched's accessors: each phase's label
   and (statement, vector) instances, a task phase task by task. *)
let read_back s =
  List.map
    (fun p ->
      let inst k = (Sched.stmt p k, Sched.iter s p k) in
      let range lo n = List.init n (fun i -> inst (lo + i)) in
      ( Sched.phase_label p,
        if Sched.is_doall p then Sched.Doall (range 0 (Sched.phase_size p))
        else
          Sched.Tasks
            (List.init (Sched.n_tasks p) (fun u ->
                 range (Sched.task_start p u) (Sched.task_length p u))) ))
    (Sched.phase_list s)

(* Does [s] read back as the phases [expected], the empty ones dropped? *)
let lists expected s =
  let nonempty = function
    | _, Sched.Doall l -> l <> []
    | _, Sched.Tasks ls -> List.exists (fun l -> l <> []) ls
  in
  read_back s = List.filter nonempty expected

(* The box [lo_k ≤ i_k ≤ hi_k] over [iters], as a set. *)
let box iters bounds =
  let d = Array.length iters in
  let unit k c = Array.init d (fun j -> if j = k then c else 0) in
  let ge k c const =
    Presburger.Constr.Ge (Presburger.Linexpr.make (unit k c) const)
  in
  let cons k (lo, hi) = [ ge k 1 (-lo); ge k (-1) hi ] in
  Presburger.Iset.make ~iters ~params:[||]
    [ Presburger.Poly.make d (List.concat (List.mapi cons bounds)) ]

(* The sets of one statement's builders, drawn from its points [pts]
   (of dimension [dim], in trace order), each with the schedule built
   from them: REC's P1 and P3 from alternate points and chains of 1–3
   points; PDM's cosets and mindist's tiles for distances between the
   first points; UNIQUE's regions, boxes over the points' extent. *)
let stmt_cases ~stmt ~dim pts =
  let module B = Baselines in
  let tag l = List.map (fun v -> (stmt, v)) l in
  let take n l = List.filteri (fun i _ -> i < n) l
  and drop n l = List.filteri (fun i _ -> i >= n) l in
  let p1 = List.filteri (fun i _ -> i mod 2 = 0) pts
  and p3 = List.filteri (fun i _ -> i mod 2 = 1) pts in
  let rec chains k = function
    | [] -> []
    | l -> take k l :: chains ((k mod 3) + 1) (drop k l)
  in
  let chains = chains 1 pts in
  let rec_ =
    {
      Partition.p1_pts = Core.Points.of_list ~dim p1;
      chains = Core.Chain.of_lists ~dim chains;
      p3_pts = Core.Points.of_list ~dim p3;
      growth = 0.0;
      theorem_bound = None;
    }
  in
  let cases =
    [
      ( [
          ("P1", Sched.Doall (tag p1));
          ("P2-chains", Sched.Tasks (List.map tag chains));
          ("P3", Sched.Doall (tag p3));
        ],
        Sched.of_rec ~stmt rec_ );
    ]
  in
  if dim = 0 then cases
  else
    let steps =
      List.map2
        (fun a b -> Array.map2 ( - ) b a)
        (take (List.length pts - 1) pts)
        (List.tl pts)
    in
    let ds = take 2 (List.filter (Array.exists (( <> ) 0)) steps) in
    let pdm = B.Pdm.of_distances ~dim ds
    and md = B.Mindist.of_distances ~dim ds in
    let extent k =
      List.fold_left
        (fun (lo, hi) v -> (min lo v.(k), max hi v.(k)))
        (max_int, min_int) pts
    in
    let iters = Array.init dim (Printf.sprintf "i%d") in
    let slice r =
      box iters
        (List.init dim (fun k ->
             let lo, hi = extent k in
             if k = 0 then (lo + r, lo + r + (r mod 2)) else (lo, hi)))
    in
    let u =
      {
        B.Unique.head_flow = slice 0;
        head_rest = slice 1;
        mid = slice 2;
        tail_anti = slice 3;
        tail_rest =
          box iters
            (List.init dim (fun k ->
                 let lo, hi = extent k in
                 (lo + 4, hi)));
      }
    in
    let points set = tag (Presburger.Iset.points set) in
    cases
    @ [
        ( [ ("PDM-cosets", Sched.Tasks (List.map tag (B.Pdm.cosets pdm pts))) ],
          B.Pdm.schedule pdm ~stmt pts );
        ( List.map
            (fun (key, l) ->
              ( Printf.sprintf "tile%s" (Linalg.Ivec.to_string key),
                Sched.Doall (tag l) ))
            (B.Mindist.tiles md pts),
          B.Mindist.schedule md ~stmt pts );
        ( [
            ("unique-1-head-flow", Sched.Doall (points u.head_flow));
            ("unique-2-head-rest", Sched.Doall (points u.head_rest));
            ("unique-3-sequential", Sched.Tasks [ points u.mid ]);
            ("unique-4-tail-anti", Sched.Doall (points u.tail_anti));
            ("unique-5-tail-rest", Sched.Doall (points u.tail_rest));
          ],
          B.Unique.schedule u ~stmt ~params:[||] );
      ]

(* Every builder, on sets drawn from a random nest's instances: the
   schedule lists the same (statement, vector) pairs, in the same task
   order, as the sets it was built from. *)
let prop_builders_read_back ~count =
  let nest seed = Nests.random_nest (Random.State.make [| seed |]) in
  QCheck2.Test.make ~name:"builders list the sets they were built from" ~count
    ~print:(fun seed -> Loopir.Pretty.program_to_string (nest seed))
    QCheck2.Gen.int
    (fun seed ->
      let prog = nest seed in
      match Trace.build prog ~params:[] with
      | exception _ -> true
      | tr ->
          let pairs =
            List.map (fun (i : Trace.instance) -> (i.Trace.stmt, i.Trace.iter))
          in
          let all = pairs (Array.to_list tr.Trace.instances) in
          let fronts = Dataflow.peel_concrete prog ~params:[] in
          let of_ids ids =
            let insts = fronts.Dataflow.trace.Trace.instances in
            pairs (List.map (Array.get insts) ids)
          in
          let stmts = List.sort_uniq compare (List.map fst all) in
          List.for_all
            (fun (expected, s) -> lists expected s)
            ([
               ( [ ("sequential", Sched.Tasks [ all ]) ],
                 Sched.sequential_of_trace tr );
               ( List.mapi
                   (fun k ids ->
                     ( Printf.sprintf "front-%d" (k + 1),
                       Sched.Doall (of_ids ids) ))
                   (Array.to_list fronts.Dataflow.fronts),
                 Sched.of_fronts fronts );
             ]
            @ List.concat_map
                (fun stmt ->
                  let pts =
                    List.filter_map
                      (fun (s, v) -> if s = stmt then Some v else None)
                      all
                  in
                  stmt_cases ~stmt ~dim:(Array.length (List.hd pts)) pts)
                stmts))

(* ------------------------------------------------------------------ *)
(* Simulator                                                            *)

let test_lpt_makespan () =
  Alcotest.(check (float 1e-9)) "balanced" 6.0
    (Sim.lpt_makespan 2 [| 4.0; 3.0; 3.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "one proc" 12.0
    (Sim.lpt_makespan 1 [| 4.0; 3.0; 3.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "dominant task" 9.0
    (Sim.lpt_makespan 4 [| 9.0; 1.0; 1.0; 1.0 |])

let test_sim_speedup_monotone () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 30); ("n2", 40) ]
      [| 30; 40 |]
  in
  ignore env;
  let cost = Sim.base in
  let s p = Sim.speedup cost ~threads:p ~n_seq:(30 * 40) sched in
  Alcotest.(check bool) "2 ≥ 1" true (s 2 >= s 1);
  Alcotest.(check bool) "4 ≥ 2" true (s 4 >= s 2);
  Alcotest.(check bool) "speedup positive" true (s 1 > 0.0)

let test_sim_code_factor () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 30); ("n2", 40) ]
      [| 30; 40 |]
  in
  ignore env;
  let fast = Sim.with_factor 0.8 and slow = Sim.with_factor 1.2 in
  Alcotest.(check bool) "cheaper code is faster" true
    (Sim.time fast ~threads:2 sched < Sim.time slow ~threads:2 sched)

let test_pipeline_time () =
  let c = { Sim.base with Sim.fork = 0.0; barrier = 0.0 } in
  (* 4 stages, no delay, 4 threads: all parallel → one stage time. *)
  Alcotest.(check (float 1e-9)) "no delay" 10.0
    (Sim.pipeline_time c ~threads:4 ~stages:4 ~stage_work:10.0 ~delay:0.0);
  (* delay ≥ stage_work on one thread: serialized by delay. *)
  let t = Sim.pipeline_time c ~threads:4 ~stages:4 ~stage_work:1.0 ~delay:5.0 in
  Alcotest.(check (float 1e-9)) "delay bound" 16.0 t

(* ------------------------------------------------------------------ *)
(* Domain executor                                                      *)

let test_exec_parallel_matches_sequential () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 12); ("n2", 12) ]
      [| 12; 12 |]
  in
  List.iter
    (fun threads ->
      match Exec.check env ~threads sched with
      | Ok () -> ()
      | Error m ->
          Alcotest.fail (Printf.sprintf "threads=%d: %s" threads m))
    [ 1; 2; 4 ]

let test_exec_fronts_parallel () =
  let params = [ ("nmat", 2); ("m", 2); ("n", 4); ("nrhs", 1) ] in
  let c = Dataflow.peel_concrete Loopir.Builtin.cholesky ~params in
  let sched = Sched.of_fronts c in
  let env = Interp.prepare Loopir.Builtin.cholesky ~params in
  match Exec.check env ~threads:4 sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_exec_determinism_paper_examples () =
  (* Every paper example, every thread count: the domain executor must land
     on exactly the sequential store (same float results, no races). *)
  let cases =
    [
      ("example1", Loopir.Builtin.example1, [ ("n1", 10); ("n2", 10) ]);
      ("fig2", Loopir.Builtin.fig2, []);
      ("example2", Loopir.Builtin.example2, [ ("n", 12) ]);
      ( "cholesky",
        Loopir.Builtin.cholesky,
        [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ] );
    ]
  in
  List.iter
    (fun (name, prog, params) ->
      let sched =
        match Partition.choose prog with
        | Partition.Rec_chains rp ->
            let arr = Array.of_list (List.map snd params) in
            Sched.of_rec ~stmt:0 (Partition.materialize_rec_scan rp ~params:arr)
        | Partition.Dataflow_const | Partition.Pdm_fallback _ ->
            Sched.of_fronts (Dataflow.peel_concrete prog ~params)
      in
      let env = Interp.prepare prog ~params in
      List.iter
        (fun threads ->
          match Exec.check env ~threads sched with
          | Ok () -> ()
          | Error m ->
              Alcotest.fail
                (Printf.sprintf "%s at %d thread(s): %s" name threads m))
        [ 1; 2; 4; 8 ])
    cases

let test_compiled_matches_interp_examples () =
  (* The compiled kernels must leave a store bit-for-bit equal to the
     sequential oracle on every paper example, at 1/2/4 domains. *)
  let cases =
    [
      ("example1", Loopir.Builtin.example1, [ ("n1", 10); ("n2", 10) ]);
      ("fig2", Loopir.Builtin.fig2, []);
      ("example2", Loopir.Builtin.example2, [ ("n", 12) ]);
      ( "cholesky",
        Loopir.Builtin.cholesky,
        [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ] );
    ]
  in
  List.iter
    (fun (name, prog, params) ->
      let sched =
        match Partition.choose prog with
        | Partition.Rec_chains rp ->
            let arr = Array.of_list (List.map snd params) in
            Sched.of_rec ~stmt:0
              (Partition.materialize_rec_scan rp ~params:arr)
        | Partition.Dataflow_const | Partition.Pdm_fallback _ ->
            Sched.of_fronts (Dataflow.peel_concrete prog ~params)
      in
      let env = Interp.prepare prog ~params in
      let oracle = Interp.run_sequential env in
      List.iter
        (fun threads ->
          Alcotest.(check bool)
            (Printf.sprintf "%s compiled t=%d ≡ sequential" name threads)
            true
            (Arrays.equal (Exec.run env ~threads sched) oracle))
        [ 1; 2; 4 ])
    cases

let test_compiled_matches_interp_corpus () =
  (* Every corpus kernel through a sequential-order schedule, at 1/2/4
     domains: exercises the compiler's general paths (non-affine
     subscripts, MOD, powers, parameters in subscripts, multi-statement
     bodies, reductions). *)
  List.iter
    (fun (name, prog) ->
      let params = List.map (fun p -> (p, 8)) prog.Loopir.Ast.params in
      let tr = Trace.build prog ~params in
      let sched = Sched.sequential_of_trace tr in
      let env = Interp.prepare prog ~params in
      let oracle = Interp.run_sequential env in
      List.iter
        (fun threads ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: compiled t=%d ≡ sequential interp" name
               threads)
            true
            (Arrays.equal (Exec.run env ~threads sched) oracle))
        [ 1; 2; 4 ])
    Loopir.Builtin.corpus

let test_compiled_general_path_nonaffine () =
  (* A quadratic subscript cannot be fused into a linear offset: both
     references take the general Arrays.get/set path — and must still
     match the oracle exactly on 2 domains. *)
  let open Loopir.Ast in
  let sq = Bin (Mul, Var "i", Var "i") in
  let prog =
    program ~name:"nonaffine"
      [
        Loop
          {
            index = "i";
            lo = Int 1;
            hi = Int 6;
            step = 1;
            body =
              [ Assign (("a", [ sq ]), Bin (Add, Ref ("a", [ sq ]), Int 1)) ];
          };
      ]
  in
  (* The fused form weighs four coordinates: a subscript on the fifth
     loop's index takes the general path too.  Statements outside every
     loop have no coordinates to read. *)
  let deep =
    Loopir.Parser.parse ~name:"deep"
      {|c(1) = 2.0
c(2) = c(1)*3.0
DO i = 1, 2
  DO j = 1, 2
    DO k = 1, 2
      DO l = 1, 2
        DO m = 1, 3
          b(i + j, k + l + m) = b(i, m) + c(2)
          d(i, j + k + l) = d(i, j) - b(j, l)*c(1)
        ENDDO
      ENDDO
    ENDDO
  ENDDO
ENDDO
c(3) = c(2) + d(1, 3)|}
  in
  List.iter
    (fun (name, prog) ->
      let env = Interp.prepare prog ~params:[] in
      let sched = Sched.sequential_of_trace (Trace.build prog ~params:[]) in
      Alcotest.(check bool)
        (name ^ ": general path ≡ sequential interp")
        true
        (Arrays.equal
           (Exec.run env ~threads:2 sched)
           (Interp.run_sequential env)))
    [ ("quadratic", prog); ("five deep", deep) ]

let test_doall_chunk_count_bounds () =
  (* The chunk policy: nothing for empty phases, one chunk sequentially
     and below two affordable chunks, never more than 8×domains or the
     instance count, and monotone in the instance count and in the
     per-iteration cost. *)
  let c = Sim.base_seconds in
  let count ?(c = c) ~threads n = Sim.doall_chunk_count c ~threads ~n in
  Alcotest.(check int) "empty phase" 0 (count ~threads:4 0);
  Alcotest.(check int) "sequential" 1 (count ~threads:1 5000);
  (* Each chunk must be worth 4 × (fork + barrier) = 200 µs, and an
     iteration is modelled at 1 µs: two chunks from 400 iterations. *)
  List.iter
    (fun (n, want) ->
      Alcotest.(check int) (Printf.sprintf "n=%d at 2 domains" n) want
        (count ~threads:2 n))
    [
      (1, 1); (4, 1); (265, 1); (399, 1); (400, 2); (766, 3); (1000, 5);
      (6400, 16);
    ];
  Alcotest.(check int) "capped by n" 2
    (count ~c:{ c with Sim.w_iter = 1.0 } ~threads:4 2);
  List.iter
    (fun threads ->
      let prev = ref 0 in
      List.iter
        (fun n ->
          let k = count ~threads n in
          Alcotest.(check bool)
            (Printf.sprintf "t=%d n=%d: 1 <= k <= min n (8*t)" threads n)
            true
            (k >= 1 && k <= 8 * threads && k <= n);
          Alcotest.(check bool)
            (Printf.sprintf "t=%d n=%d: monotone in n" threads n)
            true (k >= !prev);
          prev := k)
        [ 1; 2; 10; 399; 400; 1000; 6400; 100_000; 10_000_000 ])
    [ 2; 4; 8 ];
  (* Monotone in the per-iteration cost. *)
  List.iter
    (fun n ->
      let prev = ref 0 in
      List.iter
        (fun f ->
          let k =
            count ~c:{ c with Sim.w_iter = c.Sim.w_iter *. f } ~threads:4 n
          in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d w_iter×%g: monotone in w_iter" n f)
            true (k >= !prev);
          prev := k)
        [ 0.01; 0.5; 1.0; 2.0; 100.0; 1e6 ])
    [ 10; 400; 1000 ]

let test_doall_chunk_ranges () =
  (* Chunk ranges tile [0, n) exactly, in order, with no empty chunk. *)
  List.iter
    (fun (k, n) ->
      let ranges = Exec.doall_chunks ~chunks:k n in
      let expected_k = if n = 0 then 0 else min (max 1 k) n in
      Alcotest.(check int)
        (Printf.sprintf "k=%d n=%d: chunk count" k n)
        expected_k (List.length ranges);
      let pos = ref 0 in
      List.iter
        (fun (off, len) ->
          Alcotest.(check int) "contiguous" !pos off;
          Alcotest.(check bool) "non-empty" true (len > 0);
          pos := !pos + len)
        ranges;
      Alcotest.(check int) "complete" n !pos)
    [ (1, 0); (4, 0); (1, 7); (3, 7); (7, 7); (12, 7); (0, 5); (-2, 5); (8, 64) ]

(* ------------------------------------------------------------------ *)
(* Workers: the persistent executor pool                                *)

module Workers = Runtime.Workers

let test_workers_results_in_order () =
  let w = Workers.create ~domains:3 in
  let r = Workers.run w (Array.init 10 (fun i () -> i * i)) in
  Workers.shutdown w;
  Alcotest.(check (array int)) "in order" (Array.init 10 (fun i -> i * i)) r

let test_workers_reuse_no_respawn () =
  let w = Workers.create ~domains:4 in
  Alcotest.(check int) "spawned = domains - 1" 3 (Workers.spawned w);
  for k = 1 to 50 do
    let r = Workers.run w (Array.init 8 (fun i () -> i + k)) in
    Alcotest.(check int) "sum" ((8 * k) + 28) (Array.fold_left ( + ) 0 r)
  done;
  Alcotest.(check int) "no respawn across 50 runs" 3 (Workers.spawned w);
  Workers.shutdown w

let test_workers_pool_of_one () =
  let w = Workers.create ~domains:1 in
  Alcotest.(check int) "nothing spawned" 0 (Workers.spawned w);
  let r = Workers.run w (Array.init 5 (fun i () -> 2 * i)) in
  Alcotest.(check (array int)) "caller drains alone" [| 0; 2; 4; 6; 8 |] r;
  Workers.shutdown w

let test_workers_oversubscription () =
  (* far more thunks than domains: everything still runs exactly once *)
  let w = Workers.create ~domains:2 in
  let r = Workers.run w (Array.init 100 (fun i () -> i)) in
  Alcotest.(check int) "all jobs ran" (100 * 99 / 2)
    (Array.fold_left ( + ) 0 r);
  Workers.shutdown w

exception Boom

let test_workers_exception_propagates () =
  let w = Workers.create ~domains:2 in
  (match Workers.run w [| (fun () -> 1); (fun () -> raise Boom) |] with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom -> ());
  (* the pool survives a failed call *)
  let r = Workers.run w [| (fun () -> 3); (fun () -> 4) |] in
  Alcotest.(check (array int)) "pool survives" [| 3; 4 |] r;
  Workers.shutdown w

let test_workers_shutdown_idempotent_and_post_run () =
  let w = Workers.create ~domains:3 in
  ignore (Workers.run w (Array.init 4 (fun i () -> i)));
  Workers.shutdown w;
  Workers.shutdown w;
  (* a run after shutdown still completes: the caller drains its own jobs *)
  let r = Workers.run w (Array.init 4 (fun i () -> i + 1)) in
  Alcotest.(check (array int)) "post-shutdown run" [| 1; 2; 3; 4 |] r;
  Alcotest.(check int) "domains unchanged" 3 (Workers.domains w)

let test_workers_telemetry_consistency () =
  (* jobs = stolen + caller must hold over the diff of any quiescent
     window, whatever the 4-domain queue race decided; every queued job
     contributes one queue-wait observation. *)
  let before = Obs.Metrics.snapshot () in
  let w = Workers.create ~domains:4 in
  let total = Atomic.make 0 in
  for _ = 1 to 5 do
    ignore
      (Workers.run w
         (Array.init 8 (fun i () -> Atomic.fetch_and_add total i)))
  done;
  Workers.shutdown w;
  let d =
    Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ())
  in
  let c name = Option.value ~default:0 (List.assoc_opt name d.Obs.Metrics.counters) in
  Alcotest.(check int) "every thunk counted" 40 (c "runtime.workers.jobs");
  Alcotest.(check int) "jobs = stolen + caller"
    (c "runtime.workers.jobs")
    (c "runtime.workers.jobs_stolen" + c "runtime.workers.jobs_caller");
  Alcotest.(check bool) "caller ran at least its first thunks" true
    (c "runtime.workers.jobs_caller" >= 5);
  let queued =
    List.assoc_opt "runtime.workers.queue_wait_us" d.Obs.Metrics.histograms
  in
  (match queued with
  | None -> Alcotest.fail "no queue-wait observations"
  | Some h ->
      (* 5 runs × 7 queued jobs (the first thunk never queues) *)
      Alcotest.(check int) "one wait per queued job" 35
        h.Obs.Histogram.count);
  Alcotest.(check int) "all thunks really ran" (5 * (8 * 7 / 2))
    (Atomic.get total)

let test_exec_degenerate_threads () =
  (* threads ≤ 0 must clamp to sequential execution, not crash or spawn. *)
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let params = [ ("n", 4) ] in
  let tr = Trace.build prog ~params in
  let sched = Sched.sequential_of_trace tr in
  let env = Interp.prepare prog ~params in
  List.iter
    (fun threads ->
      match Exec.check env ~threads sched with
      | Ok () -> ()
      | Error m ->
          Alcotest.fail (Printf.sprintf "threads=%d: %s" threads m))
    [ 0; -1 ]

let test_thread_loads_overflow () =
  (* A phase that used more buckets than [threads] must fold the overflow
     into the last slot rather than silently dropping those loads
     (regression: loads were dropped when stats were taken with a larger
     effective thread count). *)
  let stat loads =
    {
      Exec.label = "p";
      n_instances = Array.fold_left ( + ) 0 loads;
      n_units = Array.length loads;
      loads;
      busy = Array.map (fun _ -> 0.0) loads;
      alloc = Array.map (fun _ -> 0.0) loads;
      seconds = 0.0;
    }
  in
  let timed =
    {
      Exec.store = Arrays.create ();
      seconds = 0.0;
      phase_stats = [ stat [| 1; 2; 3; 4; 5 |]; stat [| 10 |] ];
    }
  in
  Alcotest.(check (array int))
    "overflow folds into last slot" [| 11; 14 |]
    (Exec.thread_loads timed ~threads:2);
  Alcotest.(check (array int))
    "exact fit untouched" [| 11; 2; 3; 4; 5 |]
    (Exec.thread_loads timed ~threads:5);
  (* End to end: run a many-task schedule sequentially, then ask for the
     loads at the parallel thread count — nothing may be lost. *)
  let env, sched =
    rec_schedule Loopir.Builtin.example2 [ ("n", 12) ] [| 12 |]
  in
  let tmd = Exec.run_timed env ~threads:1 sched in
  let total = Array.fold_left ( + ) 0 (Exec.thread_loads tmd ~threads:4) in
  Alcotest.(check int) "all instances accounted for" (12 * 12) total

let test_run_timed_busy_arrays () =
  (* busy is aligned with loads and never negative; sequential runs report
     exactly one slot. *)
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 10); ("n2", 10) ]
      [| 10; 10 |]
  in
  List.iter
    (fun threads ->
      let tmd = Exec.run_timed env ~threads sched in
      List.iter
        (fun (ps : Exec.phase_stat) ->
          if threads = 1 then
            Alcotest.(check int) "one busy slot" 1 (Array.length ps.Exec.busy);
          Array.iter
            (fun b ->
              Alcotest.(check bool) "busy >= 0" true (b >= 0.0))
            ps.Exec.busy;
          Alcotest.(check bool) "busy within phase wall" true
            (Array.fold_left max 0.0 ps.Exec.busy
            <= ps.Exec.seconds +. 1e-3))
        tmd.Exec.phase_stats)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Domains engaged per phase                                            *)

let with_pool domains f =
  let w = Workers.create ~domains in
  Fun.protect ~finally:(fun () -> Workers.shutdown w) (fun () -> f w)

(* The workers counters a thunk moves: [(jobs, jobs_stolen, queued)],
   [queued] the count of the queue-wait histogram. *)
let pool_traffic f =
  let before = Obs.Metrics.snapshot () in
  let v = f () in
  let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
  let c name =
    Option.value ~default:0 (List.assoc_opt name d.Obs.Metrics.counters)
  in
  let queued =
    match
      List.assoc_opt "runtime.workers.queue_wait_us" d.Obs.Metrics.histograms
    with
    | Some h -> h.Obs.Histogram.count
    | None -> 0
  in
  (v, (c "runtime.workers.jobs", c "runtime.workers.jobs_stolen", queued))

let test_small_phases_enqueue_nothing () =
  (* exec-paper's mindist schedule: 3,876 phases of 1–4 instances, none
     worth a second domain, so the 2-domain pool sees no job at all. *)
  let env, sched =
    driver_schedule ~strategy:Pipeline.Plan.Mindist Loopir.Builtin.example1
      [ ("n1", 100); ("n2", 150) ]
  in
  Alcotest.(check int) "mindist phases" 3876 (Sched.n_phases sched);
  let oracle = Interp.run_sequential env in
  with_pool 2 (fun w ->
      let tmd, (jobs, stolen, queued) =
        pool_traffic (fun () -> Exec.run_timed ~workers:w env ~threads:2 sched)
      in
      Alcotest.(check (triple int int int))
        "jobs, jobs_stolen, queue waits" (0, 0, 0) (jobs, stolen, queued);
      List.iter
        (fun (ps : Exec.phase_stat) ->
          Alcotest.(check int) (ps.Exec.label ^ ": one unit") 1 ps.Exec.n_units;
          Alcotest.(check int) (ps.Exec.label ^ ": one domain") 1
            (Array.length ps.Exec.loads))
        tmd.Exec.phase_stats;
      Alcotest.(check bool) "store = run_sequential" true
        (Arrays.equal tmd.Exec.store oracle));
  (* example1-rec at 200×300: each of its 3 phases has ≥ 766 instances
     and still engages both domains. *)
  let env, sched =
    driver_schedule ~strategy:Pipeline.Plan.Rec Loopir.Builtin.example1
      [ ("n1", 200); ("n2", 300) ]
  in
  let oracle = Interp.run_sequential env in
  with_pool 2 (fun w ->
      let tmd, (jobs, _, _) =
        pool_traffic (fun () -> Exec.run_timed ~workers:w env ~threads:2 sched)
      in
      Alcotest.(check int) "three phases" 3 (List.length tmd.Exec.phase_stats);
      Alcotest.(check int) "two drainers per phase" 6 jobs;
      List.iter
        (fun (ps : Exec.phase_stat) ->
          Alcotest.(check int) (ps.Exec.label ^ ": two domains") 2
            (Array.length ps.Exec.loads))
        tmd.Exec.phase_stats;
      Alcotest.(check bool) "store = run_sequential" true
        (Arrays.equal tmd.Exec.store oracle))

let nonempty_tasks p =
  List.length
    (List.filter
       (fun u -> Sched.task_length p u > 0)
       (List.init (Sched.n_tasks p) Fun.id))

let test_transient_pool_widest_phase () =
  (* A run without [?workers] makes its pool of the widest phase's
     domains, not [threads]: at 200 threads, above the runtime's domain
     limit, each schedule here asks for a few (example1-REC's P1 of
     1,802 instances affords 9).  The phases run on a supplied pool, so
     nothing is spawned while the engaged domains are read off the phase
     statistics. *)
  let spawned () =
    Option.value ~default:0
      (List.assoc_opt "runtime.workers.spawned"
         (Obs.Metrics.snapshot ()).Obs.Metrics.counters)
  in
  with_pool 2 (fun w ->
      let before = spawned () in
      List.iter
        (fun (name, strategy, prog, params) ->
          let env, sched = driver_schedule ?strategy prog params in
          let tmd = Exec.run_timed ~workers:w env ~threads:200 sched in
          let widest =
            List.fold_left
              (fun m (ps : Exec.phase_stat) -> max m (Array.length ps.Exec.loads))
              1 tmd.Exec.phase_stats
          in
          Alcotest.(check int) (name ^ ": pool = widest phase") widest
            (Exec.pool_domains ~threads:200 sched);
          if widest >= 200 then
            Alcotest.failf "%s: a phase engaged %d domains" name widest)
        [
          ( "example1-rec",
            Some Pipeline.Plan.Rec,
            Loopir.Builtin.example1,
            [ ("n1", 40); ("n2", 60) ] );
          ( "example1-mindist",
            Some Pipeline.Plan.Mindist,
            Loopir.Builtin.example1,
            [ ("n1", 100); ("n2", 150) ] );
          ( "cholesky",
            None,
            Loopir.Builtin.cholesky,
            [ ("n", 30); ("m", 8); ("nmat", 4); ("nrhs", 2) ] );
        ];
      Alcotest.(check int) "domains spawned" before (spawned ()));
  (* mindist's phases all engage one domain: a run without a pool at 200
     threads spawns nothing. *)
  let env, sched =
    driver_schedule ~strategy:Pipeline.Plan.Mindist Loopir.Builtin.example1
      [ ("n1", 100); ("n2", 150) ]
  in
  Alcotest.(check int) "mindist: no pool" 1 (Exec.pool_domains ~threads:200 sched);
  let before = spawned () in
  ignore (Exec.run_timed env ~threads:200 sched);
  Alcotest.(check int) "mindist at 200 threads: domains spawned" before
    (spawned ())

let test_small_task_phases_inline () =
  (* Task phases under 400 instances at t = 4 (REC chains of example2,
     PDM cosets of example1) run on the caller, one unit per non-empty
     task, and leave the store bit for bit equal to run_sequential. *)
  List.iter
    (fun (name, strategy, prog, params) ->
      let env, sched = driver_schedule ~strategy prog params in
      let tasks =
        List.filter (fun p -> not (Sched.is_doall p)) (Sched.phase_list sched)
      in
      Alcotest.(check bool) (name ^ ": has a task phase") true (tasks <> []);
      let tmd, (jobs, _, _) =
        pool_traffic (fun () -> Exec.run_timed env ~threads:4 sched)
      in
      Alcotest.(check int) (name ^ ": no pool job") 0 jobs;
      List.iter2
        (fun phase (ps : Exec.phase_stat) ->
          Alcotest.(check int) (ps.Exec.label ^ ": one domain") 1
            (Array.length ps.Exec.loads);
          if not (Sched.is_doall phase) then
            Alcotest.(check int)
              (ps.Exec.label ^ ": one unit per non-empty task")
              (nonempty_tasks phase) ps.Exec.n_units)
        (Sched.phase_list sched) tmd.Exec.phase_stats;
      Alcotest.(check bool) (name ^ ": store = run_sequential") true
        (Arrays.equal tmd.Exec.store (Interp.run_sequential env)))
    [
      ("example2-rec", Pipeline.Plan.Rec, Loopir.Builtin.example2, [ ("n", 12) ]);
      ( "example1-pdm",
        Pipeline.Plan.Pdm,
        Loopir.Builtin.example1,
        [ ("n1", 12); ("n2", 16) ] );
    ]

let test_traced_units_match_untraced () =
  (* Tracing never changes which domains run a phase, nor its units. *)
  List.iter
    (fun (name, strategy, prog, params, threads) ->
      let env, sched = driver_schedule ~strategy prog params in
      with_pool threads (fun w ->
          let units () =
            List.map
              (fun (ps : Exec.phase_stat) ->
                (ps.Exec.n_units, Array.length ps.Exec.loads))
              (Exec.run_timed ~workers:w env ~threads sched).Exec.phase_stats
          in
          let untraced = units () in
          let log = Obs.Event.make () in
          let traced = Obs.Event.with_ambient log units in
          Alcotest.(check bool) (name ^ ": spans recorded") true
            (Obs.Event.spans log <> []);
          Alcotest.(check (list (pair int int)))
            (name ^ ": units and domains per phase") untraced traced))
    [
      ( "example1-mindist",
        Pipeline.Plan.Mindist,
        Loopir.Builtin.example1,
        [ ("n1", 20); ("n2", 30) ],
        4 );
      ("example2-rec", Pipeline.Plan.Rec, Loopir.Builtin.example2, [ ("n", 12) ], 4);
      ( "example1-rec",
        Pipeline.Plan.Rec,
        Loopir.Builtin.example1,
        [ ("n1", 200); ("n2", 300) ],
        2 );
    ]

let test_mindist_phase_allocation () =
  (* A phase on the caller costs a few dozen words of bookkeeping, nearly
     all the returned statistics, and its kernels nothing per instance
     (exact counters; all of mindist's phases run on the caller, at one
     thread and on exec-paper's 2-domain pool alike). *)
  let env, sched =
    driver_schedule ~strategy:Pipeline.Plan.Mindist Loopir.Builtin.example1
      [ ("n1", 100); ("n2", 150) ]
  in
  let oracle = Interp.run_sequential env in
  with_pool 2 (fun w ->
      List.iter
        (fun (label, workers, threads) ->
          let run st = Exec.run_timed ?workers ~store:st env ~threads sched in
          ignore (run (Interp.scan_bounds env));
          let st = Interp.scan_bounds env in
          let p = Obs.Gcstats.mark () in
          let tmd = run st in
          let words = Obs.Gcstats.words_since p in
          let per_phase = words /. float_of_int (Sched.n_phases sched) in
          if per_phase > 48.0 then
            Alcotest.failf
              "%s: run_timed allocated %.0f words, %.1f per phase (limit 48)"
              label words per_phase;
          Alcotest.(check bool) (label ^ ": store = run_sequential") true
            (Arrays.equal tmd.Exec.store oracle))
        [ ("t=1", None, 1); ("t=2 on a 2-domain pool", Some w, 2) ])

let test_pool_path_matches_sequential () =
  (* With a per-iteration cost of a second every phase of two or more
     instances affords a chunk per instance, so every phase goes to the
     pool: the chunked path must still land on the sequential store. *)
  let split = { Sim.base_seconds with Sim.w_iter = 1.0 } in
  List.iter
    (fun (name, prog) ->
      let params = List.map (fun p -> (p, 8)) prog.Loopir.Ast.params in
      let sched =
        Sched.sequential_of_trace (Trace.build prog ~params)
      in
      let env = Interp.prepare prog ~params in
      let oracle = Interp.run_sequential env in
      List.iter
        (fun threads ->
          let tmd = Exec.run_timed ~cost:split env ~threads sched in
          Alcotest.(check bool)
            (Printf.sprintf "%s t=%d: store = run_sequential" name threads)
            true
            (Arrays.equal tmd.Exec.store oracle))
        [ 2; 4 ])
    Loopir.Builtin.corpus;
  (* REC schedules split into chunks on both domain counts. *)
  let env, sched =
    rec_schedule Loopir.Builtin.example2 [ ("n", 12) ] [| 12 |]
  in
  List.iter
    (fun threads ->
      let tmd = Exec.run_timed ~cost:split env ~threads sched in
      List.iter2
        (fun phase (ps : Exec.phase_stat) ->
          let pieces =
            if Sched.is_doall phase then Sched.phase_size phase
            else nonempty_tasks phase
          in
          Alcotest.(check int)
            (Printf.sprintf "%s t=%d: one domain per piece" ps.Exec.label
               threads)
            (min threads pieces)
            (Array.length ps.Exec.loads))
        (Sched.phase_list sched) tmd.Exec.phase_stats;
      Alcotest.(check bool)
        (Printf.sprintf "example2-rec t=%d: store = run_sequential" threads)
        true
        (Arrays.equal tmd.Exec.store (Interp.run_sequential env)))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Forced collections and boxed floats                                  *)

(* Minor collections forced by filling a large array from a young
   element ([caml_make_vect]), counted by the runtime events counter
   EV_C_FORCE_MINOR_MAKE_VECT over every domain while [f] runs. *)
let forced_minors f =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let forced = ref 0 and lost = ref 0 in
  let cb =
    Runtime_events.Callbacks.create
      ~runtime_counter:(fun _ _ c v ->
        if c = Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT then
          forced := !forced + v)
      ~lost_events:(fun _ k -> lost := !lost + k)
      ()
  in
  ignore (Runtime_events.read_poll cursor cb None);
  forced := 0;
  let v = f () in
  ignore (Runtime_events.read_poll cursor cb None);
  Runtime_events.free_cursor cursor;
  if !lost > 0 then Alcotest.failf "%d runtime events lost" !lost;
  (v, !forced)

(* exec-paper's seven schedules. *)
let exec_paper_specs =
  let open Loopir.Builtin in
  let open Pipeline.Plan in
  [
    ("example1-rec", example1, [ ("n1", 200); ("n2", 300) ], Some Rec);
    ("example1-pdm", example1, [ ("n1", 200); ("n2", 300) ], Some Pdm);
    ("example1-mindist", example1, [ ("n1", 100); ("n2", 150) ], Some Mindist);
    ("example2-rec", example2, [ ("n", 180) ], Some Rec);
    ("example2-unique", example2, [ ("n", 180) ], Some Unique);
    ("example3-auto", example3, [ ("n", 40) ], None);
    ( "cholesky-auto",
      cholesky,
      [ ("n", 30); ("m", 8); ("nmat", 4); ("nrhs", 2) ],
      None );
  ]

let test_run_path_forces_no_collection () =
  (* The REC and PDM kinds split their phases on exec-paper's 2-domain
     pool; 20 calls of each force no minor collection. *)
  with_pool 2 (fun w ->
      List.iter
        (fun (name, prog, params, strategy) ->
          if List.mem name [ "example1-rec"; "example1-pdm"; "example2-rec" ]
          then begin
            let env, sched = driver_schedule ?strategy prog params in
            ignore (Exec.run_timed ~workers:w env ~threads:2 sched);
            let pooled, forced =
              forced_minors (fun () ->
                  let pooled = ref 0 in
                  for _ = 1 to 20 do
                    let tmd = Exec.run_timed ~workers:w env ~threads:2 sched in
                    List.iter
                      (fun (ps : Exec.phase_stat) ->
                        if Array.length ps.Exec.loads > 1 then incr pooled)
                      tmd.Exec.phase_stats
                  done;
                  !pooled)
            in
            Alcotest.(check bool) (name ^ ": a phase ran on the pool") true
              (pooled > 0);
            Alcotest.(check int) (name ^ ": forced minor collections") 0 forced
          end)
        exec_paper_specs)

let test_builders_force_no_collection () =
  (* The materialize and schedule stages of exec-paper's seven set-ups
     fill their point and phase arrays without forcing a collection. *)
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s" (Diag.to_string e)
  in
  List.iter
    (fun (name, prog, params, strategy) ->
      let plan = ok (Pipeline.Driver.classify ?strategy prog) in
      let m, forced =
        forced_minors (fun () ->
            ok (Pipeline.Driver.materialize plan ~prog ~params))
      in
      Alcotest.(check int) (name ^ ": forced in materialize") 0 forced;
      let _, forced =
        forced_minors (fun () -> ok (Pipeline.Driver.schedule m))
      in
      Alcotest.(check int) (name ^ ": forced in schedule") 0 forced)
    exec_paper_specs

(* Each statement's instances, in trace order, as a DOALL phase of their
   own: one statement's consecutive instances, what one range call runs. *)
let statement_phases prog ~params =
  let sched = Sched.sequential_of_trace (Trace.build prog ~params) in
  let p = Sched.phase sched 0 in
  let by_stmt = Hashtbl.create 8 in
  for k = Sched.phase_size p - 1 downto 0 do
    let s = Sched.stmt p k in
    Hashtbl.replace by_stmt s
      ((s, Sched.iter sched p k)
      :: Option.value ~default:[] (Hashtbl.find_opt by_stmt s))
  done;
  Hashtbl.fold
    (fun s l acc ->
      (s, Sched.phase (Sched.of_list [ ("S", Sched.Doall l) ]) 0) :: acc)
    by_stmt []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The words statement [s]'s range kernel allocates on the calling
   domain, with a scratch of its own, running [n] instances of its phase
   [q] from instance [lo], read in place (exact counters). *)
let range_words compiled q s lo n =
  let sc = Runtime.Compile.scratch compiled in
  let a = Sched.data q and w = Sched.width q in
  let m = Obs.Gcstats.mark () in
  Runtime.Compile.exec_range compiled sc s a (Sched.coords q lo) w n;
  Obs.Gcstats.words_since m

(* A nest whose right-hand sides use every expression form, and whose
   quadratic subscripts take the general (non-affine) path. *)
let every_form =
  Loopir.Parser.parse ~name:"every-form"
    {|DO i = 1, n
  DO j = 1, n
    a(i, j) = MIN(b(i, j), 2.5, -b(j, i)) + MAX(b(i, j), i*j)
    c(i) = SQRT(ABS(a(i, j) - j)) / (1.0 + a(j, i)**2)
    d(i*i, j) = d(i*i, j) * MOD(i + j, 3) - c(j)
    e(i, j) = b(i, j)
    f(i, j) = 0.5
    g(i, j) = 3.0 - b(j, i)
  ENDDO
ENDDO|}

let test_kernels_allocate_nothing () =
  (* Every builtin statement's range kernel, on ranges of 1, n/2 and n
     of its n instances, on the caller and on each of the two domains of
     a pool; the every-form nest's kernels also match the interpreter. *)
  let params = [ ("n", 8) ] in
  let env = Interp.prepare every_form ~params in
  let sched = Sched.sequential_of_trace (Trace.build every_form ~params) in
  Alcotest.(check bool) "every form: compiled = interpreter" true
    (Arrays.equal (Exec.run env ~threads:1 sched) (Interp.run_sequential env));
  with_pool 2 (fun w ->
      List.iter
        (fun (name, prog) ->
          let params = List.map (fun p -> (p, 8)) prog.Loopir.Ast.params in
          let env = Interp.prepare prog ~params in
          let compiled = Runtime.Compile.program env (Interp.scan_bounds env) in
          List.iter
            (fun (s, q) ->
              let n = Sched.phase_size q in
              (* One instance mid-phase, the second half, the whole. *)
              let ranges = [ (n / 2, 1); (n - (n / 2), n / 2); (0, n) ] in
              let words () =
                List.map (fun (lo, k) -> range_words compiled q s lo k) ranges
              in
              let label = Printf.sprintf "%s S%d (%d instances)" name s n in
              Alcotest.(check (list (float 0.0)))
                (label ^ ": words on the caller") [ 0.0; 0.0; 0.0 ] (words ());
              Alcotest.(check (array (list (float 0.0))))
                (label ^ ": words on each domain")
                [| [ 0.0; 0.0; 0.0 ]; [ 0.0; 0.0; 0.0 ] |]
                (Workers.run w [| words; words |]))
            (statement_phases prog ~params))
        (("every expression form", every_form) :: Loopir.Builtin.all));
  (* Through run_timed: at a modelled second per instance every phase
     goes to the pool, and each domain's words stay bounded however many
     instances it ran. *)
  let split = { Sim.base_seconds with Sim.w_iter = 1.0 } in
  with_pool 2 (fun w ->
      List.iter
        (fun (name, strategy, prog, params) ->
          let env, sched = driver_schedule ~strategy prog params in
          let tmd = Exec.run_timed ~cost:split ~workers:w env ~threads:2 sched in
          List.iter
            (fun (ps : Exec.phase_stat) ->
              Array.iteri
                (fun d words ->
                  if words > 64.0 then
                    Alcotest.failf
                      "%s %s: domain %d allocated %.0f words for %d instances \
                       (limit 64)"
                      name ps.Exec.label d words ps.Exec.loads.(d))
                ps.Exec.alloc)
            tmd.Exec.phase_stats)
        [
          ( "example1-rec",
            Pipeline.Plan.Rec,
            Loopir.Builtin.example1,
            [ ("n1", 40); ("n2", 60) ] );
          ("example2-rec", Pipeline.Plan.Rec, Loopir.Builtin.example2, [ ("n", 40) ]);
          ( "example1-pdm",
            Pipeline.Plan.Pdm,
            Loopir.Builtin.example1,
            [ ("n1", 40); ("n2", 60) ] );
        ])

let test_fused_shape_census () =
  (* Every builtin statement compiles to a fused range shape except
     Cholesky's power and square-root statements (S3 and S4), whose range
     calls their per-instance tree: a statement falling back to the tree
     fails here, not only in the benchmark. *)
  let count = Hashtbl.create 8 and trees = ref [] in
  List.iter
    (fun (name, prog) ->
      let params = List.map (fun p -> (p, 8)) prog.Loopir.Ast.params in
      let env = Interp.prepare prog ~params in
      let compiled = Runtime.Compile.program env (Interp.scan_bounds env) in
      Array.iteri
        (fun s _ ->
          let shape = Runtime.Compile.shape compiled s in
          if shape = Runtime.Compile.Tree then trees := (name, s) :: !trees;
          Hashtbl.replace count shape
            (1 + Option.value ~default:0 (Hashtbl.find_opt count shape)))
        env.Interp.stmts)
    Loopir.Builtin.all;
  Alcotest.(check (list (pair string int)))
    "statements left to the tree" [ ("cholesky", 3); ("cholesky", 4) ]
    (List.rev !trees);
  let n shape = Option.value ~default:0 (Hashtbl.find_opt count shape) in
  Alcotest.(check (list int))
    "copies, constants, binary operators, multiply-accumulates, trees"
    [ 19; 0; 16; 5; 2 ]
    Runtime.Compile.[ n Copy; n Constant; n Binary; n Mac; n Tree ]

(* The cut property's programs: example3's and Cholesky's dataflow
   fronts (phases of several statements), then random imperfect nests in
   one sequential phase. *)
let cut_fronts =
  lazy
    [
      driver_schedule Loopir.Builtin.example3 [ ("n", 9) ];
      driver_schedule Loopir.Builtin.cholesky
        [ ("n", 7); ("m", 3); ("nmat", 2); ("nrhs", 1) ];
    ]

let cut_case (which, seed, _) =
  match List.nth_opt (Lazy.force cut_fronts) which with
  | Some c -> Some c
  | None -> (
      let env =
        Interp.prepare
          (Nests.random_nest ~mixed_ranks:false (Random.State.make [| seed |]))
          ~params:[]
      in
      match sequential_schedule env with
      | Some s -> Some (env, s)
      | None -> None)

(* [sched] run through the range kernels, each phase cut into ranges at
   the boundaries [rng] picks with probability [p], and always after its
   first instance: every range is run by [Exec.exec_range] in order. *)
let cut_run env sched rng p =
  let store = Interp.scan_bounds env in
  let compiled = Runtime.Compile.program env store in
  Sched.check_arity sched ~depths:(Runtime.Compile.depths compiled);
  let sc = Runtime.Compile.scratch compiled in
  List.iter
    (fun q ->
      let n = Sched.phase_size q and lo = ref 0 in
      for k = 1 to n do
        if k = 1 || k = n || Random.State.float rng 1.0 < p then begin
          Exec.exec_range compiled sc q !lo (k - !lo);
          lo := k
        end
      done)
    (Sched.phase_list sched);
  store

let prop_range_cuts ~count =
  QCheck2.Test.make
    ~name:"range kernels = run_schedule (phases cut at random points)" ~count
    ~print:(fun ((which, seed, p) as c) ->
      Printf.sprintf "case %d, seed %d, cut probability %g: %s" which seed p
        (match cut_case c with
        | Some (env, _) -> Loopir.Pretty.program_to_string env.Interp.prog
        | None -> "no schedule"))
    QCheck2.Gen.(
      triple (int_bound 5) int (oneofl [ 0.02; 0.3; 0.9 ]))
    (fun ((_, seed, p) as c) ->
      match cut_case c with
      | None -> true
      | Some (env, sched) -> (
          match outcome (fun () -> Interp.run_schedule env sched) with
          | Error _ -> true
          | Ok want ->
              Arrays.equal want
                (cut_run env sched (Random.State.make [| seed |]) p)))

let prop_drain_order =
  (* The counting sort's drain order is the old comparator's: longest
     first, ties by ascending task index, empty tasks left out. *)
  QCheck2.Test.make ~name:"drain order = longest-first comparator sort"
    ~count:500
    ~print:QCheck2.Print.(list int)
    QCheck2.Gen.(list_size (int_bound 60) (frequency [ (1, pure 0); (4, int_bound 12) ]))
    (fun lens ->
      let lens = Array.of_list lens in
      let n = Array.length lens and len u = lens.(u) in
      let ids = List.filter (fun u -> lens.(u) > 0) (List.init n Fun.id) in
      let sorted =
        List.stable_sort
          (fun a b ->
            let c = compare lens.(b) lens.(a) in
            if c <> 0 then c else compare a b)
          ids
      in
      Array.to_list (Exec.drain_order ~longest_first:true n len) = sorted
      && Array.to_list (Exec.drain_order ~longest_first:false n len) = ids)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "runtime"
    [
      ( "arrays",
        [
          Alcotest.test_case "extents and values" `Quick test_arrays_basic;
          Alcotest.test_case "equality" `Quick test_arrays_equal;
          Alcotest.test_case "seeding = initial_value" `Quick
            test_arrays_seeding;
          Alcotest.test_case "bit-for-bit equality" `Quick
            test_arrays_equal_bits;
          Alcotest.test_case "copy is independent" `Quick test_arrays_copy;
          Alcotest.test_case "seed table = formula (1,000 residues)" `Quick
            test_arrays_seed_table;
          QCheck_alcotest.to_alcotest (prop_equal_copy_match_dense ~count:300);
        ] );
      ( "scan",
        [
          Alcotest.test_case "exact extents (builtins, 7 sizes)" `Quick
            test_scan_bounds_builtins;
          Alcotest.test_case "exact extents (hand-written nests)" `Quick
            test_scan_bounds_hand_written;
          Alcotest.test_case "overflow raises as before" `Quick
            test_scan_bounds_overflow;
          QCheck_alcotest.to_alcotest (prop_scan_matches_reference ~count:300);
          Alcotest.test_case "pages follow the touched cells (example1)"
            `Quick test_seeded_cells_example1;
          Alcotest.test_case "sparse subscripts stay cheap" `Quick
            test_sparse_store_cheap;
          Alcotest.test_case "extent overflow fails typed" `Quick
            test_extent_overflow_typed;
        ] );
      ( "image",
        [
          Alcotest.test_case "repeated scans = reference (builtins, 6 sizes)"
            `Quick test_image_repeats_builtins;
          QCheck_alcotest.to_alcotest (prop_image_repeats_random_nests ~count:200);
          Alcotest.test_case "no store shares the image's cells" `Quick
            test_image_not_aliased;
          Alcotest.test_case "two domains scan one fresh env (200 rounds)"
            `Quick test_image_concurrent_first_scans;
          Alcotest.test_case "a failed scan records nothing" `Quick
            test_image_failed_scan_records_nothing;
          Alcotest.test_case "a repeated scan walks nothing (example1)" `Quick
            test_image_scan_allocation;
        ] );
      ( "interp",
        [
          Alcotest.test_case "prefix sum semantics" `Quick
            test_interp_prefix_sum;
          Alcotest.test_case "prepare rejects a reused loop index" `Quick
            test_prepare_rejects_reused_index;
          Alcotest.test_case "sequential schedule ≡ program" `Quick
            test_interp_schedule_equivalence_fig2;
          Alcotest.test_case "run_sequential = reference (builtins, 6 sizes)"
            `Quick test_run_matches_reference_builtins;
          QCheck_alcotest.to_alcotest (prop_run_matches_reference ~count:300);
          Alcotest.test_case "run_sequential = reference (hand cases)" `Quick
            test_run_reference_hand_cases;
          Alcotest.test_case "swapped instance detected" `Quick
            test_swapped_instance_detected;
          Alcotest.test_case
            "run_timed = dense reference (builtins, 6 sizes, 1/2/4 domains)"
            `Quick test_timed_matches_dense_builtins;
          QCheck_alcotest.to_alcotest (prop_stores_match_dense_strided ~count:100);
        ] );
      ( "schedules",
        [
          Alcotest.test_case "REC semantics (ex1)" `Quick
            test_rec_schedule_semantics_ex1;
          Alcotest.test_case "REC semantics (ex2)" `Quick
            test_rec_schedule_semantics_ex2;
          Alcotest.test_case "dataflow fronts (cholesky)" `Quick
            test_fronts_schedule_cholesky;
          Alcotest.test_case "illegal schedule detected" `Quick
            test_illegal_schedule_detected;
          Alcotest.test_case "duplicate instance detected" `Quick
            test_duplicate_instance_detected;
          Alcotest.test_case "cross-task duplicate detected" `Quick
            test_duplicate_across_tasks_detected;
          Alcotest.test_case "same-phase edge violation detected" `Quick
            test_edge_violation_same_doall_detected;
          Alcotest.test_case "missing and foreign instances detected" `Quick
            test_missing_and_foreign_instances_detected;
          Alcotest.test_case "a schedule is flat" `Quick test_schedule_is_flat;
          QCheck_alcotest.to_alcotest (prop_builders_read_back ~count:200);
        ] );
      ( "sim",
        [
          Alcotest.test_case "LPT makespan" `Quick test_lpt_makespan;
          Alcotest.test_case "speedup monotone in threads" `Quick
            test_sim_speedup_monotone;
          Alcotest.test_case "code factor" `Quick test_sim_code_factor;
          Alcotest.test_case "pipeline model" `Quick test_pipeline_time;
        ] );
      ( "exec",
        [
          Alcotest.test_case "domains ≡ sequential (ex1)" `Quick
            test_exec_parallel_matches_sequential;
          Alcotest.test_case "domains ≡ sequential (cholesky fronts)" `Quick
            test_exec_fronts_parallel;
          Alcotest.test_case "determinism at 1/2/4/8 threads" `Quick
            test_exec_determinism_paper_examples;
          Alcotest.test_case "compiled ≡ interp (paper examples, 1/2/4)"
            `Quick test_compiled_matches_interp_examples;
          Alcotest.test_case "compiled ≡ interp (full corpus)" `Quick
            test_compiled_matches_interp_corpus;
          Alcotest.test_case "compiled general path (non-affine)" `Quick
            test_compiled_general_path_nonaffine;
          Alcotest.test_case "cost-proportional chunk count bounds" `Quick
            test_doall_chunk_count_bounds;
          Alcotest.test_case "DOALL chunk ranges tile exactly" `Quick
            test_doall_chunk_ranges;
          Alcotest.test_case "degenerate thread counts" `Quick
            test_exec_degenerate_threads;
          Alcotest.test_case "thread_loads overflow folding" `Quick
            test_thread_loads_overflow;
          Alcotest.test_case "busy arrays" `Quick test_run_timed_busy_arrays;
          Alcotest.test_case "small phases enqueue no job (mindist, 2 domains)"
            `Quick test_small_phases_enqueue_nothing;
          Alcotest.test_case "small task phases run inline (t=4)" `Quick
            test_small_task_phases_inline;
          Alcotest.test_case "a transient pool holds the widest phase" `Quick
            test_transient_pool_widest_phase;
          Alcotest.test_case "traced and untraced runs report the same units"
            `Quick test_traced_units_match_untraced;
          Alcotest.test_case "mindist phase allocation (exact counters)" `Quick
            test_mindist_phase_allocation;
          Alcotest.test_case "run path forces no collection (2 domains)"
            `Quick test_run_path_forces_no_collection;
          Alcotest.test_case "schedule builders force no collection" `Quick
            test_builders_force_no_collection;
          Alcotest.test_case "kernels allocate nothing per instance" `Quick
            test_kernels_allocate_nothing;
          Alcotest.test_case "builtin statements compile to fused shapes"
            `Quick test_fused_shape_census;
          QCheck_alcotest.to_alcotest (prop_range_cuts ~count:300);
          QCheck_alcotest.to_alcotest prop_drain_order;
          Alcotest.test_case "pool path = sequential (every phase split)"
            `Quick test_pool_path_matches_sequential;
        ] );
      ( "workers",
        [
          Alcotest.test_case "results in submission order" `Quick
            test_workers_results_in_order;
          Alcotest.test_case "pool reuse spawns once" `Quick
            test_workers_reuse_no_respawn;
          Alcotest.test_case "pool of one" `Quick test_workers_pool_of_one;
          Alcotest.test_case "over-subscription" `Quick
            test_workers_oversubscription;
          Alcotest.test_case "exception propagation" `Quick
            test_workers_exception_propagates;
          Alcotest.test_case "shutdown idempotent, post-shutdown run" `Quick
            test_workers_shutdown_idempotent_and_post_run;
          Alcotest.test_case "telemetry counters consistent on 4 domains"
            `Quick test_workers_telemetry_consistency;
        ] );
    ]
