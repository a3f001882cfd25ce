module L = Presburger.Linexpr
module C = Presburger.Constr
module Iset = Presburger.Iset
module Bounds = Presburger.Bounds
module Q = Numeric.Rat

let expr_str names e = Format.asprintf "%a" (L.pp names) e

let bound_str names ~ceil { Bounds.num; den } =
  if den = 1 then expr_str names num
  else
    Printf.sprintf "%s(%s, %d)"
      (if ceil then "CEILDIV" else "FLOORDIV")
      (expr_str names num) den

let pp_bound_max names ppf lowers =
  match lowers with
  | [ b ] -> Format.pp_print_string ppf (bound_str names ~ceil:true b)
  | bs ->
      Format.fprintf ppf "MAX(%s)"
        (String.concat ", " (List.map (bound_str names ~ceil:true) bs))

let pp_bound_min names ppf uppers =
  match uppers with
  | [ b ] -> Format.pp_print_string ppf (bound_str names ~ceil:false b)
  | bs ->
      Format.fprintf ppf "MIN(%s)"
        (String.concat ", " (List.map (bound_str names ~ceil:false) bs))

let guard_str names = function
  | C.Div (m, e) -> Printf.sprintf "MOD(%s, %d) == 0" (expr_str names e) m
  | C.Ge e -> Printf.sprintf "%s >= 0" (expr_str names e)
  | C.Eq e -> Printf.sprintf "%s == 0" (expr_str names e)

let doall_nest buf ~names ~n_iters ~body nest =
  let indent = ref "" in
  let line s = Buffer.add_string buf (!indent ^ s ^ "\n") in
  let closers = ref [] in
  for k = 0 to n_iters - 1 do
    let lv = nest.Bounds.levels.(k) in
    let lo_str = Format.asprintf "%a" (pp_bound_max names) lv.Bounds.lowers in
    let hi_str = Format.asprintf "%a" (pp_bound_min names) lv.Bounds.uppers in
    (match lv.Bounds.stride with
    | None -> line (Printf.sprintf "DOALL %s = %s, %s" names.(k) lo_str hi_str)
    | Some (m, r) ->
        (* Align the start on the residue class r (mod m). *)
        line
          (Printf.sprintf "DOALL %s = %s + MOD(%s - (%s), %d), %s, %d"
             names.(k) lo_str (expr_str names r) lo_str m hi_str m));
    closers := "ENDDOALL" :: !closers;
    indent := !indent ^ "  ";
    if lv.Bounds.guards <> [] then begin
      let g = String.concat " .AND. " (List.map (guard_str names) lv.Bounds.guards) in
      line (Printf.sprintf "IF (%s) THEN" g);
      closers := "ENDIF" :: !closers;
      indent := !indent ^ "  "
    end
  done;
  line body;
  List.iter
    (fun closer ->
      indent := String.sub !indent 0 (String.length !indent - 2);
      line closer)
    !closers

let doall_of_set ?body ~names set =
  let n_iters = Iset.n_iters set in
  let body =
    match body with
    | Some b -> b
    | None ->
        Printf.sprintf "s(%s)"
          (String.concat ", "
             (Array.to_list (Array.sub (Iset.names set) 0 n_iters)))
  in
  let buf = Buffer.create 256 in
  let polys = Iset.polys set in
  if polys = [] then Buffer.add_string buf "! (empty set)\n"
  else
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_string buf "! next disjunct\n";
        match Bounds.with_strides (Bounds.of_poly ~n_iters p) with
        | nest -> doall_nest buf ~names ~n_iters ~body nest
        | exception Bounds.Unbounded k ->
            Buffer.add_string buf
              (Printf.sprintf "! disjunct unbounded in %s\n" names.(k)))
      polys;
  Buffer.contents buf

(* Print one component of the affine step I' = I·T + u, as an expression
   over the current indices (entries of T and u are rational; a common
   denominator becomes a FLOORDIV with an integrality guard emitted by the
   caller when non-trivial). *)
let step_component names t_col u_c =
  let den =
    Array.fold_left
      (fun acc q -> Numeric.Safeint.lcm acc (Q.den q))
      (Q.den u_c) t_col
  in
  let terms =
    Array.to_list
      (Array.mapi
         (fun row q ->
           let c = Q.num q * (den / Q.den q) in
           (names.(row), c))
         t_col)
  in
  let const = Q.num u_c * (den / Q.den u_c) in
  let body =
    String.concat ""
      (List.filter_map
         (fun (v, c) ->
           if c = 0 then None
           else if c = 1 then Some (Printf.sprintf " + %s" v)
           else if c = -1 then Some (Printf.sprintf " - %s" v)
           else if c > 0 then Some (Printf.sprintf " + %d*%s" c v)
           else Some (Printf.sprintf " - %d*%s" (-c) v))
         terms)
  in
  let body =
    let body = if const > 0 then Printf.sprintf "%s + %d" body const
               else if const < 0 then Printf.sprintf "%s - %d" body (-const)
               else body in
    let body = String.trim body in
    let body =
      if String.length body > 2 && String.sub body 0 2 = "+ " then
        String.sub body 2 (String.length body - 2)
      else body
    in
    if body = "" then "0" else body
  in
  if den = 1 then (body, None)
  else (Printf.sprintf "FLOORDIV(%s, %d)" body den, Some (body, den))

let rec_partitioning (rp : Core.Partition.rec_plan) =
  let simple = rp.Core.Partition.simple in
  let three = rp.Core.Partition.three in
  let iters = simple.Depend.Solve.iters in
  let names = Iset.names simple.Depend.Solve.phi in
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let ivars = String.concat ", " (Array.to_list iters) in
  add "! ---- initial partition P1 (independent + initial iterations)\n";
  add (doall_of_set ~names three.Core.Threeset.p1);
  add "! ---- intermediate partition: WHILE chains started from W\n";
  add
    (doall_of_set ~body:(Printf.sprintf "CALL chain(%s)" ivars) ~names
       three.Core.Threeset.w);
  add "! ---- final partition P3\n";
  add (doall_of_set ~names three.Core.Threeset.p3);
  add (Printf.sprintf "\nSUBROUTINE chain(%s)\n" ivars);
  (* WHILE condition: the current iteration is still intermediate, i.e. in
     ran Rd ∩ dom Rd (its successor exists and is executed later in P3). *)
  let cond =
    match Iset.polys three.Core.Threeset.p2 with
    | [] -> ".FALSE."
    | polys ->
        String.concat "\n          .OR. "
          (List.map
             (fun p ->
               "("
               ^ String.concat " .AND. "
                   (List.map (guard_str names) (Presburger.Poly.constraints p))
               ^ ")")
             polys)
  in
  add (Printf.sprintf "DO WHILE (%s)\n" cond);
  add (Printf.sprintf "  s(%s)\n" ivars);
  (* Step by the forward map of the write side: I := I·(A·B⁻¹) + (a−b)·B⁻¹,
     printed for the parameter-free part; parametric offsets keep their
     affine form. *)
  (match
     Core.Recurrence.of_pair rp.Core.Partition.pair ~params:(fun _ -> 0)
   with
  | Some r ->
      Array.iteri
        (fun col _ ->
          let t_col =
            Array.init r.Core.Recurrence.m (fun row ->
                r.Core.Recurrence.t_wr.(row).(col))
          in
          let s, guard = step_component iters t_col r.Core.Recurrence.u_wr.(col) in
          (match guard with
          | Some (body, den) ->
              add
                (Printf.sprintf "  IF (MOD(%s, %d) /= 0) RETURN\n" body den)
          | None -> ());
          add (Printf.sprintf "  %s_next = %s\n" iters.(col) s))
        iters;
      Array.iter
        (fun v -> add (Printf.sprintf "  %s = %s_next\n" v v))
        iters
  | None -> add "  ! singular recurrence (unreachable for REC plans)\n");
  add "ENDDO\nEND\n";
  Buffer.contents buf

let dataflow_listing fronts ~names =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun k s ->
      Buffer.add_string buf (Printf.sprintf "! ---- dataflow front %d\n" (k + 1));
      Buffer.add_string buf (doall_of_set ~names s))
    fronts;
  Buffer.contents buf
