(* Program generators shared by the test suites. *)

(* Random imperfect nests, up to three deep: steps of ±1/±2, bounds
   with MIN/MAX and floor division, subscripts of rank 1–2 mixing
   affine terms, MOD, ABS and MIN/MAX, two arrays sharing names across
   ranks.  One subscript in ~100 evaluates to an error (an undeclared
   name, division by zero, an overflowing product, a real, a negative
   power), which an implementation and its reference must raise
   alike.  With [~mixed_ranks:false] array [a] is always of rank 1 and
   [b] of rank 2, so a run over the store does not stop at a rank
   mismatch (seven nests in ten do otherwise). *)
let random_nest ?(mixed_ranks = true) rng =
  let module Ast = Loopir.Ast in
  let int n = Random.State.int rng n in
  let pick l = List.nth l (int (List.length l)) in
  let rec expr ~risky vars d =
    let leaf () =
      if vars <> [] && int 3 > 0 then Ast.Var (pick vars)
      else Ast.Int (int 7 - 2)
    in
    if d = 0 then leaf ()
    else
      let sub () = expr ~risky vars (d - 1) in
      match int 12 with
      | 0 | 1 | 2 -> Ast.Bin (Ast.Add, sub (), sub ())
      | 3 -> Ast.Bin (Ast.Sub, sub (), sub ())
      | 4 | 5 -> Ast.Bin (Ast.Mul, Ast.Int (int 5 - 2), sub ())
      | 6 -> Ast.Bin (Ast.Div, sub (), Ast.Int (pick [ 1; 2; 3; -2 ]))
      | 7 -> Ast.Mod (sub (), Ast.Int (pick [ 2; 3 ]))
      | 8 -> Ast.Min [ sub (); sub () ]
      | 9 -> Ast.Max [ sub (); sub () ]
      | 10 -> Ast.Un (Ast.Abs, sub ())
      | _ when risky && int 8 = 0 -> (
          match int 5 with
          | 0 -> Ast.Var "q"
          | 1 -> Ast.Bin (Ast.Div, sub (), Ast.Int 0)
          | 2 -> Ast.Bin (Ast.Mul, Ast.Int max_int, sub ())
          | 3 -> Ast.Real 1.5
          | _ -> Ast.Pow (sub (), -1))
      | _ -> leaf ()
  in
  let reference vars =
    let a = pick [ "a"; "b" ] in
    let rank = if mixed_ranks then 1 + int 2 else if a = "a" then 1 else 2 in
    (a, List.init rank (fun _ -> expr ~risky:true vars 2))
  in
  let rec stmt vars depth =
    let free = List.filter (fun v -> not (List.mem v vars)) [ "i"; "j"; "k" ] in
    if depth >= 3 || free = [] || int 3 = 0 then
      Ast.Assign
        ( reference vars,
          List.fold_left
            (fun acc _ ->
              let a, subs = reference vars in
              Ast.Bin (Ast.Add, acc, Ast.Ref (a, subs)))
            (Ast.Real 1.0)
            (List.init (1 + int 3) Fun.id) )
    else
      let index = pick free in
      let step = pick [ 1; 1; 1; 2; -1; -2 ] in
      let lo = expr ~risky:false vars 1
      and hi = Ast.Bin (Ast.Add, expr ~risky:false vars 1, Ast.Int (int 5)) in
      let lo, hi = if step < 0 then (hi, lo) else (lo, hi) in
      Ast.Loop
        {
          index;
          lo;
          hi;
          step;
          body = List.init (1 + int 2) (fun _ -> stmt (index :: vars) (depth + 1));
        }
  in
  (* [q] stays undeclared, so only evaluating a subscript can notice it. *)
  {
    (Ast.program ~name:"rand-imperfect"
       (List.init (1 + int 2) (fun _ -> stmt [] 0)))
    with
    Ast.params = [];
  }
