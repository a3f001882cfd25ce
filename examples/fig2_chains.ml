(* Paper Figure 2: the 1-D loop  DO I=1,20: a(2I) = a(21-I)  whose solution
   chain 6→9→3→15 splits into the monotonic chains 6→9, 3→9, 3→15.
   Reproduces the partition P1 = {1..7,12,14,16,18,20} ∪ …, P2 = ∅,
   P3 = {8,9,10,11,13,15,17,19}.

   Run with:  dune exec examples/fig2_chains.exe *)

module Iset = Presburger.Iset
module Rel = Presburger.Rel

let ints set = List.map (fun p -> p.(0)) (Iset.points set)
let show l = String.concat " " (List.map string_of_int l)

let () =
  let prog = Loopir.Builtin.fig2 in
  print_endline "=== source (paper Figure 2) ===";
  print_string (Loopir.Pretty.program_to_string prog);

  let a = Depend.Solve.analyze_simple prog in
  let rd = a.Depend.Solve.rd in
  print_endline "\n=== forward dependence arrows (i ≺ j) ===";
  List.iter
    (fun p -> Printf.printf "  %d -> %d\n" p.(0) p.(1))
    (Iset.points (Iset.bind_params (Rel.to_set rd) [||]));

  print_endline "\nthe naive WHILE chain i' = 21 - 2i from 6 visits: 6 9 3 15";
  print_endline "(not lexicographically ordered — split into monotonic chains";
  print_endline " 6->9, 3->9, 3->15 whose endpoints fall into P1/P3)";

  let three = Core.Threeset.compute ~phi:a.Depend.Solve.phi ~rd in
  Printf.printf "\nP1 (independent+initial) = %s\n" (show (ints three.Core.Threeset.p1));
  Printf.printf "P2 (intermediate)        = %s  <- empty, as in the paper\n"
    (show (ints three.Core.Threeset.p2));
  Printf.printf "P3 (final)               = %s\n" (show (ints three.Core.Threeset.p3));
  Printf.printf "paper: P1 = 1 2 3 4 5 6 7 12 14 16 18 20; P3 = the rest\n";

  (* Two-phase schedule, validated. *)
  let fronts =
    Core.Dataflow.peel_symbolic ~phi:a.Depend.Solve.phi ~rd ~max_steps:10
  in
  Printf.printf "\ndataflow peeling finishes in %d fully parallel steps\n"
    (List.length fronts);
  let concrete = Core.Dataflow.peel_concrete prog ~params:[] in
  let sched = Runtime.Sched.of_fronts concrete in
  let env = Runtime.Interp.prepare prog ~params:[] in
  Printf.printf "two-phase schedule: legality %s, semantics %s\n"
    (match Runtime.Sched.check_legal sched concrete.Core.Dataflow.trace with
    | Ok () -> "OK"
    | Error m -> "FAILED: " ^ m)
    (match Runtime.Interp.check_schedule env sched with
    | Ok () -> "OK"
    | Error m -> "FAILED: " ^ m);

  (* The parametric generalization keeps the two-set structure. *)
  print_endline "\n=== parametric variant a(2i) = a(2M+1-i), i = 1..2M ===";
  let p = Loopir.Builtin.fig2_param in
  let ap = Depend.Solve.analyze_simple p in
  let threep = Core.Threeset.compute ~phi:ap.Depend.Solve.phi ~rd:ap.Depend.Solve.rd in
  Printf.printf "P2 empty for all M: %b\n"
    (Iset.is_empty threep.Core.Threeset.p2);
  List.iter
    (fun m ->
      let p1 = ints (Iset.bind_params threep.Core.Threeset.p1 [| m |]) in
      let p3 = ints (Iset.bind_params threep.Core.Threeset.p3 [| m |]) in
      Printf.printf "M=%2d: |P1| = %2d, |P3| = %2d (of %d iterations)\n" m
        (List.length p1) (List.length p3) (2 * m))
    [ 5; 10; 20; 40 ]
