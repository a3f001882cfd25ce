(* Paper Example 1 / Figure 1: the 2-D loop with coupled subscripts and
   non-uniform distances (2,2), (4,4), (6,6).  Reproduces the figure's
   dependence arrows, the three-set REC partition, the generated code, and
   the Theorem 1 bound.

   Run with:  dune exec examples/example1_rec.exe *)

module Iset = Presburger.Iset
module Rel = Presburger.Rel

let () =
  let prog = Loopir.Builtin.example1 in
  print_endline "=== source (paper Figure 1) ===";
  print_string (Loopir.Pretty.program_to_string prog);

  let a = Depend.Solve.analyze_simple prog in

  (* Figure 1: dependence arrows at N1 = N2 = 10, grouped by distance. *)
  let pairs =
    Iset.points (Iset.bind_params (Rel.to_set a.Depend.Solve.rd) [| 10; 10 |])
  in
  print_endline "\n=== Figure 1: direct dependences at N1 = N2 = 10 ===";
  let by_d = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let d = (p.(2) - p.(0), p.(3) - p.(1)) in
      Hashtbl.replace by_d d
        (((p.(0), p.(1)), (p.(2), p.(3)))
        :: (try Hashtbl.find by_d d with Not_found -> [])))
    pairs;
  Hashtbl.fold (fun d l acc -> (d, List.rev l) :: acc) by_d []
  |> List.sort compare
  |> List.iter (fun ((d1, d2), arrows) ->
         Printf.printf "distance (%d,%d): %d arrows (paper: %s)\n" d1 d2
           (List.length arrows)
           (match d1 with 2 -> "8" | 4 -> "6" | 6 -> "4" | _ -> "?");
         List.iter
           (fun ((i1, i2), (j1, j2)) ->
             Printf.printf "  (%d,%d) -> (%d,%d)\n" i1 i2 j1 j2)
           arrows);

  (* ASCII iteration space: mark P1/P2/P3 as in the partitioned loop. *)
  match Pipeline.Driver.classify prog with
  | Ok (Pipeline.Plan.Rec_chains rp) ->
      let c = Core.Partition.materialize_rec rp ~params:[| 10; 10 |] in
      print_endline "\n=== iteration space 10×10 (1=P1, 2=intermediate, 3=final) ===";
      for i2 = 10 downto 1 do
        Printf.printf "%2d " i2;
        for i1 = 1 to 10 do
          let cls =
            Core.Threeset.classify_point rp.Core.Partition.three
              ~params:[| 10; 10 |] [| i1; i2 |]
          in
          print_char
            (match cls with `P1 -> '1' | `P2 -> '2' | `P3 -> '3' | `Outside -> '?')
        done;
        print_newline ()
      done;
      print_endline "   1234567890  (i1 →)";

      Printf.printf "\nP1 = %d, chains = %d (%d pts, longest %d), P3 = %d\n"
        (Core.Points.length c.Core.Partition.p1_pts)
        (Core.Chain.n_chains c.Core.Partition.chains)
        (Core.Chain.total_points c.Core.Partition.chains)
        c.Core.Partition.chains.Core.Chain.longest
        (Core.Points.length c.Core.Partition.p3_pts);
      (match c.Core.Partition.theorem_bound with
      | Some b ->
          Printf.printf
            "Theorem 1: det T = %g → chains have ≤ %d iterations (= 1 + ⌈log₃ √(N1²+N2²)⌉)\n"
            c.Core.Partition.growth b
      | None -> ());

      print_endline "\n=== generated code (cf. paper Example 1 listing) ===";
      print_string (Codegen.Emit.rec_partitioning rp);

      (* Paper experiment parameters: N1 = 300, N2 = 1000. *)
      print_endline "\n=== paper experiment scale: N1=300, N2=1000 ===";
      let cbig = Core.Partition.materialize_rec_scan rp ~params:[| 300; 1000 |] in
      Printf.printf "P1 = %d, chains = %d (%d pts, longest %d), P3 = %d, bound = %s\n"
        (Core.Points.length cbig.Core.Partition.p1_pts)
        (Core.Chain.n_chains cbig.Core.Partition.chains)
        (Core.Chain.total_points cbig.Core.Partition.chains)
        cbig.Core.Partition.chains.Core.Chain.longest
        (Core.Points.length cbig.Core.Partition.p3_pts)
        (match cbig.Core.Partition.theorem_bound with
        | Some b -> string_of_int b
        | None -> "-");

      (* Validate at a mid scale. *)
      let params = [ ("n1", 30); ("n2", 40) ] in
      let cmid = Core.Partition.materialize_rec rp ~params:[| 30; 40 |] in
      let sched = Runtime.Sched.of_rec ~stmt:0 cmid in
      let env = Runtime.Interp.prepare prog ~params in
      let tr = Depend.Trace.build prog ~params in
      Printf.printf "\nvalidation at 30×40: legality %s, semantics %s\n"
        (match Runtime.Sched.check_legal sched tr with
        | Ok () -> "OK"
        | Error m -> "FAILED: " ^ m)
        (match Runtime.Interp.check_schedule env sched with
        | Ok () -> "OK"
        | Error m -> "FAILED: " ^ m)
  | _ -> print_endline "unexpected: example 1 should take the REC branch"
