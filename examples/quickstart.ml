(* Quickstart: parse a loop with non-uniform dependences, run it through the
   pipeline (classify → materialize → schedule → validate → execute), print
   the generated code and the structured run report.

   Run with:  dune exec examples/quickstart.exe *)

let source = "DO i = 1, 4000\n  a(3*i + 1) = a(2*i)\nENDDO"

let () =
  print_endline "=== source loop ===";
  print_endline source;
  let prog = Loopir.Parser.parse ~name:"quickstart" source in

  (* 1. Exact dependence analysis (Omega-style). *)
  let a =
    match Pipeline.Driver.analyze prog with
    | Ok a -> a
    | Error e -> failwith (Diag.to_string e)
  in
  let pairs =
    Presburger.Iset.points
      (Presburger.Iset.bind_params (Presburger.Rel.to_set a.Depend.Solve.rd) [||])
  in
  Printf.printf "\n=== direct dependences (%d, first 10) ===\n"
    (List.length pairs);
  List.iteri
    (fun k p -> if k < 10 then Printf.printf "  %d -> %d\n" p.(0) p.(1))
    pairs;

  (* 2. The whole pipeline in one call: Algorithm 1 picks the
        recurrence-chain branch (single coupled pair, full-rank
        coefficients), the schedule is validated against the exact instance
        graph and executed on 4 domains. *)
  match Pipeline.Driver.run ~name:"quickstart" ~params:[] prog with
  | Error e -> failwith (Pipeline.Driver.error_to_string e)
  | Ok { plan; concrete; sched; report } ->
      (match concrete with
      | Pipeline.Driver.Rec { c; _ } ->
          Printf.printf "\n=== three-set partition ===\n";
          Printf.printf "P1 (independent + initial): %d iterations\n"
            (Core.Points.length c.Core.Partition.p1_pts);
          Printf.printf "P2 (chains)               : %d chains, %d iterations\n"
            (Core.Chain.n_chains c.Core.Partition.chains)
            (Core.Chain.total_points c.Core.Partition.chains);
          List.iteri
            (fun k chain ->
              if k < 8 then
                Printf.printf "    chain:%s\n"
                  (String.concat " ->"
                     (List.map (fun p -> Printf.sprintf " %d" p.(0)) chain)))
            (Core.Chain.to_lists c.Core.Partition.chains);
          if Core.Chain.n_chains c.Core.Partition.chains > 8 then
            print_endline "    ... (chains with irregular strides, ratio 3/2)";
          Printf.printf "P3 (final)                : %d iterations\n"
            (Core.Points.length c.Core.Partition.p3_pts);
          (match c.Core.Partition.theorem_bound with
          | Some b ->
              Printf.printf
                "Theorem 1: growth a = %g, chain length ≤ %d (measured %d)\n"
                c.Core.Partition.growth b
                c.Core.Partition.chains.Core.Chain.longest
          | None -> ())
      | _ -> print_endline "\nunexpected: quickstart should take the REC branch");

      (* 3. Generated code. *)
      (match Pipeline.Driver.codegen plan ~prog with
      | Ok listing ->
          print_endline "\n=== generated code ===";
          print_string listing
      | Error e -> Printf.printf "\nno listing: %s\n" (Diag.to_string e));

      (* 4. The structured report: per-stage wall time, legality and
            semantic validation, per-phase execution profile. *)
      print_endline "\n=== pipeline report ===";
      print_string (Pipeline.Report.to_text report);

      (* 5. Predicted speedup on the simulated SMP. *)
      (match sched with
      | Some sched ->
          print_endline "\n=== simulated speedup (REC) ===";
          List.iter
            (fun p ->
              Printf.printf "  %d thread(s): %.2f\n" p
                (Runtime.Sim.speedup (Runtime.Sim.with_factor 0.8) ~threads:p
                   ~n_seq:(Runtime.Sched.n_instances sched) sched))
            [ 1; 2; 3; 4 ]
      | None -> ())
