(* Paper Example 4: the NASA-benchmark Cholesky kernel.  Multiple coupled
   subscript pairs and symbolic bounds, so Algorithm 1 chooses: dataflow
   partitioning when bounds are known (the paper reports 238 steps at
   NMAT=250, M=4, N=40, NRHS=3) and the PDM fallback otherwise (which keeps
   the outermost L loop DOALL).

   Run with:  dune exec examples/cholesky.exe          (small parameters)
              dune exec examples/cholesky.exe -- full  (paper parameters) *)

let () =
  let prog = Loopir.Builtin.cholesky in
  print_endline "=== source (paper Example 4, NASA Cholesky kernel) ===";
  print_string (Loopir.Pretty.program_to_string prog);

  (match Pipeline.Driver.classify prog with
  | Ok (Pipeline.Plan.Pdm_fallback { reason; _ }) ->
      Printf.printf
        "\nAlgorithm 1 branch: PDM fallback for symbolic bounds (%s)\n" reason
  | _ -> print_endline "\nunexpected branch");

  let full = Array.length Sys.argv > 1 && Sys.argv.(1) = "full" in
  let params =
    if full then [ ("nmat", 250); ("m", 4); ("n", 40); ("nrhs", 3) ]
    else [ ("nmat", 8); ("m", 3); ("n", 10); ("nrhs", 2) ]
  in
  Printf.printf "\n=== dataflow partitioning at %s ===\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params));
  let c = Core.Dataflow.peel_concrete prog ~params in
  let tr = c.Core.Dataflow.trace in
  Printf.printf "statement instances : %d\n"
    (Array.length tr.Depend.Trace.instances);
  Printf.printf "dataflow steps      : %d%s\n" c.Core.Dataflow.steps
    (if full then "   (paper: 238 partitioning steps)" else "");
  let sizes = Array.map List.length c.Core.Dataflow.fronts in
  Printf.printf "front sizes         : min %d, max %d, mean %.1f\n"
    (Array.fold_left min max_int sizes)
    (Array.fold_left max 0 sizes)
    (float_of_int (Array.fold_left ( + ) 0 sizes)
    /. float_of_int (Array.length sizes));

  (* The PDM uniformization keeps the L dimension fully parallel: group
     instances by their l value — no dependence crosses groups. *)
  print_endline "\n=== PDM view: outermost L stays DOALL ===";
  let bad = ref 0 in
  (* l is the innermost loop of every statement of the kernel. *)
  let l_of (i : Depend.Trace.instance) =
    let iter = i.Depend.Trace.iter in
    iter.(Array.length iter - 1)
  in
  Depend.Trace.iter_edges tr (fun a b ->
      if l_of tr.Depend.Trace.instances.(a) <> l_of tr.Depend.Trace.instances.(b)
      then incr bad);
  Printf.printf "dependence edges crossing different L values: %d (of %d)\n"
    !bad (Depend.Trace.n_edges tr);

  (* Validate the dataflow schedule semantically (small sizes only). *)
  if not full then begin
    let sched = Runtime.Sched.of_fronts c in
    let env = Runtime.Interp.prepare prog ~params in
    Printf.printf "\ndataflow schedule: legality %s, semantics %s\n"
      (match Runtime.Sched.check_legal sched tr with
      | Ok () -> "OK"
      | Error m -> "FAILED: " ^ m)
      (match Runtime.Interp.check_schedule env sched with
      | Ok () -> "OK"
      | Error m -> "FAILED: " ^ m)
  end;

  (* Figure 3, panel 4: REC dataflow vs PDM (L-cosets), always at the
     paper's parameters so front work dominates region overheads. *)
  print_endline "\n=== simulated speedup (cf. Figure 3, panel 4) ===";
  let cpaper =
    if full then c
    else begin
      let params = [ ("nmat", 250); ("m", 4); ("n", 40); ("nrhs", 3) ] in
      print_endline "(computing at paper parameters NMAT=250, M=4, N=40, NRHS=3)";
      Core.Dataflow.peel_concrete prog ~params
    end
  in
  let trpaper = cpaper.Core.Dataflow.trace in
  let n_seq = Array.length trpaper.Depend.Trace.instances in
  let rec_a =
    List.map
      (fun front -> Runtime.Sim.ADoall (List.length front))
      (Array.to_list cpaper.Core.Dataflow.fronts)
  in
  (* PDM: one parallel region of per-L sequential tasks. *)
  let per_l = Hashtbl.create 64 in
  Array.iter
    (fun i ->
      let l = l_of i in
      Hashtbl.replace per_l l (1 + try Hashtbl.find per_l l with Not_found -> 0))
    trpaper.Depend.Trace.instances;
  let pdm_a =
    [
      Runtime.Sim.ATasks
        (Array.of_list (Hashtbl.fold (fun _ n acc -> n :: acc) per_l []));
    ]
  in
  (* Same calibration as bench/main.exe: overheads relative to per-front
     work (fork 1.46%, bound evaluation 1.6% per thread, barrier 2.18%). *)
  let w_phase =
    0.8 *. float_of_int n_seq /. float_of_int (max (List.length rec_a) 1)
  in
  let rec_cost =
    {
      Runtime.Sim.w_iter = 1.0;
      code_factor = 0.8;
      fork = 0.0146 *. w_phase;
      barrier = 0.0218 *. w_phase;
      bound_eval = 0.016 *. w_phase;
    }
  in
  Printf.printf "threads    REC    PDM  (linear)\n";
  List.iter
    (fun p ->
      let rec_s =
        Runtime.Sim.speedup_abstract rec_cost ~threads:p ~n_seq rec_a
      in
      let pdm_s =
        Runtime.Sim.speedup_abstract Runtime.Sim.base ~threads:p ~n_seq pdm_a
      in
      Printf.printf "   %d     %5.2f  %5.2f   (%d)\n" p rec_s pdm_s p)
    [ 1; 2; 3; 4 ]
