(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4), then writes the pipeline, service and
   execution reports the regression gate reads.  See DESIGN.md §4 for the
   experiment index and EXPERIMENTS.md for recorded paper-vs-measured
   values.

   Usage:  dune exec bench/main.exe            (full: paper parameters)
           dune exec bench/main.exe -- --quick (reduced sizes)
           BENCH_QUICK=1 dune exec bench/main.exe

   Regression gate (CI):
           dune exec bench/main.exe -- --quick \
             --baseline BENCH_pipeline.json --gate 25
   compares the freshly written BENCH_pipeline.json against the committed
   baseline and exits non-zero when a stage timing or metric counter
   regressed more than the gate percentage (see Pipeline.Gate). *)

module Iset = Presburger.Iset
module Rel = Presburger.Rel
module Solve = Depend.Solve
module Partition = Core.Partition
module Threeset = Core.Threeset
module Dataflow = Core.Dataflow
module Sched = Runtime.Sched
module Sim = Runtime.Sim

let quick =
  Sys.getenv_opt "BENCH_QUICK" <> None
  || Array.exists (fun a -> a = "--quick") Sys.argv

(* Minimal flag-value extraction ("--baseline FILE", "--gate PCT"): the
   harness predates cmdliner use here and positional scanning keeps the
   no-argument paths untouched. *)
let argv_value flag =
  let n = Array.length Sys.argv in
  let rec go k =
    if k >= n - 1 then None
    else if Sys.argv.(k) = flag then Some Sys.argv.(k + 1)
    else go (k + 1)
  in
  go 1

(* All strategy selection goes through the pipeline layer; panels that
   need the raw REC plan unwrap the typed plan. *)
let rec_plan_exn name prog =
  match Pipeline.Driver.classify prog with
  | Ok (Pipeline.Plan.Rec_chains rp) -> rp
  | Ok _ | Error _ -> failwith (name ^ " must take the REC branch")

let section name =
  Printf.printf "\n%s\n== %s\n%s\n" (String.make 64 '=') name (String.make 64 '=')

(* Calibrated per-scheme code factors (single-thread code-quality ratios the
   paper attributes to each scheme's generated code; the curve shapes and
   crossovers then follow from schedule structure).  Region overheads are
   expressed relative to the average per-phase work so the shapes are
   invariant under --quick scaling.  See DESIGN.md §5. *)
let rel_cost ~factor ~n_seq ~phases ~fork_f ~bound_f ~barrier_f =
  let w_phase = factor *. float_of_int n_seq /. float_of_int (max phases 1) in
  {
    Sim.w_iter = 1.0;
    code_factor = factor;
    fork = fork_f *. w_phase;
    barrier = barrier_f *. w_phase;
    bound_eval = bound_f *. w_phase;
  }

(* Example 1: REC's complex generated bounds cost ~3.9% of a phase's work
   per thread (the paper's 4-thread droop); PDM/PL pay their uniformized
   per-iteration code factors. *)
let rec_ex1_cost ~n_seq ~phases =
  rel_cost ~factor:0.75 ~n_seq ~phases ~fork_f:0.0003 ~bound_f:0.0387
    ~barrier_f:0.0004

let pdm_ex1_cost = Sim.with_factor 1.35
let pl_ex1_cost = Sim.with_factor 1.6
let rec_ex2_cost = Sim.with_factor 0.8
let unique_ex2_cost = Sim.with_factor 0.8

(* Cholesky: 318 dataflow fronts each pay fork/bounds/barrier ≈ 5% of their
   average work at 4 threads — REC wins below 3 threads on its cheaper
   Omega-optimized code, PDM's single DOALL-over-L region wins at 4. *)
let rec_ex4_cost ~n_seq ~phases =
  rel_cost ~factor:0.8 ~n_seq ~phases ~fork_f:0.0146 ~bound_f:0.016
    ~barrier_f:0.0218

let pdm_ex4_cost = Sim.base

let threads_range = [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1                                                        *)

let fig1 () =
  section "E1 / Figure 1: non-uniform dependences of Example 1 (10×10)";
  let a = Solve.analyze_simple Loopir.Builtin.example1 in
  let pairs =
    Iset.points (Iset.bind_params (Rel.to_set a.Solve.rd) [| 10; 10 |])
  in
  let by_d = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let d = p.(2) - p.(0) in
      Hashtbl.replace by_d d (1 + try Hashtbl.find by_d d with Not_found -> 0))
    pairs;
  Printf.printf "distance   arrows   paper\n";
  List.iter
    (fun (d, expect) ->
      Printf.printf "  (%d,%d)      %2d       %d\n" d d
        (try Hashtbl.find by_d d with Not_found -> 0)
        expect)
    [ (2, 8); (4, 6); (6, 4) ];
  Printf.printf "total       %2d      18\n" (List.length pairs)

(* ------------------------------------------------------------------ *)
(* E2 — Figure 2                                                        *)

let fig2 () =
  section "E2 / Figure 2: 1-D chains, DO I=1,20: a(2I)=a(21-I)";
  let a = Solve.analyze_simple Loopir.Builtin.fig2 in
  let three = Threeset.compute ~phi:a.Solve.phi ~rd:a.Solve.rd in
  let ints set =
    List.map (fun p -> string_of_int p.(0)) (Iset.points set)
  in
  Printf.printf "P1 = %s\n" (String.concat " " (ints three.Threeset.p1));
  Printf.printf "     (paper: 1 2 3 4 5 6 7 12 14 16 18 20)\n";
  Printf.printf "P2 = {%s}   (paper: empty)\n"
    (String.concat " " (ints three.Threeset.p2));
  Printf.printf "P3 = %s\n" (String.concat " " (ints three.Threeset.p3));
  Printf.printf "     (paper: 8 9 10 11 13 15 17 19)\n"

(* ------------------------------------------------------------------ *)
(* E3 — Example 1 partition + Theorem 1                                 *)

let ex1_plan = lazy (rec_plan_exn "example1" Loopir.Builtin.example1)

let ex1 () =
  section "E3 / Example 1: REC partitioning";
  let rp = Lazy.force ex1_plan in
  let show (n1, n2) =
    let c = Partition.materialize_rec_scan rp ~params:[| n1; n2 |] in
    Printf.printf
      "N1=%-4d N2=%-5d |P1|=%-7d chains=%-6d |P2|=%-6d longest=%d bound=%s \
       |P3|=%d\n"
      n1 n2
      (Core.Points.length c.Partition.p1_pts)
      (Core.Chain.n_chains c.Partition.chains)
      (Core.Chain.total_points c.Partition.chains)
      c.Partition.chains.Core.Chain.longest
      (match c.Partition.theorem_bound with
      | Some b -> string_of_int b
      | None -> "-")
      (Core.Points.length c.Partition.p3_pts)
  in
  List.iter show [ (10, 10); (30, 100); (300, 1000) ];
  print_endline "\ngenerated code (REC listing, cf. paper Example 1):";
  print_string (Codegen.Emit.rec_partitioning rp)

(* ------------------------------------------------------------------ *)
(* E4 — Example 2                                                       *)

let ex2 () =
  section "E4 / Example 2 (Ju et al): REC vs UNIQUE";
  let rp = rec_plan_exn "example2" Loopir.Builtin.example2 in
  let p2 =
    Iset.points (Iset.bind_params rp.Partition.three.Threeset.p2 [| 12 |])
  in
  Printf.printf "intermediate set at N=12: {%s}   (paper: {(2,6)})\n"
    (String.concat "; "
       (List.map (fun p -> Printf.sprintf "(%d,%d)" p.(0) p.(1)) p2));
  let c = Partition.materialize_rec rp ~params:[| 12 |] in
  Printf.printf "REC regions: 3 (P1 %d ∥ / chains %d / P3 %d ∥)\n"
    (Core.Points.length c.Partition.p1_pts)
    (Core.Chain.total_points c.Partition.chains)
    (Core.Points.length c.Partition.p3_pts);
  let u =
    Baselines.Unique.partition rp.Partition.simple ~three:rp.Partition.three
  in
  Printf.printf "UNIQUE regions: %d (paper: 5, third sequential)\n"
    (Baselines.Unique.n_regions u ~params:[| 12 |]);
  Printf.printf "Theorem 1: growth %g, chain bound %s\n" c.Partition.growth
    (match c.Partition.theorem_bound with
    | Some b -> string_of_int b
    | None -> "-")

(* ------------------------------------------------------------------ *)
(* E5 — Example 3                                                       *)

let ex3 () =
  section "E5 / Example 3 (Chen et al): statement-level REC";
  let u = Solve.analyze_unified Loopir.Builtin.example3 in
  let three = Threeset.compute ~phi:u.Solve.uphi ~rd:u.Solve.urd in
  Printf.printf "intermediate set empty (symbolic n): %b   (paper: empty)\n"
    (Iset.is_empty three.Threeset.p2);
  let c = Dataflow.peel_concrete Loopir.Builtin.example3 ~params:[ ("n", 40) ] in
  Printf.printf
    "exact dataflow levels at n=40: %d   (paper: two iteration time)\n"
    c.Dataflow.steps

(* ------------------------------------------------------------------ *)
(* E6 — Example 4 (Cholesky)                                            *)

let cholesky_params =
  if quick then [ ("nmat", 16); ("m", 4); ("n", 20); ("nrhs", 2) ]
  else [ ("nmat", 250); ("m", 4); ("n", 40); ("nrhs", 3) ]

(* One trace serves the front count, the edge statistics and panel 4. *)
let cholesky_data =
  lazy (Dataflow.peel_concrete Loopir.Builtin.cholesky ~params:cholesky_params)

let ex4 () =
  section "E6 / Example 4: NASA Cholesky kernel, dataflow partitioning";
  Printf.printf "parameters: %s%s\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cholesky_params))
    (if quick then "  [--quick]" else "  (paper parameters)");
  let c = Lazy.force cholesky_data in
  let tr = c.Dataflow.trace in
  Printf.printf "statement instances : %d\n" (Array.length tr.Depend.Trace.instances);
  Printf.printf "dependence edges    : %d\n" (Depend.Trace.n_edges tr);
  Printf.printf "dataflow steps      : %d   (paper: 238 at paper parameters)\n"
    c.Dataflow.steps;
  (* PDM keeps the L dimension (the innermost loop of every statement)
     fully parallel. *)
  let l_of (i : Depend.Trace.instance) =
    i.Depend.Trace.iter.(Array.length i.Depend.Trace.iter - 1)
  in
  let cross = ref 0 in
  Depend.Trace.iter_edges tr (fun a b ->
      if l_of tr.Depend.Trace.instances.(a) <> l_of tr.Depend.Trace.instances.(b)
      then incr cross);
  Printf.printf "edges crossing L    : %d   (0 ⟹ the PDM L-DOALL is legal)\n"
    !cross

(* ------------------------------------------------------------------ *)
(* E7 — Figure 3: the four speedup panels                               *)

let print_panel title header rows =
  Printf.printf "\n-- %s\n" title;
  Printf.printf "threads  %s\n" header;
  List.iter
    (fun p ->
      Printf.printf "   %d    " p;
      List.iter (fun f -> Printf.printf " %6.2f" (f p)) rows;
      print_newline ())
    threads_range

let fig3_panel1 () =
  let n1, n2 = if quick then (100, 160) else (300, 1000) in
  let rp = Lazy.force ex1_plan in
  let c = Partition.materialize_rec_scan rp ~params:[| n1; n2 |] in
  let rec_a = Sim.abstract (Sched.of_rec ~stmt:0 c) in
  let points = Partition.rec_points_in_order c in
  let n_seq = List.length points in
  let pdm = Baselines.Pdm.of_simple rp.Partition.simple ~params:[| n1; n2 |] in
  let pl = Baselines.Pl.of_simple rp.Partition.simple ~params:[| n1; n2 |] in
  let pdm_a = Sim.abstract (Baselines.Pdm.schedule pdm ~stmt:0 points) in
  let pl_a = Sim.abstract (Baselines.Pl.schedule pl ~stmt:0 points) in
  print_panel
    (Printf.sprintf "panel 1: Example 1, N1=%d N2=%d (paper: REC > PDM > PL)"
       n1 n2)
    "   REC    PDM     PL  linear"
    [
      (fun p ->
        Sim.speedup_abstract
          (rec_ex1_cost ~n_seq ~phases:(List.length rec_a))
          ~threads:p ~n_seq rec_a);
      (fun p -> Sim.speedup_abstract pdm_ex1_cost ~threads:p ~n_seq pdm_a);
      (fun p -> Sim.speedup_abstract pl_ex1_cost ~threads:p ~n_seq pl_a);
      (fun p -> float_of_int p);
    ]

let fig3_panel2 () =
  let n = if quick then 100 else 300 in
  let rp = rec_plan_exn "example2" Loopir.Builtin.example2 in
  let c = Partition.materialize_rec_scan rp ~params:[| n |] in
  let rec_a = Sim.abstract (Sched.of_rec ~stmt:0 c) in
  let n_seq = n * n in
  let u =
    Baselines.Unique.partition rp.Partition.simple ~three:rp.Partition.three
  in
  let uniq_a =
    Sim.abstract (Baselines.Unique.schedule u ~stmt:0 ~params:[| n |])
  in
  print_panel
    (Printf.sprintf
       "panel 2: Example 2, N=%d (paper: REC ≥ UNIQUE, both ≥ linear at 1)"
       n)
    "   REC  UNIQUE  linear"
    [
      (fun p -> Sim.speedup_abstract rec_ex2_cost ~threads:p ~n_seq rec_a);
      (fun p -> Sim.speedup_abstract unique_ex2_cost ~threads:p ~n_seq uniq_a);
      (fun p -> float_of_int p);
    ]

let fig3_panel3 () =
  let n = if quick then 80 else 150 in
  let params = [ ("n", n) ] in
  let c = Dataflow.peel_concrete Loopir.Builtin.example3 ~params in
  let tr = c.Dataflow.trace in
  let n_seq = Array.length tr.Depend.Trace.instances in
  let rec_a = Sim.abstract (Sched.of_fronts c) in
  let par_a = Sim.abstract (Baselines.Innerpar.schedule tr) in
  print_panel
    (Printf.sprintf
       "panel 3: Example 3, n=%d (paper: REC > PAR > DOACROSS; REC has 2 \
        barriers)"
       n)
    "   REC    PAR  DOACROSS  linear"
    [
      (fun p -> Sim.speedup_abstract Sim.base ~threads:p ~n_seq rec_a);
      (fun p -> Sim.speedup_abstract Sim.base ~threads:p ~n_seq par_a);
      (fun p ->
        let r =
          Baselines.Doacross.pipeline tr ~threads:p ~w_iter:Sim.base.Sim.w_iter
            ~delay_factor:0.5
        in
        Sim.seq_time Sim.base n_seq /. r.Baselines.Doacross.makespan);
      (fun p -> float_of_int p);
    ]

let fig3_panel4 () =
  let c = Lazy.force cholesky_data in
  let tr = c.Dataflow.trace in
  let n_seq = Array.length tr.Depend.Trace.instances in
  let rec_a =
    List.map
      (fun front -> Sim.ADoall (List.length front))
      (Array.to_list c.Dataflow.fronts)
  in
  let per_l = Hashtbl.create 64 in
  Array.iter
    (fun (i : Depend.Trace.instance) ->
      let l = i.Depend.Trace.iter.(Array.length i.Depend.Trace.iter - 1) in
      Hashtbl.replace per_l l (1 + try Hashtbl.find per_l l with Not_found -> 0))
    tr.Depend.Trace.instances;
  let pdm_a =
    [ Sim.ATasks (Array.of_list (Hashtbl.fold (fun _ k acc -> k :: acc) per_l [])) ]
  in
  print_panel "panel 4: Cholesky (paper: REC wins ≤ 3 threads, PDM wins at 4)"
    "   REC    PDM  linear"
    [
      (fun p ->
        Sim.speedup_abstract
          (rec_ex4_cost ~n_seq ~phases:(List.length rec_a))
          ~threads:p ~n_seq rec_a);
      (fun p -> Sim.speedup_abstract pdm_ex4_cost ~threads:p ~n_seq pdm_a);
      (fun p -> float_of_int p);
    ]

let fig3 () =
  section "E7 / Figure 3: speedups on the simulated 4-CPU SMP";
  fig3_panel1 ();
  fig3_panel2 ();
  fig3_panel3 ();
  fig3_panel4 ()

(* ------------------------------------------------------------------ *)
(* E8 — Theorem 1 sweep                                                 *)

let theorem1 () =
  section "E8 / Theorem 1: measured chain length vs bound";
  Printf.printf "%-10s %-14s %-8s %-8s %s\n" "program" "params" "longest"
    "bound" "within";
  let rp1 = Lazy.force ex1_plan in
  List.iter
    (fun (n1, n2) ->
      let c = Partition.materialize_rec_scan rp1 ~params:[| n1; n2 |] in
      let b = Option.value ~default:(-1) c.Partition.theorem_bound in
      Printf.printf "%-10s %-14s %-8d %-8d %b\n" "example1"
        (Printf.sprintf "%dx%d" n1 n2)
        c.Partition.chains.Core.Chain.longest b
        (c.Partition.chains.Core.Chain.longest <= b))
    [ (10, 10); (40, 40); (100, 100); (300, 1000) ];
  let rp2 = rec_plan_exn "example2" Loopir.Builtin.example2 in
  List.iter
    (fun n ->
      let c = Partition.materialize_rec_scan rp2 ~params:[| n |] in
      let b = Option.value ~default:(-1) c.Partition.theorem_bound in
      Printf.printf "%-10s %-14s %-8d %-8d %b\n" "example2"
        (Printf.sprintf "n=%d" n)
        c.Partition.chains.Core.Chain.longest b
        (c.Partition.chains.Core.Chain.longest <= b))
    [ 12; 32; 64; 128; 256 ];
  let rp =
    rec_plan_exn "stretch1d"
      (Loopir.Parser.parse ~name:"q" "DO i = 1, 4000\n  a(3*i + 1) = a(2*i)\nENDDO")
  in
  let c = Partition.materialize_rec rp ~params:[||] in
  let b = Option.value ~default:(-1) c.Partition.theorem_bound in
  Printf.printf "%-10s %-14s %-8d %-8d %b   (growth 3/2)\n" "stretch1d"
    "n=4000" c.Partition.chains.Core.Chain.longest b
    (c.Partition.chains.Core.Chain.longest <= b)

(* ------------------------------------------------------------------ *)
(* E9 — corpus survey                                                   *)

let corpus () =
  section "E9 / survey methodology: corpus classification";
  let default_n = 10 in
  let stats = ref (0, 0, 0) in
  List.iter
    (fun (name, prog) ->
      match Solve.analyze_simple prog with
      | a ->
          let params = Array.map (fun _ -> default_n) a.Solve.params in
          let cls =
            Depend.Distance.classify a.Solve.rd ~phi:a.Solve.phi ~params
          in
          let coupled =
            List.exists Depend.Distance.has_coupled_subscripts
              (Loopir.Prog.stmts_of prog)
          in
          let t, nu, cp = !stats in
          stats :=
            ( t + 1,
              (nu + if cls = Depend.Distance.Non_uniform then 1 else 0),
              (cp + if coupled then 1 else 0) );
          Printf.printf "  %-20s %-12s coupled=%b\n" name
            (Depend.Distance.class_to_string cls)
            coupled
      | exception _ -> ())
    Loopir.Builtin.corpus;
  let t, nu, cp = !stats in
  Printf.printf
    "non-uniform: %d/%d (%.0f%%)  coupled: %d/%d   (paper: 46%% of SPECfp95 \
     nests non-uniform — methodology reproduction, synthetic corpus)\n"
    nu t
    (100.0 *. float_of_int nu /. float_of_int t)
    cp t

(* ------------------------------------------------------------------ *)
(* Ablations: what the design choices buy                               *)

let ablation () =
  section "ablations (design-choice studies, DESIGN.md §5)";

  (* 1. Exact (Omega) vs classical conservative dependence tests on random
     single-dimension equations: how often exactness proves independence
     that GCD/Banerjee miss. *)
  let rng = Random.State.make [| 20040815 |] in
  let n_eq = 2000 in
  let gcd_fp = ref 0 and ban_fp = ref 0 and comb_fp = ref 0 in
  let independent = ref 0 in
  for _ = 1 to n_eq do
    let m = 1 + Random.State.int rng 3 in
    let coef () = Random.State.int rng 9 - 4 in
    let eq =
      {
        Depend.Dtests.a = Array.init m (fun _ -> coef ());
        b = Array.init m (fun _ -> coef ());
        c = Random.State.int rng 61 - 30;
        lo = Array.make m 1;
        hi = Array.init m (fun _ -> 1 + Random.State.int rng 8);
      }
    in
    match (try Some (Depend.Dtests.exact eq) with Presburger.Omega.Blowup _ -> None) with
    | None | Some Depend.Dtests.Maybe_dependent -> ()
    | Some Depend.Dtests.Independent ->
        incr independent;
        if Depend.Dtests.gcd_test eq <> Depend.Dtests.Independent then
          incr gcd_fp;
        if Depend.Dtests.banerjee_test eq <> Depend.Dtests.Independent then
          incr ban_fp;
        if Depend.Dtests.combined eq <> Depend.Dtests.Independent then
          incr comb_fp
  done;
  Printf.printf
    "A1 exactness: of %d random equations, %d are independent;\n\
    \    conservative tests miss: GCD %d, Banerjee %d, GCD+Banerjee %d\n\
    \    (the misses are where the paper's exact-solution approach finds\n\
    \     parallelism that classical tests cannot)\n"
    n_eq !independent !gcd_fp !ban_fp !comb_fp;

  (* 2. Barrier structure per scheme on Example 2 (N=64): phases = barrier
     count, plus the largest sequential task (critical path inside a
     phase). *)
  (let rp = rec_plan_exn "example2" Loopir.Builtin.example2 in
      let n = 64 in
      let c = Partition.materialize_rec_scan rp ~params:[| n |] in
      let rec_sched = Sched.of_rec ~stmt:0 c in
      let a = rp.Partition.simple in
      let pts = Iset.points (Iset.bind_params a.Solve.phi [| n |]) in
      let pdm = Baselines.Pdm.of_simple a ~params:[| n |] in
      let pdm_sched = Baselines.Pdm.schedule pdm ~stmt:0 pts in
      let md = Baselines.Mindist.of_simple a ~params:[| n |] in
      let md_sched = Baselines.Mindist.schedule md ~stmt:0 pts in
      let u = Baselines.Unique.partition a ~three:rp.Partition.three in
      let u_sched = Baselines.Unique.schedule u ~stmt:0 ~params:[| n |] in
      let longest_task s =
        List.fold_left
          (fun acc ph ->
            match ph with
            | Sched.Doall _ -> max acc 1
            | Sched.Tasks { tasks; _ } ->
                Array.fold_left (fun a t -> max a (Array.length t)) acc tasks)
          0 s.Sched.phases
      in
      Printf.printf
        "A2 schedule structure on Example 2 (N=%d, %d iterations):\n" n (n * n);
      Printf.printf "    %-10s %8s %18s\n" "scheme" "barriers" "longest seq task";
      List.iter
        (fun (name, s) ->
          Printf.printf "    %-10s %8d %18d\n" name (Sched.n_phases s)
            (longest_task s))
        [
          ("REC", rec_sched);
          ("UNIQUE", u_sched);
          ("PDM", pdm_sched);
          ("MINDIST", md_sched);
        ]);

  (* 3. Redundancy elimination: disjunct counts of P1 with and without
     simplification (raw difference vs simplified). *)
  let a = Solve.analyze_simple Loopir.Builtin.example1 in
  let iters = Array.sub (Iset.names a.Solve.phi) 0 (Iset.n_iters a.Solve.phi) in
  let params = a.Solve.params in
  let ran =
    Iset.make ~iters ~params (Iset.polys (Rel.ran a.Solve.rd))
  in
  let raw = Iset.diff a.Solve.phi ran in
  let simplified =
    try Iset.simplify ~aggressive:true raw
    with Presburger.Omega.Blowup _ -> Iset.simplify raw
  in
  let constr_count s =
    List.fold_left
      (fun acc p -> acc + List.length (Presburger.Poly.constraints p))
      0 (Iset.polys s)
  in
  Printf.printf
    "A3 simplification (Example 1 P1, symbolic): %d disjuncts / %d \
     constraints raw -> %d / %d simplified\n"
    (List.length (Iset.polys raw))
    (constr_count raw)
    (List.length (Iset.polys simplified))
    (constr_count simplified)

(* ------------------------------------------------------------------ *)
(* E10 — pipeline reports → BENCH_pipeline.json                         *)

(* Helpers for the per-run observability blocks of BENCH_pipeline.json. *)
let stages_json (r : Pipeline.Report.t) =
  Pipeline.Json.Obj
    (List.map
       (fun (label, s) -> (label, Pipeline.Json.Float s))
       r.Pipeline.Report.timings)

let phase_profile_json (r : Pipeline.Report.t) =
  Pipeline.Json.List
    (List.filter_map
       (fun (p : Pipeline.Report.phase_profile) ->
         Option.map
           (fun (x : Pipeline.Report.phase_run) ->
             Pipeline.Json.Obj
               [
                 ("label", Pipeline.Json.Str p.Pipeline.Report.label);
                 ("instances", Pipeline.Json.Int p.Pipeline.Report.instances);
                 ("units", Pipeline.Json.Int x.Pipeline.Report.units);
                 ("seconds", Pipeline.Json.Float x.Pipeline.Report.seconds);
                 ( "alloc_words",
                   Pipeline.Json.Float x.Pipeline.Report.alloc_words );
               ])
           p.Pipeline.Report.run)
       r.Pipeline.Report.phases)

let gc_json (r : Pipeline.Report.t) =
  Pipeline.Json.Obj
    (List.map
       (fun (stage, g) ->
         ( stage,
           Pipeline.Json.Obj
             [
               ( "allocated_words",
                 Pipeline.Json.Float (Obs.Gcstats.allocated_words g) );
               ( "minor_collections",
                 Pipeline.Json.Int g.Obs.Gcstats.minor_collections );
               ( "major_collections",
                 Pipeline.Json.Int g.Obs.Gcstats.major_collections );
             ] ))
       r.Pipeline.Report.gc)

let metrics_json (m : Obs.Metrics.t) =
  (* The steal/caller-run split of the worker pool depends on which domain
     wins the queue race at t > 1 — drop it from the emitted (and
     therefore gated) counters so the committed baseline cannot flake.
     The total `runtime.workers.jobs` is deterministic and stays. *)
  let m =
    Obs.Metrics.filter
      (fun name ->
        name <> "runtime.workers.jobs_stolen"
        && name <> "runtime.workers.jobs_caller")
      m
  in
  Pipeline.Json.Obj
    [
      ( "counters",
        Pipeline.Json.Obj
          (List.map
             (fun (n, v) -> (n, Pipeline.Json.Int v))
             m.Obs.Metrics.counters) );
      ( "histograms",
        Pipeline.Json.Obj
          (List.map
             (fun (n, (h : Obs.Histogram.snap)) ->
               ( n,
                 Pipeline.Json.Obj
                   [
                     ("count", Pipeline.Json.Int h.Obs.Histogram.count);
                     ("sum", Pipeline.Json.Int h.Obs.Histogram.sum);
                     ( "buckets",
                       Pipeline.Json.List
                         (List.map
                            (fun (le, c) ->
                              Pipeline.Json.Obj
                                [
                                  ("le", Pipeline.Json.Int le);
                                  ("count", Pipeline.Json.Int c);
                                ])
                            h.Obs.Histogram.buckets) );
                   ] ))
             m.Obs.Metrics.histograms) );
    ]

(* E13 — analyze-stage memoization: cold vs memo-warm classification over
   the builtin corpus.  The memo tables are cleared before the cold pass,
   so "cold" really recomputes every set-algebra result and "warm" answers
   from the {!Presburger.Hc} tables; the warm time is the median of
   [warm_reps] passes.  Classification runs on the calling domain, so the
   omega call counts and memo miss counts are exactly reproducible and
   are the gate-checked counters; timings and hit counts are plain
   fields. *)
let warm_reps = 9

let analyze_entry () =
  let corpus =
    [
      ("example1", Loopir.Builtin.example1);
      ("fig2", Loopir.Builtin.fig2);
      ("example2", Loopir.Builtin.example2);
      ("example3", Loopir.Builtin.example3);
    ]
  in
  Printf.printf
    "  analyze-stage memoization (classify over %d nests, cold vs warm; warm \
     = median of %d passes):\n"
    (List.length corpus) warm_reps;
  Printf.printf "    cold s     warm s  speedup  warm hits/misses\n";
  let omega_calls (m : Obs.Metrics.t) =
    List.fold_left
      (fun acc (name, v) ->
        match name with
        | "omega.eliminate_calls" | "omega.project_out_calls"
        | "omega.is_empty_calls" ->
            acc + v
        | _ -> acc)
      0 m.Obs.Metrics.counters
  in
  (* cold-run isolation: zero every registry (and clear the memo tables)
     so counts accumulated by earlier sections cannot leak into this
     run's diffs *)
  Obs.Metrics.reset_all ();
  Presburger.Hc.clear_all ();
  let pass () =
    let before = Obs.Metrics.snapshot () in
    let t0 = Obs.Clock.now_ns () in
    List.iter
      (fun (name, prog) ->
        match Pipeline.Driver.classify prog with
        | Ok _ -> ()
        | Error e ->
            failwith
              (Printf.sprintf "analyze bench: %s: %s" name (Diag.to_string e)))
      corpus;
    let dt = Obs.Clock.elapsed_s t0 in
    (dt, Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()))
  in
  let m0 = Presburger.Hc.totals () in
  let cold_s, cold_m = pass () in
  let m1 = Presburger.Hc.totals () in
  let warm_s, warm_m = pass () in
  let m2 = Presburger.Hc.totals () in
  (* One warm pass is ~0.35 ms, too short to time alone: the speedup uses
     the median of [warm_reps] passes, the counters and hit counts the
     first. *)
  let warm_s =
    let times =
      Array.init warm_reps (fun k -> if k = 0 then warm_s else fst (pass ()))
    in
    Array.sort compare times;
    times.(warm_reps / 2)
  in
  let open Presburger.Hc in
  let cold_hits = m1.hits - m0.hits
  and cold_misses = m1.misses - m0.misses
  and warm_hits = m2.hits - m1.hits
  and warm_misses = m2.misses - m1.misses in
  let speedup = cold_s /. warm_s in
  Printf.printf "  %8.4f   %8.4f   %5.1fx  %d/%d\n" cold_s warm_s speedup
    warm_hits warm_misses;
  Printf.printf "  memo-warm analyze speedup: %.1fx%s\n" speedup
    (if speedup >= 2.0 then "" else "  (below the 2x target!)");
  let run =
    Pipeline.Json.Obj
      [
        ("threads", Pipeline.Json.Int 1);
        ("cold_seconds", Pipeline.Json.Float cold_s);
        ("warm_seconds", Pipeline.Json.Float warm_s);
        ("warm_speedup", Pipeline.Json.Float speedup);
        ("memo_hits_cold", Pipeline.Json.Int cold_hits);
        ("memo_hits_warm", Pipeline.Json.Int warm_hits);
        ( "metrics",
          Pipeline.Json.Obj
            [
              ( "counters",
                Pipeline.Json.Obj
                  [
                    ( "omega_calls_cold",
                      Pipeline.Json.Int (omega_calls cold_m) );
                    ( "omega_calls_warm",
                      Pipeline.Json.Int (omega_calls warm_m) );
                    ("memo_misses_cold", Pipeline.Json.Int cold_misses);
                    ("memo_misses_warm", Pipeline.Json.Int warm_misses);
                  ] );
            ] );
      ]
  in
  Pipeline.Json.Obj
    [
      ("program", Pipeline.Json.Str "analyze-memo");
      ("runs", Pipeline.Json.List [ run ]);
    ]

(* The E10/E14 program set: the paper's examples plus a tiled kernel. *)
let builtin_corpus sc =
  [
    ("example1", Loopir.Builtin.example1,
     [ ("n1", 30 * sc); ("n2", 50 * sc) ]);
    ("fig2", Loopir.Builtin.fig2, []);
    ("example2", Loopir.Builtin.example2, [ ("n", 32 * sc) ]);
    ("example3", Loopir.Builtin.example3, [ ("n", 24 * sc) ]);
    ("cholesky", Loopir.Builtin.cholesky,
     [ ("nmat", 8 * sc); ("m", 4); ("n", 10 * sc); ("nrhs", 2) ]);
  ]

(* E14 — predicted-vs-actual cost-model accounting: run the corpus at
   t = 1 with the uncalibrated default cost, fit the constants from those
   measured phases ({!Runtime.Sim.calibrate}), re-run with the calibrated
   cost, and record the mean total relative error before and after.  Only
   the post-calibration error is gated (as an integer percentage): the
   default-cost error says nothing about regressions, but the calibrated
   model drifting away from the executor does.  t = 1 keeps the phase
   walls free of scheduling noise. *)
let prediction_entry () =
  section "E14 / cost-model prediction error (before vs after calibration)";
  let sc = if quick then 1 else 2 in
  let programs = builtin_corpus sc in
  let run_one ?cost (name, prog, params) =
    let options =
      { Pipeline.Driver.default_options with threads = 1; sim_cost = cost }
    in
    match Pipeline.Driver.run ~options ~name ~params prog with
    | Error e ->
        Printf.printf "  %s: %s\n" name (Pipeline.Driver.error_to_string e);
        None
    | Ok o -> (
        match o.Pipeline.Driver.report.Pipeline.Report.prediction with
        | Some p ->
            Option.map
              (fun e -> (name, e, o))
              p.Pipeline.Report.rel_error
        | None -> None)
  in
  let mean = function
    | [] -> 0.0
    | l ->
        List.fold_left (fun a (_, e, _) -> a +. e) 0.0 l
        /. float_of_int (List.length l)
  in
  let pre = List.filter_map (fun p -> run_one p) programs in
  let samples =
    List.concat_map (fun (_, _, o) -> Pipeline.Driver.calibration_samples o) pre
  in
  let post =
    match Runtime.Sim.calibrate samples with
    | None ->
        Printf.printf "  calibration failed: no measured work in corpus\n";
        []
    | Some cost ->
        (* Best-of-3 per program: the phases are microseconds-short at
           bench sizes, so a single unlucky scheduling hiccup would move
           the gated error counter. *)
        let passes =
          List.init 3 (fun _ ->
              List.filter_map (fun p -> run_one ~cost p) programs)
        in
        List.filter_map
          (fun (name, _, _) ->
            let best =
              List.fold_left
                (fun acc pass ->
                  match
                    List.find_map
                      (fun (n, e, o) ->
                        if n = name then Some (e, o) else None)
                      pass
                  with
                  | Some (e, o) -> (
                      match acc with
                      | Some (e0, _) when e0 <= e -> acc
                      | _ -> Some (e, o))
                  | None -> acc)
                None passes
            in
            Option.map (fun (e, o) -> (name, e, o)) best)
          (List.hd passes)
  in
  Printf.printf "  %-10s %12s %12s\n" "program" "pre" "post";
  List.iter
    (fun (name, e_pre, _) ->
      let e_post =
        List.find_map
          (fun (n, e, _) -> if n = name then Some e else None)
          post
      in
      Printf.printf "  %-10s %12.2f %12s\n" name e_pre
        (match e_post with
        | Some e -> Printf.sprintf "%.2f" e
        | None -> "-"))
    pre;
  let mean_pre = mean pre and mean_post = mean post in
  Printf.printf
    "  mean total rel error: %.2f uncalibrated, %.2f calibrated%s\n" mean_pre
    mean_post
    (if post = [] || mean_post <= 0.5 then ""
     else "  (above the 0.5 target!)");
  let run_json =
    Pipeline.Json.Obj
      [
        ("threads", Pipeline.Json.Int 1);
        ("rel_error_pre", Pipeline.Json.Float mean_pre);
        ("rel_error_post", Pipeline.Json.Float mean_post);
        ( "per_program",
          Pipeline.Json.List
            (List.map
               (fun (name, e, _) ->
                 Pipeline.Json.Obj
                   [
                     ("program", Pipeline.Json.Str name);
                     ("rel_error_post", Pipeline.Json.Float e);
                   ])
               post) );
        ( "metrics",
          Pipeline.Json.Obj
            [
              ( "counters",
                Pipeline.Json.Obj
                  [
                    (* Clamped below at the 50% acceptance target: the raw
                       mean swings 2x between runs at bench sizes (exact
                       value in rel_error_post above), so gating it would
                       chase noise.  Anything under target reads as 50;
                       the gate fires only when calibration stops meeting
                       the paper target by a margin. *)
                    ( "prediction_rel_error_pct_post",
                      Pipeline.Json.Int
                        (max 50
                           (int_of_float (Float.round (mean_post *. 100.0))))
                    );
                    ( "programs_predicted",
                      Pipeline.Json.Int (List.length pre) );
                  ] );
            ] );
      ]
  in
  Pipeline.Json.Obj
    [
      ("program", Pipeline.Json.Str "prediction-error");
      ("runs", Pipeline.Json.List [ run_json ]);
    ]

let pipeline_json () =
  section "E10 / pipeline reports: BENCH_pipeline.json";
  let sc = if quick then 1 else 2 in
  let programs = builtin_corpus sc in
  let thread_counts = [ 1; 2; 4 ] in
  (* One pool per thread count, spawned before the corpus runs and shut
     down after them, so [stage:execute] times the run and not a
     transient pool's spawn and join. *)
  let pools =
    List.map (fun t -> (t, Runtime.Workers.create ~domains:t)) thread_counts
  in
  (* One recording log attached across the corpus runs: the resulting
     BENCH_trace.json shows every program × thread-count run end to end. *)
  let log = Obs.Event.make () in
  let entries =
    Fun.protect ~finally:(fun () ->
        List.iter (fun (_, w) -> Runtime.Workers.shutdown w) pools)
    @@ fun () ->
    Obs.Event.with_ambient log @@ fun () ->
    List.filter_map
      (fun (name, prog, params) ->
        let runs =
          List.filter_map
            (fun threads ->
              let options =
                {
                  Pipeline.Driver.default_options with
                  threads;
                  workers = Some (List.assoc threads pools);
                }
              in
              let name = Printf.sprintf "%s@t%d" name threads in
              (* One run at a time, so the metrics diff around it is the
                 run's own. *)
              let before = Obs.Metrics.snapshot () in
              match Pipeline.Driver.run ~options ~name ~params prog with
              | Ok o ->
                  let m =
                    Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ())
                  in
                  Some (threads, (o.Pipeline.Driver.report, m))
              | Error e ->
                  Printf.printf "  %s (t=%d): %s\n" name threads
                    (Pipeline.Driver.error_to_string e);
                  None)
            thread_counts
        in
        match runs with
        | [] -> None
        | (_, (r0, _)) :: _ ->
            let open Pipeline in
            Printf.printf "  %-10s %-9s %s\n" name r0.Report.strategy
              (String.concat "  "
                 (List.map
                    (fun (t, (r, _)) ->
                      Printf.sprintf "t=%d %s/%s" t
                        (Report.check_result_string r.Report.legality)
                        (Report.check_result_string r.Report.semantics))
                    runs));
            Some
              (Json.Obj
                 [
                   ("program", Json.Str name);
                   ( "params",
                     Json.Obj
                       (List.map (fun (k, v) -> (k, Json.Int v)) params) );
                   ("strategy", Json.Str r0.Report.strategy);
                   ( "phases",
                     match r0.Report.n_phases with
                     | Some n -> Json.Int n
                     | None -> Json.Null );
                   ( "instances",
                     match r0.Report.n_instances with
                     | Some n -> Json.Int n
                     | None -> Json.Null );
                   ( "runs",
                     Json.List
                       (List.map
                          (fun (t, (r, m)) ->
                            Json.Obj
                              [
                                ("threads", Json.Int t);
                                ( "seq_seconds",
                                  match r.Report.seq_seconds with
                                  | Some s -> Json.Float s
                                  | None -> Json.Null );
                                ( "par_seconds",
                                  match r.Report.par_seconds with
                                  | Some s -> Json.Float s
                                  | None -> Json.Null );
                                ( "legality",
                                  Json.Str
                                    (Report.check_result_string
                                       r.Report.legality) );
                                ( "semantics",
                                  Json.Str
                                    (Report.check_result_string
                                       r.Report.semantics) );
                                ("stages", stages_json r);
                                ("phase_profile", phase_profile_json r);
                                ("gc", gc_json r);
                                ( "idle_fraction",
                                  match r.Report.balance with
                                  | Some b ->
                                      Json.Float b.Report.idle_fraction
                                  | None -> Json.Null );
                                ( "metrics",
                                  if Obs.Metrics.is_empty m then Json.Null
                                  else metrics_json m );
                              ])
                          runs) );
                 ]))
      programs
  in
  let entries = entries @ [ analyze_entry (); prediction_entry () ] in
  let doc =
    Pipeline.Json.Obj
      [
        (* v2 = v1 plus the "analyze-memo" entry; the E14
           "prediction-error" entry reads the same way, so the version
           stays. *)
        ("schema_version", Pipeline.Json.Int 2);
        ("entries", Pipeline.Json.List entries);
      ]
  in
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc (Pipeline.Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_pipeline.json (%d programs)\n" (List.length entries);
  let oc = open_out "BENCH_trace.json" in
  output_string oc (Obs.Trace.to_chrome_json ~process:"bench" log);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_trace.json (%d spans)\n"
    (List.length (Obs.Event.spans log));
  doc

(* ------------------------------------------------------------------ *)
(* E15 — socket service under concurrent clients → BENCH_service.json   *)

(* The network front-end end to end: a real server on a Unix socket, 4
   concurrent pipelined clients replaying a corpus, three phases — cold
   (fresh process, empty store), memo-warm (same process, replay) and
   disk-warm (restarted process on the same store directory, primed by
   one sequential pass over the distinct keys).  Wall times and
   latencies are machine-dependent plain fields; the deterministic facts
   — response counts, warm hits, disk-warm hits, store reads, shed = 0
   at this (nominal) load — are the gated counters. *)
let socket_bench () =
  section
    "E15 / socket service: 4 concurrent clients, cold vs memo-warm vs \
     disk-warm";
  let clients = 4 in
  let reps = if quick then 1 else 3 in
  (* 33 distinct keys (>= the gate's count floor), duplicated
     [reps * clients] times across the phase *)
  let base =
    List.concat
      (List.init 11 (fun v ->
           [
             Svc.Proto.request
               ~id:(Printf.sprintf "e1-%d" v)
               ~name:"example1"
               ~params:[ ("n1", 8 + v); ("n2", 12 + v) ]
               (Svc.Proto.Prog Loopir.Builtin.example1);
             Svc.Proto.request
               ~id:(Printf.sprintf "e2-%d" v)
               ~name:"example2"
               ~params:[ ("n", 10 + v) ]
               (Svc.Proto.Prog Loopir.Builtin.example2);
             Svc.Proto.request
               ~id:(Printf.sprintf "e3-%d" v)
               ~name:"example3"
               ~params:[ ("n", 6 + v) ]
               (Svc.Proto.Prog Loopir.Builtin.example3);
           ]))
  in
  let distinct = List.length base in
  let corpus = List.concat (List.init reps (fun _ -> base)) in
  let l = List.length corpus in
  let to_line r = Pipeline.Json.to_string (Svc.Proto.request_to_json r) in
  let lines = List.map to_line corpus in
  let base_lines = List.map to_line base in
  let tmp = Filename.get_temp_dir_name () in
  let store_dir =
    Filename.concat tmp (Printf.sprintf "recpart-bench-store-%d" (Unix.getpid ()))
  in
  (* a fresh store: a leftover from an earlier run must not pre-warm the
     cold phase *)
  if Sys.file_exists store_dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat store_dir f))
      (Sys.readdir store_dir);
    Unix.rmdir store_dir
  end;
  let sock =
    Filename.concat tmp (Printf.sprintf "recpart-bench-%d.sock" (Unix.getpid ()))
  in
  let addr = Net.Addr.Unix_sock sock in
  let config =
    {
      Svc.Service.default_config with
      domains = 4;
      threads = 1;
      check = false;
      (* nominal load: every pipelined request fits, shed must be 0 *)
      queue_capacity = (clients * l) + distinct + 8;
      store_dir = Some store_dir;
    }
  in
  (* one phase: [n] clients, each pipelining [job_lines] and then
     draining the responses; returns wall seconds and response tallies *)
  let run_phase ~n job_lines =
    let oks = Array.make n 0
    and cached = Array.make n 0
    and shed = Array.make n 0
    and errs = Array.make n 0 in
    let worker i =
      match Net.Client.connect addr with
      | Error e -> Printf.eprintf "bench client %d: %s\n" i e
      | Ok c ->
          List.iter
            (fun line ->
              match Net.Client.send c line with
              | Ok () -> ()
              | Error e -> Printf.eprintf "bench client %d: %s\n" i e)
            job_lines;
          List.iter
            (fun _ ->
              match Net.Client.recv c with
              | Error e -> Printf.eprintf "bench client %d: %s\n" i e
              | Ok resp -> (
                  match Pipeline.Json.parse resp with
                  | Error _ -> errs.(i) <- errs.(i) + 1
                  | Ok j ->
                      let str k =
                        match Pipeline.Json.member k j with
                        | Some (Pipeline.Json.Str s) -> s
                        | _ -> ""
                      in
                      let is_cached =
                        match Pipeline.Json.member "cached" j with
                        | Some (Pipeline.Json.Bool b) -> b
                        | _ -> false
                      in
                      if str "status" = "ok" then begin
                        oks.(i) <- oks.(i) + 1;
                        if is_cached then cached.(i) <- cached.(i) + 1
                      end
                      else if str "kind" = "overloaded" then
                        shed.(i) <- shed.(i) + 1
                      else errs.(i) <- errs.(i) + 1))
            job_lines;
          Net.Client.close c
    in
    let t0 = Obs.Clock.now_ns () in
    let threads = List.init n (fun i -> Thread.create worker i) in
    List.iter Thread.join threads;
    let sum a = Array.fold_left ( + ) 0 a in
    (Obs.Clock.elapsed_s t0, sum oks, sum cached, sum shed, sum errs)
  in
  let counter name m =
    Option.value ~default:0 (List.assoc_opt name m.Obs.Metrics.counters)
  in
  let latency ~before ~after =
    let d = Obs.Metrics.diff ~before ~after in
    match List.assoc_opt "svc.request.latency_us" d.Obs.Metrics.histograms with
    | Some h ->
        (Obs.Histogram.percentile h 0.5, Obs.Histogram.percentile h 0.99)
    | None -> (0.0, 0.0)
  in
  Printf.printf
    "corpus: %d requests/client (%d distinct keys), %d clients\n" l distinct
    clients;
  (* ---- process #1: cold, then memo-warm ---- *)
  let svc = Svc.Service.create ~config () in
  let server = Net.Server.start svc addr in
  let m0 = Obs.Metrics.snapshot () in
  let cold_s, cold_ok, cold_cached, cold_shed, cold_err =
    run_phase ~n:clients lines
  in
  let m1 = Obs.Metrics.snapshot () in
  let warm_s, warm_ok, warm_cached, warm_shed, warm_err =
    run_phase ~n:clients lines
  in
  let m2 = Obs.Metrics.snapshot () in
  Net.Server.stop server;
  Svc.Service.shutdown svc;
  (* ---- process #2: same store directory, cold memory ---- *)
  let svc2 = Svc.Service.create ~config () in
  let server2 = Net.Server.start svc2 addr in
  let m3 = Obs.Metrics.snapshot () in
  let prime_s, prime_ok, prime_cached, prime_shed, prime_err =
    run_phase ~n:1 base_lines
  in
  let m4 = Obs.Metrics.snapshot () in
  let disk_s, disk_ok, disk_cached, disk_shed, disk_err =
    run_phase ~n:clients lines
  in
  let m5 = Obs.Metrics.snapshot () in
  Net.Server.stop server2;
  Svc.Service.shutdown svc2;
  let store_reads = counter "svc.store.hits" m4 - counter "svc.store.hits" m3 in
  let cold_p50, cold_p99 = latency ~before:m0 ~after:m1 in
  let warm_p50, warm_p99 = latency ~before:m1 ~after:m2 in
  let disk_p50, disk_p99 = latency ~before:m4 ~after:m5 in
  let expect = clients * l in
  let report name s ok cached shed err p50 p99 =
    Printf.printf
      "%-10s %7.3fs  %8.0f req/s  p50/p99 %5.0f/%5.0f us  ok=%d cached=%d \
       shed=%d%s\n"
      name s
      (float_of_int ok /. s)
      p50 p99 ok cached shed
      (if err = 0 then "" else Printf.sprintf "  (%d errors!)" err)
  in
  report "cold" cold_s cold_ok cold_cached cold_shed cold_err cold_p50
    cold_p99;
  report "memo-warm" warm_s warm_ok warm_cached warm_shed warm_err warm_p50
    warm_p99;
  Printf.printf
    "restart    (same --store-dir: %d keys primed from disk in %.3fs, \
     cached=%d shed=%d%s)\n"
    store_reads prime_s prime_cached prime_shed
    (if prime_err = 0 then "" else Printf.sprintf ", %d errors!" prime_err);
  report "disk-warm" disk_s disk_ok disk_cached disk_shed disk_err disk_p50
    disk_p99;
  if cold_ok <> expect || warm_ok <> expect || disk_ok <> expect then
    Printf.printf "WARNING: expected %d ok responses per phase\n" expect;
  let phase name ~seconds ~ok ~shed ~errors ~p50 ~p99 ~counters =
    Pipeline.Json.Obj
      [
        ("program", Pipeline.Json.Str name);
        ( "runs",
          Pipeline.Json.List
            [
              Pipeline.Json.Obj
                [
                  ("threads", Pipeline.Json.Int clients);
                  ("requests", Pipeline.Json.Int ok);
                  ("errors", Pipeline.Json.Int errors);
                  ("seconds", Pipeline.Json.Float seconds);
                  ( "requests_per_s",
                    Pipeline.Json.Float (float_of_int ok /. seconds) );
                  ("latency_p50_us", Pipeline.Json.Float p50);
                  ("latency_p99_us", Pipeline.Json.Float p99);
                  ("shed", Pipeline.Json.Int shed);
                  ( "metrics",
                    Pipeline.Json.Obj
                      [
                        ( "counters",
                          Pipeline.Json.Obj
                            (List.map
                               (fun (k, v) -> (k, Pipeline.Json.Int v))
                               counters) );
                      ] );
                ];
            ] );
      ]
  in
  [
    phase "svc-socket-cold" ~seconds:cold_s ~ok:cold_ok ~shed:cold_shed
      ~errors:cold_err ~p50:cold_p50 ~p99:cold_p99
      ~counters:[ ("responses", cold_ok); ("shed", cold_shed) ];
    phase "svc-socket-warm" ~seconds:warm_s ~ok:warm_ok ~shed:warm_shed
      ~errors:warm_err ~p50:warm_p50 ~p99:warm_p99
      ~counters:
        [
          ("responses", warm_ok);
          ("warm_hits", warm_cached);
          ("shed", warm_shed);
        ];
    phase "svc-socket-disk" ~seconds:disk_s ~ok:(prime_ok + disk_ok)
      ~shed:(prime_shed + disk_shed) ~errors:(prime_err + disk_err)
      ~p50:disk_p50 ~p99:disk_p99
      ~counters:
        [
          ("responses", prime_ok + disk_ok);
          ("disk_warm_hits", prime_cached);
          ("store_reads", store_reads);
          ("warm_hits", disk_cached);
          ("shed", prime_shed + disk_shed);
        ];
  ]

(* ------------------------------------------------------------------ *)
(* E11 — analysis service throughput → BENCH_service.json               *)

(* Cold vs warm cache over a duplicate-heavy corpus, per domain count.
   Timings are recorded as plain fields (they are machine-dependent);
   only the deterministic facts — request count and warm-cache hits —
   go into the gate-checked "metrics"/"counters" block, so a committed
   BENCH_service.json baseline gates cache behavior, not wall time. *)
let service_bench () =
  section "E11 / analysis service: BENCH_service.json (cold vs warm cache)";
  let copies = if quick then 8 else 25 in
  let base =
    [
      ("example1", Loopir.Builtin.example1, [ ("n1", 12); ("n2", 16) ]);
      ("fig2", Loopir.Builtin.fig2, []);
      ("example2", Loopir.Builtin.example2, [ ("n", 16) ]);
      ("example3", Loopir.Builtin.example3, [ ("n", 10) ]);
    ]
  in
  let corpus =
    List.concat
      (List.init copies (fun k ->
           List.map
             (fun (name, prog, params) ->
               Svc.Proto.request
                 ~id:(Printf.sprintf "%s#%d" name k)
                 ~name ~params (Svc.Proto.Prog prog))
             base))
  in
  let n = List.length corpus in
  Printf.printf "corpus: %d requests over %d distinct nests\n" n
    (List.length base);
  Printf.printf
    "domains   cold s  cold req/s    warm s  warm req/s  speedup  warm hits\n";
  let runs =
    List.map
      (fun domains ->
        let config =
          {
            Svc.Service.default_config with
            domains;
            threads = 1;
            check = false;
            cache_capacity = 64;
          }
        in
        (* cold-run isolation: the latency histograms and cache/memo
           counters must reflect only this domain count's passes *)
        Obs.Metrics.reset_all ();
        let svc = Svc.Service.create ~config () in
        let time f =
          let t0 = Obs.Clock.now_ns () in
          let r = f () in
          (Obs.Clock.elapsed_s t0, r)
        in
        let cold_s, cold = time (fun () -> Svc.Service.batch svc corpus) in
        let mid = Svc.Service.cache_stats svc in
        let mid_m = Obs.Metrics.snapshot () in
        let warm_s, warm = time (fun () -> Svc.Service.batch svc corpus) in
        let stop = Svc.Service.cache_stats svc in
        let warm_m =
          Obs.Metrics.diff ~before:mid_m ~after:(Obs.Metrics.snapshot ())
        in
        (* more warm passes with the flight recorder on vs off, to expose
           the always-on telemetry overhead (plain info, not gated); one
           warm pass is ~1ms of mostly pool-wakeup jitter, so amplify to
           a 4x corpus, alternate on/off within each round so machine
           drift hits both arms equally, and take the best of 10 *)
        let big = corpus @ corpus @ corpus @ corpus in
        (* Batch wall time is pool-wakeup-jitter heavy, so a min-of-N
           per arm still swings several percent run to run.  Instead:
           in each round run both arms back to back (order swapped every
           round so neither arm always pays the first-position penalty)
           and keep the round's on/off ratio — adjacent-in-time pairs
           cancel machine drift, and the median over rounds discards the
           jitter tails that a min cannot. *)
        let rounds = 21 in
        let reps = 5 in
        let on_s = ref infinity and off_s = ref infinity in
        let arm cell setup =
          setup ();
          let s =
            fst
              (time (fun () ->
                   for _ = 1 to reps do
                     ignore (Svc.Service.batch svc big)
                   done))
            /. float_of_int reps
          in
          cell := min !cell s;
          s
        in
        let on () = arm on_s (fun () -> Obs.Flight.enable ()) in
        let off () = arm off_s (fun () -> Obs.Flight.disable ()) in
        let ratios =
          List.init rounds (fun i ->
              if i land 1 = 0 then
                let a = on () in
                let b = off () in
                a /. b
              else
                let b = off () in
                let a = on () in
                a /. b)
        in
        let median =
          List.nth (List.sort compare ratios) (rounds / 2)
        in
        let on_s = !on_s and off_s = !off_s in
        Obs.Flight.enable ();
        Svc.Service.shutdown svc;
        let lat_p50, lat_p99 =
          match
            List.assoc_opt "svc.request.latency_us"
              warm_m.Obs.Metrics.histograms
          with
          | Some h ->
              ( Obs.Histogram.percentile h 0.5,
                Obs.Histogram.percentile h 0.99 )
          | None -> (0.0, 0.0)
        in
        let flight_overhead_pct = (median -. 1.0) *. 100.0 in
        let errors =
          List.length
            (List.filter (fun r -> not (Svc.Proto.ok r)) (cold @ warm))
        in
        let warm_hits = stop.Svc.Cache.hits - mid.Svc.Cache.hits in
        Printf.printf
          "   %d     %7.3f  %10.0f   %7.3f  %10.0f   %5.1fx   %d/%d%s\n"
          domains cold_s
          (float_of_int n /. cold_s)
          warm_s
          (float_of_int n /. warm_s)
          (cold_s /. warm_s) warm_hits n
          (if errors = 0 then "" else Printf.sprintf "  (%d errors!)" errors);
        Printf.printf
          "          warm latency p50/p99 = %.0f/%.0f us; flight on/off \
           best: %.0f/%.0f req/s (median overhead %+.1f%%)\n"
          lat_p50 lat_p99
          (float_of_int (4 * n) /. on_s)
          (float_of_int (4 * n) /. off_s)
          flight_overhead_pct;
        Pipeline.Json.Obj
          [
            ("threads", Pipeline.Json.Int domains);
            ("requests", Pipeline.Json.Int n);
            ("errors", Pipeline.Json.Int errors);
            ("cold_seconds", Pipeline.Json.Float cold_s);
            ("warm_seconds", Pipeline.Json.Float warm_s);
            ("warm_latency_p50_us", Pipeline.Json.Float lat_p50);
            ("warm_latency_p99_us", Pipeline.Json.Float lat_p99);
            ("warm_flight_on_seconds", Pipeline.Json.Float on_s);
            ("warm_flight_off_seconds", Pipeline.Json.Float off_s);
            ("flight_overhead_pct", Pipeline.Json.Float flight_overhead_pct);
            ( "cold_requests_per_s",
              Pipeline.Json.Float (float_of_int n /. cold_s) );
            ( "warm_requests_per_s",
              Pipeline.Json.Float (float_of_int n /. warm_s) );
            ("warm_speedup", Pipeline.Json.Float (cold_s /. warm_s));
            ( "metrics",
              Pipeline.Json.Obj
                [
                  ( "counters",
                    Pipeline.Json.Obj
                      [
                        ("requests", Pipeline.Json.Int n);
                        ("warm_hits", Pipeline.Json.Int warm_hits);
                      ] );
                ] );
          ])
      [ 1; 2; 4 ]
  in
  let socket_entries = socket_bench () in
  (* schema v2: the svc-batch entry plus the E15 socket-service entries
     (cold / memo-warm / disk-warm phases as separate programs so the
     gate keys stay unique) *)
  let doc =
    Pipeline.Json.Obj
      [
        ("schema_version", Pipeline.Json.Int 2);
        ( "entries",
          Pipeline.Json.List
            (Pipeline.Json.Obj
               [
                 ("program", Pipeline.Json.Str "svc-batch");
                 ("runs", Pipeline.Json.List runs);
               ]
            :: socket_entries) );
      ]
  in
  let oc = open_out "BENCH_service.json" in
  output_string oc (Pipeline.Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_service.json\n";
  doc

(* ------------------------------------------------------------------ *)
(* E12 — execution → BENCH_exec.json                                     *)

(* The REC schedule of example1 on 1/2/4 domains against the sequential
   interpreter (the report's [seq_seconds]), and the per-barrier idle of
   the chunk policy on the chain-skewed coupled_stretch.  Wall times are
   machine-dependent and stay plain fields; the deterministic facts —
   instance count, semantic equivalence — go under "metrics"/"counters"
   where the gate checks them, together with the P1/P3 idle percentages
   (they RISE when self-scheduling stops absorbing stragglers, which is
   the direction the gate flags).  Each configuration is run [reps] times
   and the fastest execute time (or the median idle) is kept: the
   comparison is about the schedule, not scheduler jitter. *)
let exec_bench () =
  section "E12 / execution: BENCH_exec.json (example1 vs sequential interp)";
  let sc = if quick then 1 else 2 in
  let prog = Loopir.Builtin.example1 in
  let params = [ ("n1", 30 * sc); ("n2", 50 * sc) ] in
  let reps = if quick then 3 else 5 in
  let run_one ~threads =
    let best = ref None in
    for _ = 1 to reps do
      let options = { Pipeline.Driver.default_options with threads } in
      match Pipeline.Driver.run ~options ~name:"example1" ~params prog with
      | Error e ->
          failwith
            (Printf.sprintf "E12 t=%d: %s" threads
               (Pipeline.Driver.error_to_string e))
      | Ok o -> (
          let r = o.Pipeline.Driver.report in
          let s =
            Option.value r.Pipeline.Report.par_seconds ~default:infinity
          in
          match !best with
          | Some (s0, _) when s0 <= s -> ()
          | _ -> best := Some (s, r))
    done;
    match !best with Some (_, r) -> r | None -> assert false
  in
  let runs = List.map (fun t -> (t, run_one ~threads:t)) [ 1; 2; 4 ] in
  let exec_s (r : Pipeline.Report.t) =
    Option.value r.Pipeline.Report.par_seconds ~default:nan
  in
  let seq_s (r : Pipeline.Report.t) =
    Option.value r.Pipeline.Report.seq_seconds ~default:nan
  in
  let phase_alloc (r : Pipeline.Report.t) =
    List.fold_left
      (fun acc (p : Pipeline.Report.phase_profile) ->
        match p.Pipeline.Report.run with
        | Some x -> acc +. x.Pipeline.Report.alloc_words
        | None -> acc)
      0.0 r.Pipeline.Report.phases
  in
  Printf.printf
    "threads  execute s  seq interp s  vs seq  phase alloc words  semantics\n";
  List.iter
    (fun (t, r) ->
      Printf.printf "   %d     %9.6f     %9.6f  %5.2fx  %17.0f  %s\n" t
        (exec_s r) (seq_s r)
        (seq_s r /. exec_s r)
        (phase_alloc r)
        (Pipeline.Report.check_result_string r.Pipeline.Report.semantics))
    runs;
  let example1_entry =
    let open Pipeline in
    Json.Obj
      [
        ("program", Json.Str "example1/compiled");
        ( "params",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) params) );
        ( "runs",
          Json.List
            (List.map
               (fun (t, r) ->
                 Json.Obj
                   [
                     ("threads", Json.Int t);
                     ("exec_seconds", Json.Float (exec_s r));
                     ("seq_seconds", Json.Float (seq_s r));
                     ("speedup_vs_seq", Json.Float (seq_s r /. exec_s r));
                     ( "semantics",
                       Json.Str (Report.check_result_string r.Report.semantics)
                     );
                     ("phase_profile", phase_profile_json r);
                     (* caller-domain allocation share is scheduling
                        dependent under work stealing at t>1, so it is
                        reported as a plain field, not a gated counter *)
                     ("phase_alloc_words", Json.Int (int_of_float (phase_alloc r)));
                     ( "metrics",
                       Json.Obj
                         [
                           ( "counters",
                             Json.Obj
                               [
                                 ( "instances",
                                   Json.Int
                                     (Option.value r.Report.n_instances
                                        ~default:0) );
                                 ( "semantics_ok",
                                   Json.Int
                                     (if
                                        Report.check_result_string
                                          r.Report.semantics
                                        = "ok"
                                      then 1
                                      else 0) );
                               ] );
                         ] );
                   ])
               runs) );
      ]
  in
  (* --- chunk-policy idle on coupled_stretch at t=4 ------------------- *)
  let stretch = List.assoc "coupled_stretch" Loopir.Builtin.corpus in
  let stretch_n = 200_000 in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let p1 = ref [] and p3 = ref [] and walls = ref [] in
  for _ = 1 to reps do
    let options =
      { Pipeline.Driver.default_options with threads = 4; check = false }
    in
    match
      Pipeline.Driver.run ~options ~name:"coupled_stretch"
        ~params:[ ("n", stretch_n) ] stretch
    with
    | Error e ->
        failwith
          (Printf.sprintf "E12 coupled_stretch: %s"
             (Pipeline.Driver.error_to_string e))
    | Ok o ->
        let r = o.Pipeline.Driver.report in
        let idle lbl =
          match
            List.find_opt
              (fun (p : Pipeline.Report.phase_profile) ->
                p.Pipeline.Report.label = lbl)
              r.Pipeline.Report.phases
          with
          | Some { Pipeline.Report.run = Some x; _ } ->
              100.0 *. Pipeline.Report.phase_idle x
          | _ -> 0.0
        in
        p1 := idle "P1" :: !p1;
        p3 := idle "P3" :: !p3;
        walls := Option.value r.Pipeline.Report.par_seconds ~default:nan :: !walls
  done;
  let p1, p3, wall = (median !p1, median !p3, median !walls) in
  Printf.printf
    "coupled_stretch n=%d t=4 (median of %d): idle P1 %.1f%% P3 %.1f%%\n"
    stretch_n reps p1 p3;
  let idle_entry =
    let open Pipeline in
    Json.Obj
      [
        ("program", Json.Str "coupled_stretch/cost");
        ("params", Json.Obj [ ("n", Json.Int stretch_n) ]);
        ( "runs",
          Json.List
            [
              Json.Obj
                [
                  ("threads", Json.Int 4);
                  ("exec_seconds", Json.Float wall);
                  ("p1_idle_pct_median", Json.Float p1);
                  ("p3_idle_pct_median", Json.Float p3);
                  ( "metrics",
                    Json.Obj
                      [
                        ( "counters",
                          Json.Obj
                            [ ("p3_idle_pct", Json.Int (int_of_float p3)) ]
                        );
                      ] );
                ];
            ] );
      ]
  in
  let entries = [ example1_entry; idle_entry ] in
  let doc =
    Pipeline.Json.Obj
      [
        ("schema_version", Pipeline.Json.Int 1);
        ("entries", Pipeline.Json.List entries);
      ]
  in
  let oc = open_out "BENCH_exec.json" in
  output_string oc (Pipeline.Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_exec.json\n";
  doc

(* ------------------------------------------------------------------ *)
(* Regression gate: --baseline FILE [--gate PCT]                        *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The baseline contents are read before [pipeline_json] runs: gating
   against the committed BENCH_pipeline.json must compare with what was
   on disk at startup, not the document this run just wrote over it. *)
let run_gate ~current = function
  | None -> true
  | Some (baseline_path, baseline_text) ->
      let threshold_pct =
        match argv_value "--gate" with
        | Some s -> (
            match float_of_string_opt s with
            | Some p -> p
            | None -> failwith ("--gate: not a number: " ^ s))
        | None -> 25.0
      in
      section
        (Printf.sprintf "regression gate: vs %s at +%g%%" baseline_path
           threshold_pct);
      let verdict =
        match Pipeline.Json.parse baseline_text with
        | Error e -> Error (Printf.sprintf "%s: %s" baseline_path e)
        | Ok baseline ->
            Pipeline.Gate.check ~threshold_pct ~baseline ~current ()
      in
      (match verdict with
      | Error e ->
          Printf.printf "regression gate: ERROR %s\n" e;
          false
      | Ok outcome ->
          print_string (Pipeline.Gate.to_text ~threshold_pct outcome);
          outcome.Pipeline.Gate.regressions = [])

let () =
  Printf.printf "recurrence-chain partitioning — evaluation harness%s\n"
    (if quick then " [--quick]" else " (paper parameters)");
  let baseline =
    Option.map (fun p -> (p, read_file p)) (argv_value "--baseline")
  in
  let service_baseline =
    Option.map (fun p -> (p, read_file p)) (argv_value "--service-baseline")
  in
  let exec_baseline =
    Option.map (fun p -> (p, read_file p)) (argv_value "--exec-baseline")
  in
  fig1 ();
  fig2 ();
  ex1 ();
  ex2 ();
  ex3 ();
  ex4 ();
  fig3 ();
  theorem1 ();
  corpus ();
  ablation ();
  let current = pipeline_json () in
  let service_current = service_bench () in
  let exec_current = exec_bench () in
  let gate_ok = run_gate ~current baseline in
  let service_gate_ok =
    run_gate ~current:service_current service_baseline
  in
  let exec_gate_ok = run_gate ~current:exec_current exec_baseline in
  print_endline "\nall sections completed.";
  if not (gate_ok && service_gate_ok && exec_gate_ok) then exit 1
