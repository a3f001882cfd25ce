(* Measures one workload and prints its result as one JSON line.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1
            --threads T --recpart PATH --run-dir DIR [--spans-out FILE]

   run.py builds this and [recpart] and supplies the last four
   arguments; see README.md in this directory. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and threads = ref 2 in
  let recpart = ref "" and run_dir = ref "" and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "exec-paper | serve-miss");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "1 = per-layer run with the span recorder");
      ("--threads", Arg.Set_int threads, "exec-paper domains");
      ("--recpart", Arg.Set_string recpart, "path of recpart.exe");
      ("--run-dir", Arg.Set_string run_dir, "directory for sockets and stores");
      ("--spans-out", Arg.Set_string spans_out, "where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 ...";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace = !trace = 1 and seconds = !seconds and seed = !seed in
  let spans_out = if !spans_out = "" then None else Some !spans_out in
  let o =
    match !workload with
    | "exec-paper" ->
        Exec_paper.run ~threads:!threads ~seconds ~seed ~trace ~spans_out
    | "serve-miss" ->
        Serve.run ~recpart:!recpart ~run_dir:!run_dir ~seconds ~seed ~trace ~spans_out
    | w -> failwith ("unknown workload " ^ w)
  in
  let metric (name, v, unit) =
    let v = if Float.is_finite v then v else 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.eprintf "bench: workload=%s seed=%d attempted=%d failed=%d\n%!" !workload
    seed o.attempted o.failed;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))
