(* Survey statistics (DESIGN.md E9): classify a corpus of loop kernels by
   dependence uniformity and coupled subscripts, reproducing the
   methodology behind the paper's introduction statistics (46% of SPECfp95
   nests with non-uniform dependences; 12.8% of coupled subscripts causing
   them).  The corpus here is synthetic, so the percentages are indicative
   of the method, not of SPECfp95.

   The scan goes through the Svc batch front-end: every kernel becomes a
   classify-mode request to the analysis service (domain pool +
   content-addressed result cache), and kernels the analysis cannot handle
   surface as typed Diag error records in the table instead of being
   silently dropped.

   Run with:  dune exec examples/corpus_scan.exe *)

let default_n = 10

(* A reply's survey block (class, coupled), read back from the JSONL
   line the service would send. *)
let survey_of r =
  let module J = Pipeline.Json in
  match J.parse (Svc.Proto.response_to_line r) with
  | Error _ -> None
  | Ok j -> (
      match J.member "survey" j with
      | None -> None
      | Some s -> (
          match (J.member "class" s, J.member "coupled" s) with
          | Some (J.Str cls), Some (J.Bool coupled) -> Some (cls, coupled)
          | _ -> None))

let () =
  let config =
    {
      Svc.Service.default_config with
      domains = 4;
      threads = 1;
      check = false;
    }
  in
  let svc = Svc.Service.create ~config () in
  let requests =
    List.map
      (fun (name, prog) ->
        Svc.Proto.request ~id:name ~name
          ~params:
            (List.map (fun p -> (p, default_n)) prog.Loopir.Ast.params)
          ~mode:Svc.Proto.Classify
          (Svc.Proto.Prog prog))
      Loopir.Builtin.corpus
  in
  let responses = Svc.Service.batch svc requests in
  Svc.Service.shutdown svc;
  Printf.printf "%-22s %-14s %s\n" "kernel" "dependences" "coupled subscripts";
  Printf.printf "%s\n" (String.make 55 '-');
  let surveys =
    List.filter_map
      (fun (r : Svc.Proto.response) ->
        match r.Svc.Proto.body with
        | Svc.Proto.Failed f ->
            Printf.printf "%-22s !%s: %s\n" r.Svc.Proto.id
              (Svc.Proto.failure_kind f)
              (Svc.Proto.failure_message f);
            None
        | Svc.Proto.Done _ | Svc.Proto.Stats _ | Svc.Proto.Healthy _ -> (
            match survey_of r with
            | Some (cls, coupled) ->
                Printf.printf "%-22s %-14s %s\n" r.Svc.Proto.id cls
                  (if coupled then "yes" else "no");
                Some (cls, coupled)
            | None ->
                Printf.printf "%-22s (response carried no survey block)\n"
                  r.Svc.Proto.id;
                None))
      responses
  in
  let total = List.length surveys in
  let errors = List.length responses - total in
  let non_uniform =
    Depend.Distance.class_to_string Depend.Distance.Non_uniform
  in
  let count f = List.length (List.filter f surveys) in
  let nonuni = count (fun (cls, _) -> cls = non_uniform) in
  let coupled = count snd in
  let coupled_nonuni =
    count (fun (cls, coupled) -> coupled && cls = non_uniform)
  in
  Printf.printf "%s\n" (String.make 55 '-');
  if errors > 0 then
    Printf.printf
      "kernels with typed analysis errors : %d/%d (reported above)\n" errors
      (List.length responses);
  Printf.printf "loops with non-uniform dependences : %d/%d (%.0f%%)\n" nonuni
    total
    (100.0 *. float_of_int nonuni /. float_of_int total);
  Printf.printf "loops with coupled subscripts      : %d/%d (%.0f%%)\n" coupled
    total
    (100.0 *. float_of_int coupled /. float_of_int total);
  if coupled > 0 then
    Printf.printf "coupled subscripts → non-uniform   : %d/%d (%.0f%%)\n"
      coupled_nonuni coupled
      (100.0 *. float_of_int coupled_nonuni /. float_of_int coupled);
  print_endline
    "\n(cf. paper introduction: 46% of SPECfp95 nests non-uniform; the\n\
     \ corpus here is synthetic — the methodology is what is reproduced)"
