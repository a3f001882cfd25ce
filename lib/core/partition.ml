module Iset = Presburger.Iset
module Solve = Depend.Solve
module Depeq = Depend.Depeq

type rec_plan = {
  simple : Depend.Solve.simple;
  pair : Depend.Depeq.t;
  three : Threeset.t;
}

type concrete_rec = {
  p1_pts : Points.t;
  chains : Chain.t;
  p3_pts : Points.t;
  growth : float;
  theorem_bound : int option;
}

type plan =
  | Rec_chains of rec_plan
  | Dataflow_const
  | Pdm_fallback of string

(* Partition-shape metrics, recorded by both materialization engines so a
   report diff shows |P1|/|P2|/|P3|, the chain count and the chain-length
   distribution of every run. *)
let c_p1 = Obs.Counter.make "partition.p1_points"
let c_p2 = Obs.Counter.make "partition.p2_points"
let c_p3 = Obs.Counter.make "partition.p3_points"
let c_chains = Obs.Counter.make "partition.chains"
let h_chain_len = Obs.Histogram.make "partition.chain_length"

(* Event logs cite the first few chain start points as evidence; the
   full list can be huge, so cap it. *)
let max_cited_starts = 16

let record_concrete (c : concrete_rec) =
  Obs.Counter.add c_p1 (Points.length c.p1_pts);
  Obs.Counter.add c_p3 (Points.length c.p3_pts);
  let n_chains = Chain.n_chains c.chains in
  Obs.Counter.add c_chains n_chains;
  for k = 0 to n_chains - 1 do
    let len = Chain.chain_length c.chains k in
    Obs.Counter.add c_p2 len;
    Obs.Histogram.observe h_chain_len len
  done;
  Obs.Event.emit ~scope:"partition" ~name:"cardinality" (fun () ->
      let starts = ref [] in
      for k = min n_chains max_cited_starts - 1 downto 0 do
        if Chain.chain_length c.chains k > 0 then
          starts := Linalg.Ivec.to_string (Chain.get c.chains k 0) :: !starts
      done;
      [
        ("p1", Obs.Event.Int (Points.length c.p1_pts));
        ("p2", Obs.Event.Int (Chain.total_points c.chains));
        ("p3", Obs.Event.Int (Points.length c.p3_pts));
        ("chains", Obs.Event.Int n_chains);
        ("longest_chain", Obs.Event.Int c.chains.Chain.longest);
        ("growth", Obs.Event.Float c.growth);
        ( "theorem_bound",
          match c.theorem_bound with
          | Some b -> Obs.Event.Int b
          | None -> Obs.Event.Str "unbounded" );
        ( "chain_starts",
          Obs.Event.Str
            (String.concat "; " !starts
            ^ if n_chains > max_cited_starts then "; ..." else "") );
      ]);
  c

let reject_rec why =
  Obs.Event.emit ~scope:"partition" ~name:"choose.reject_rec" (fun () ->
      [ ("why", Obs.Event.Str why) ])

let lemma1 (a : Solve.simple) =
  let reject why =
    reject_rec why;
    Error (Diag.Unsupported why)
  in
  match a.Solve.pair with
  | Some p when Depeq.full_rank p -> (
      match Threeset.compute ~phi:a.Solve.phi ~rd:a.Solve.rd with
      | three ->
          Obs.Event.emit ~scope:"partition" ~name:"choose.rec" (fun () ->
              [
                ("array", Obs.Event.Str p.Depeq.arr);
                ("det_a", Obs.Event.Int (Depeq.det_a p));
                ("det_b", Obs.Event.Int (Depeq.det_b p));
                ( "why",
                  Obs.Event.Str
                    (Printf.sprintf
                       "Lemma 1 preconditions hold: single coupled reference \
                        pair on %s with full-rank A (det %d) and full-rank B \
                        (det %d)"
                       p.Depeq.arr (Depeq.det_a p) (Depeq.det_b p)) );
              ]);
          Ok { simple = a; pair = p; three }
      | exception Presburger.Omega.Blowup m ->
          reject_rec "three-set computation hit a set-algebra blowup";
          Error (Diag.Set_blowup m))
  | Some p ->
      reject
        (Printf.sprintf
           "coupled pair coefficient matrices are not full rank (det A = %d, \
            det B = %d)"
           (Depeq.det_a p) (Depeq.det_b p))
  | None -> reject "no single coupled reference pair"

let choose prog =
  let rec_plan =
    match Solve.analyze_simple prog with
    | a ->
        (* A failed gate (a blowup included) degrades to the dataflow and
           PDM branches rather than failing. *)
        Result.to_option (lemma1 a)
    | exception Invalid_argument msg ->
        reject_rec ("program outside the single-statement fast path: " ^ msg);
        None
    | exception Depend.Space.Unsupported msg ->
        reject_rec ("unsupported loop structure: " ^ msg);
        None
    | exception Presburger.Omega.Blowup _ ->
        reject_rec "dependence analysis hit a set-algebra blowup";
        None
  in
  match rec_plan with
  | Some rp -> Rec_chains rp
  | None ->
      if prog.Loopir.Ast.params = [] then begin
        Obs.Event.emit ~scope:"partition" ~name:"choose.dataflow" (fun () ->
            [
              ( "why",
                Obs.Event.Str
                  "constant loop bounds: concrete dataflow partitioning \
                   applies" );
            ]);
        Dataflow_const
      end
      else begin
        let why = "multiple coupled subscripts with symbolic loop bounds" in
        Obs.Event.emit ~scope:"partition" ~name:"choose.pdm" (fun () ->
            [ ("why", Obs.Event.Str why) ]);
        Pdm_fallback why
      end

(* Shared front half of both materialization engines: the parameter arity
   check, the name→value environment over [simple.params], and the
   concrete recurrence (Singular_recurrence when the pair's coefficient
   matrix is not invertible at these parameters). *)
let bind_recurrence rp ~params =
  let np = Array.length rp.simple.Solve.params in
  if Array.length params <> np then
    Diag.fail (Diag.Param_arity { expected = np; got = Array.length params });
  let param_env name =
    let rec find k =
      if k = np then Diag.fail (Diag.Unbound_parameter name)
      else if rp.simple.Solve.params.(k) = name then params.(k)
      else find (k + 1)
    in
    find 0
  in
  let rec_ =
    match Recurrence.of_pair rp.pair ~params:param_env with
    | Some r -> r
    | None ->
        Diag.fail (Diag.Singular_recurrence "coefficient matrix not invertible")
  in
  (param_env, rec_)

let iter_dim rp = Loopir.Prog.depth rp.simple.Solve.stmt

let materialize_rec rp ~params =
  let _, rec_ = bind_recurrence rp ~params in
  let chains =
    Chain.decompose ~three:rp.three ~rec_ ~phi:rp.simple.Solve.phi ~params
  in
  let dim = iter_dim rp in
  let p1_pts =
    Points.of_list ~dim (Iset.points (Iset.bind_params rp.three.Threeset.p1 params))
  in
  let p3_pts =
    Points.of_list ~dim (Iset.points (Iset.bind_params rp.three.Threeset.p3 params))
  in
  let growth = Recurrence.growth rec_ in
  let diameter = Theorem.diameter rp.simple.Solve.phi ~params in
  let theorem_bound = Theorem.bound ~growth ~diameter in
  record_concrete { p1_pts; chains; p3_pts; growth; theorem_bound }

let materialize_rec_scan rp ~params =
  let _, rec_ = bind_recurrence rp ~params in
  let pts = Iset.points (Iset.bind_params rp.simple.Solve.phi params) in
  let dim = iter_dim rp in
  let p1 = Points.Builder.create ~dim
  and p3 = Points.Builder.create ~dim
  and w = Points.Builder.create ~dim in
  let n_p2 = ref 0 in
  let lo = ref None and hi = ref None in
  List.iter
    (fun x ->
      (match !lo with
      | None ->
          lo := Some (Array.copy x);
          hi := Some (Array.copy x)
      | Some l ->
          let h = Option.get !hi in
          Array.iteri
            (fun k v ->
              if v < l.(k) then l.(k) <- v;
              if v > h.(k) then h.(k) <- v)
            x);
      match Threeset.classify_point rp.three ~params x with
      | `P1 -> Points.Builder.add p1 x
      | `P3 -> Points.Builder.add p3 x
      | `P2 ->
          incr n_p2;
          if Iset.mem rp.three.Threeset.w (Array.append x params) then
            Points.Builder.add w x
      | `Outside ->
          Diag.fail
            (Diag.Outside_partition (Linalg.Ivec.to_string x)))
    pts;
  let in_phi x = Iset.mem rp.simple.Solve.phi (Array.append x params) in
  let in_p2 x =
    Iset.mem rp.three.Threeset.p2 (Array.append x params)
  in
  let cb = Chain.Builder.create ~dim in
  (* Same cycle/intersection guard as Chain.decompose: a successor map
     with a cycle inside P2 (possible for degenerate coupled pairs, e.g.
     an involution) would otherwise walk forever. *)
  let seen : (int array, unit) Hashtbl.t = Hashtbl.create 64 in
  Points.iter
    (fun start ->
      let rec walkc x =
        if Hashtbl.mem seen x then
          Diag.fail (Diag.Lemma1_violation "chains intersect");
        Hashtbl.add seen x ();
        Chain.Builder.add_point cb x;
        match Recurrence.successor rec_ ~in_phi x with
        | Some y when in_p2 y -> walkc y
        | Some _ | None -> ()
      in
      walkc start;
      Chain.Builder.end_chain cb)
    (Points.Builder.finish w);
  let chains = Chain.Builder.finish cb in
  let covered = Chain.total_points chains in
  if covered <> !n_p2 then
    Diag.fail (Diag.Chain_cover { covered; expected = !n_p2 });
  let growth = Recurrence.growth rec_ in
  let diameter =
    match (!lo, !hi) with
    | Some l, Some h ->
        let acc = ref 0.0 in
        Array.iteri
          (fun k v ->
            let d = float_of_int (h.(k) - v) in
            acc := !acc +. (d *. d))
          l;
        sqrt !acc
    | _ -> 0.0
  in
  record_concrete
    {
      p1_pts = Points.Builder.finish p1;
      chains;
      p3_pts = Points.Builder.finish p3;
      growth;
      theorem_bound = Theorem.bound ~growth ~diameter;
    }

let materialize rp ~params =
  match materialize_rec_scan rp ~params with
  | c -> Ok c
  | exception Diag.Error e -> Error e
  | exception Presburger.Omega.Blowup m -> Error (Diag.Set_blowup m)

let rec_points_in_order c =
  Points.to_list c.p1_pts
  @ List.concat (Chain.to_lists c.chains)
  @ Points.to_list c.p3_pts
