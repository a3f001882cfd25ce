(* Helpers shared by the workloads. *)

let now = Obs.Clock.now_ns
let elapsed = Obs.Clock.elapsed_s

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Diag.to_string e)

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      find ())

(* A seeded permutation of [0 .. n-1]. *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A measured workload's result: ops checked, checks failed, and its
   metrics as (name, value, unit). *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let ms s = s *. 1e3

(* Tracing overhead, from ops of one run measured alternately with and
   without the span recorder: per kind, the median of each side;
   across kinds, geometric means, so every kind weighs the same however
   the kinds fell between the two sides. *)
let overhead_metrics ~untraced ~traced =
  let both =
    List.filter
      (fun (u, t) -> u.Stats.len > 0 && t.Stats.len > 0)
      (List.combine (Array.to_list untraced) (Array.to_list traced))
  in
  let side f =
    Stats.geomean (Array.of_list (List.map (fun p -> Stats.median (Stats.contents (f p))) both))
  in
  let u = side fst and t = side snd in
  [
    ("trace.untraced_geomean_ms", ms u, "ms");
    ("trace.traced_geomean_ms", ms t, "ms");
    ("trace.overhead_pct", (if u > 0.0 then 100.0 *. ((t /. u) -. 1.0) else 0.0), "%");
  ]

(* The counter [name] in a Metrics diff. *)
let counter m name =
  Option.value ~default:0 (List.assoc_opt name m.Obs.Metrics.counters)

let histogram m name = List.assoc_opt name m.Obs.Metrics.histograms

(* Presburger-layer work of an analysis: omega calls and memo hits and
   misses, from a Metrics diff. *)
let presburger_counts m =
  let sum pred =
    List.fold_left
      (fun acc (k, v) -> if pred k then acc + v else acc)
      0 m.Obs.Metrics.counters
  in
  let memo suffix k =
    String.starts_with ~prefix:"presburger.memo." k
    && String.ends_with ~suffix k
  in
  ( sum (fun k ->
        String.starts_with ~prefix:"omega." k
        && String.ends_with ~suffix:"_calls" k),
    sum (memo ".hits"),
    sum (memo ".misses") )
