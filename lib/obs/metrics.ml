type t = {
  counters : (string * int) list;
  histograms : (string * Histogram.snap) list;
}

let snapshot () =
  { counters = Counter.snapshot (); histograms = Histogram.snapshot () }

let cons_opt k v rest = match v with Some v -> (k, v) :: rest | None -> rest

(* [after] minus [before], both sorted by key, in one merge pass: [f
   x (Some x0)] for a key on both sides, [f x None] for one only in
   [after]; a key only in [before] is dropped.  [None] results are left
   out. *)
let rec merge_sub cmp f after before =
  match (after, before) with
  | [], _ -> []
  | (k, x) :: rest, [] -> cons_opt k (f x None) (merge_sub cmp f rest [])
  | (k, x) :: rest, (k0, x0) :: rest0 ->
      let c = cmp k k0 in
      if c < 0 then cons_opt k (f x None) (merge_sub cmp f rest before)
      else if c > 0 then merge_sub cmp f after rest0
      else cons_opt k (f x (Some x0)) (merge_sub cmp f rest rest0)

let diff ~before ~after =
  let counters =
    merge_sub String.compare
      (fun v v0 ->
        let d = v - Option.value ~default:0 v0 in
        if d = 0 then None else Some d)
      after.counters before.counters
  in
  let hist_diff (a : Histogram.snap) (b : Histogram.snap) : Histogram.snap =
    {
      Histogram.count = a.Histogram.count - b.Histogram.count;
      sum = a.Histogram.sum - b.Histogram.sum;
      buckets =
        merge_sub Int.compare
          (fun n n0 ->
            let d = n - Option.value ~default:0 n0 in
            if d = 0 then None else Some d)
          a.Histogram.buckets b.Histogram.buckets;
    }
  in
  let histograms =
    merge_sub String.compare
      (fun h h0 ->
        let d = match h0 with Some h0 -> hist_diff h h0 | None -> h in
        if d.Histogram.count = 0 then None else Some d)
      after.histograms before.histograms
  in
  { counters; histograms }

let merge a b =
  let assoc0 k l = Option.value ~default:0 (List.assoc_opt k l) in
  let counters =
    List.sort_uniq compare (List.map fst a.counters @ List.map fst b.counters)
    |> List.filter_map (fun n ->
           match assoc0 n a.counters + assoc0 n b.counters with
           | 0 -> None
           | v -> Some (n, v))
  in
  let hist_merge (x : Histogram.snap) (y : Histogram.snap) : Histogram.snap =
    let ubs =
      List.sort_uniq compare (List.map fst x.buckets @ List.map fst y.buckets)
    in
    {
      Histogram.count = x.Histogram.count + y.Histogram.count;
      sum = x.Histogram.sum + y.Histogram.sum;
      buckets =
        List.map
          (fun ub -> (ub, assoc0 ub x.buckets + assoc0 ub y.buckets))
          ubs;
    }
  in
  let empty : Histogram.snap = { Histogram.count = 0; sum = 0; buckets = [] } in
  let histograms =
    List.sort_uniq compare
      (List.map fst a.histograms @ List.map fst b.histograms)
    |> List.filter_map (fun n ->
           let ha = Option.value ~default:empty (List.assoc_opt n a.histograms) in
           let hb = Option.value ~default:empty (List.assoc_opt n b.histograms) in
           let h = hist_merge ha hb in
           if h.Histogram.count = 0 then None else Some (n, h))
  in
  { counters; histograms }

let reset_all () =
  Counter.reset_all ();
  Histogram.reset_all ()

let filter pred t =
  {
    counters = List.filter (fun (name, _) -> pred name) t.counters;
    histograms = List.filter (fun (name, _) -> pred name) t.histograms;
  }

let is_empty t = t.counters = [] && t.histograms = []
