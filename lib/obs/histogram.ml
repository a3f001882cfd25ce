let n_buckets = 63

type snap = { count : int; sum : int; buckets : (int * int) list }

type t = {
  name : string;
  sum : int Atomic.t;
  buckets : int Atomic.t array;  (* bucket k: 2^(k-1) < v <= 2^k *)
}

let registry : t list Atomic.t = Atomic.make []

let make name =
  let rec go () =
    let seen = Atomic.get registry in
    match List.find_opt (fun h -> h.name = name) seen with
    | Some h -> h
    | None ->
        let h =
          {
            name;
            sum = Atomic.make 0;
            buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
          }
        in
        if Atomic.compare_and_set registry seen (h :: seen) then h else go ()
  in
  go ()

let bucket_of v =
  if v <= 1 then 0
  else
    (* index of the highest set bit of v-1, plus one: 2^(k-1) < v <= 2^k *)
    let rec go k x = if x = 0 then k else go (k + 1) (x lsr 1) in
    min (n_buckets - 1) (go 0 (v - 1))

(* Negative samples are clamped to 0 *before* anything records, so sum
   and the bucket see the same value. *)
let observe t v =
  let v = if v < 0 then 0 else v in
  ignore (Atomic.fetch_and_add t.sum v);
  ignore (Atomic.fetch_and_add t.buckets.(bucket_of v) 1)

(* The count is the bucket total, so a snapshot's count and buckets agree
   even when other domains observe during the read; only [sum] may lead
   or trail them by the samples in flight. *)
let snap t : snap =
  let sum = Atomic.get t.sum in
  let count = ref 0 and buckets = ref [] in
  for k = n_buckets - 1 downto 0 do
    let n = Atomic.get t.buckets.(k) in
    if n > 0 then begin
      count := !count + n;
      buckets := (1 lsl k, n) :: !buckets
    end
  done;
  { count = !count; sum; buckets = !buckets }

(* Quantile estimate from the power-of-two buckets: find the bucket
   holding the q-th sample and interpolate linearly inside its
   (lower, upper] range.  The estimate is always inside the true sample's
   bucket, so the worst-case error is the bucket width (a factor of 2).
   [count] is the bucket total, so the walk ends inside a bucket unless
   there are none. *)
let percentile (s : snap) q =
  let q = Float.max 0.0 (Float.min 1.0 q) in
  let target = q *. float_of_int s.count in
  let rec go cum = function
    | [] -> 0.0
    | (ub, n) :: rest ->
        let cum' = cum + n in
        if float_of_int cum' >= target then
          let lo = if ub <= 1 then 0.0 else float_of_int (ub / 2) in
          let frac = (target -. float_of_int cum) /. float_of_int n in
          lo +. (frac *. (float_of_int ub -. lo))
        else go cum' rest
  in
  go 0 s.buckets

let snapshot () =
  Atomic.get registry
  |> List.map (fun h -> (h.name, snap h))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_all () =
  List.iter
    (fun h ->
      Atomic.set h.sum 0;
      Array.iter (fun b -> Atomic.set b 0) h.buckets)
    (Atomic.get registry)
