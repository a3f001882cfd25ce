(* The traced run's span recorder.

   Spans are timed from the benchmark's own code around calls into the
   program's public functions, appended to an in-memory array, and
   written out once when the run ends, so recording does no I/O while
   the run measures.  Spans of one op share its request id; a span's
   parent is the innermost span open when it started. *)

type span = {
  name : string;
  req : int;
  parent : int;  (** index of the parent span; -1 for a root *)
  mutable start_ns : int64;
  mutable stop_ns : int64;
  reported : bool;
      (** the duration was reported by the program (a response's
          [queue_seconds], [run_timed]'s phase seconds), not timed here *)
}

type t = { mutable spans : span array; mutable n : int; mutable cur : int }

let span ?(reported = false) ~req ~parent name =
  { name; req; parent; start_ns = 0L; stop_ns = 0L; reported }

let create () = { spans = Array.make 4096 (span ~req:0 ~parent:(-1) ""); n = 0; cur = -1 }

let push t s =
  if t.n = Array.length t.spans then begin
    let a = Array.make (2 * t.n) s in
    Array.blit t.spans 0 a 0 t.n;
    t.spans <- a
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

(* Opens a span as a child of the innermost open one; returns its index
   for {!stop}. *)
let start t ~req name =
  let s = span ~req ~parent:t.cur name in
  t.cur <- push t s;
  s.start_ns <- Obs.Clock.now_ns ();
  t.cur

let stop t i =
  let s = t.spans.(i) in
  s.stop_ns <- Obs.Clock.now_ns ();
  t.cur <- s.parent

let with_ t ~req name f =
  let i = start t ~req name in
  Fun.protect ~finally:(fun () -> stop t i) f

(* A child of span [parent] whose duration the program reported.
   Reported children are laid end to end from the parent's start; only
   their durations enter the self-time accounting. *)
let reported t ~parent ~req name ~seconds =
  let start_ns = ref t.spans.(parent).start_ns in
  for i = parent + 1 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent = parent && s.reported then start_ns := s.stop_ns
  done;
  let s = span ~reported:true ~req ~parent name in
  s.start_ns <- !start_ns;
  s.stop_ns <- Int64.add !start_ns (Int64.of_float (seconds *. 1e9));
  ignore (push t s)

let dur_ns s = Int64.sub s.stop_ns s.start_ns

(* Self time of every span: its duration minus its children's. *)
let self_ns t =
  let self = Array.init t.n (fun i -> dur_ns t.spans.(i)) in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then
      self.(s.parent) <- Int64.sub self.(s.parent) (dur_ns s)
  done;
  self

type totals = { count : int; self_s : float; total_s : float }

(* Per span name: occurrences, summed self time and summed duration. *)
let totals t =
  let self = self_ns t in
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let c, sf, tt =
      Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0L, 0L)
    in
    Hashtbl.replace tbl s.name
      (c + 1, Int64.add sf self.(i), Int64.add tt (dur_ns s))
  done;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | None -> { count = 0; self_s = 0.0; total_s = 0.0 }
    | Some (c, sf, tt) ->
        {
          count = c;
          self_s = Int64.to_float sf *. 1e-9;
          total_s = Int64.to_float tt *. 1e-9;
        }

(* One JSON object per span, in recording order. *)
let write t path =
  let self = self_ns t in
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc
      "{\"i\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"self_ns\":%Ld,\"src\":\"%s\"}\n"
      i s.name s.req s.parent s.start_ns s.stop_ns self.(i)
      (if s.reported then "program" else "bench")
  done;
  close_out oc
