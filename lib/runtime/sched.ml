(* Instance [k] of a phase occupies [data.(k·width) … data.(k·width +
   width - 1)]: its statement, then its iteration vector, zero-padded. *)
type phase = {
  label : string;
  size : int;  (** instances *)
  width : int;  (** ints per instance: 1 + the phase's longest vector *)
  data : int array;
  starts : int array;
      (** task phase: [n_tasks + 1] task starts, the last one [size];
          DOALL: [[||]] *)
}

type t = {
  phases : phase array;
  arity : int array;  (** per statement id; -1 when no instance runs *)
}

type 'a group = Doall of 'a list | Tasks of 'a list list

let n_phases s = Array.length s.phases
let phase s k = s.phases.(k)
let phase_list s = Array.to_list s.phases
let n_instances s = Array.fold_left (fun acc p -> acc + p.size) 0 s.phases
let arity s stmt = if stmt < Array.length s.arity then s.arity.(stmt) else -1
let phase_label p = p.label
let phase_size p = p.size
let is_doall p = Array.length p.starts = 0
let n_tasks p = max 0 (Array.length p.starts - 1)
let task_start p u = p.starts.(u)
let task_length p u = p.starts.(u + 1) - p.starts.(u)
let[@inline] stmt p k = p.data.(k * p.width)
let[@inline] data p = p.data
let[@inline] coords p k = (k * p.width) + 1
let[@inline] width p = p.width
let iter s p k = Array.sub p.data (coords p k) (arity s (stmt p k))

let check_arity s ~depths =
  Array.iteri
    (fun stmt a ->
      if a >= 0 then
        if stmt >= Array.length depths then
          failwith
            (Printf.sprintf "Sched: statement S%d is not in the program" stmt)
        else if a <> depths.(stmt) then
          failwith
            (Printf.sprintf
               "Sched: statement S%d is %d loops deep, its instances have %d \
                indices"
               stmt depths.(stmt) a))
    s.arity

(* ---- building --------------------------------------------------------- *)

(* The statement arities a builder has seen, grown on demand. *)
type arities = { mutable ar : int array }

let note ars stmt len =
  if stmt < 0 then invalid_arg "Sched: negative statement id";
  if stmt >= Array.length ars.ar then begin
    let ar = Array.make (max (stmt + 1) (2 * Array.length ars.ar)) (-1) in
    Array.blit ars.ar 0 ar 0 (Array.length ars.ar);
    ars.ar <- ar
  end;
  match ars.ar.(stmt) with
  | -1 -> ars.ar.(stmt) <- len
  | a when a = len -> ()
  | a ->
      invalid_arg
        (Printf.sprintf "Sched: statement S%d has vectors of lengths %d and %d"
           stmt a len)

(* [len] ints of [src] from [so] into [dst] from [o]: a loop, since a
   vector is a few ints and [Array.blit] is a C call. *)
let copy src so dst o len =
  for j = 0 to len - 1 do
    dst.(o + j) <- src.(so + j)
  done

(* The phase of [size] instances of vectors at most [len] long whose
   instance [k] is written by [fill data k o]: the statement at [o], the
   vector from [o + 1].  [starts] as in [phase]. *)
let make label ~len ~starts size fill =
  let width = len + 1 in
  let data = Array.make (size * width) 0 in
  for k = 0 to size - 1 do
    fill data k (k * width)
  done;
  { label; size; width; data; starts }

(* Past 256 elements, an array made from a fresh first element
   ([Array.of_list], [Array.init], [Array.map]) makes OCaml empty the
   minor heap before it fills the array; this constant is static data,
   never in the minor heap, and the phase array is filled in place. *)
let no_phase = { label = ""; size = 0; width = 1; data = [||]; starts = [||] }

let finish ars phases =
  let phases = List.filter (fun p -> p.size > 0) phases in
  let a = Array.make (List.length phases) no_phase in
  List.iteri (fun k p -> a.(k) <- p) phases;
  let n = ref 0 in
  Array.iteri (fun s a -> if a >= 0 then n := s + 1) ars.ar;
  { phases = a; arity = Array.sub ars.ar 0 !n }

(* The phase of [group], whose instances [stmt_of] and [vec_of] read. *)
let group_phase ars ~stmt_of ~vec_of (label, group) =
  let lists, starts =
    match group with
    | Doall l -> ([ l ], [||])
    | Tasks ls ->
        let starts = Array.make (List.length ls + 1) 0 in
        List.iteri (fun u l -> starts.(u + 1) <- starts.(u) + List.length l) ls;
        (ls, starts)
  in
  let size = ref 0 and len = ref 0 in
  List.iter
    (List.iter (fun i ->
         let l = Array.length (vec_of i) in
         note ars (stmt_of i) l;
         incr size;
         len := max !len l))
    lists;
  let width = !len + 1 in
  let data = Array.make (!size * width) 0 and o = ref 0 in
  List.iter
    (List.iter (fun i ->
         let v = vec_of i in
         data.(!o) <- stmt_of i;
         copy v 0 data (!o + 1) (Array.length v);
         o := !o + width))
    lists;
  { label; size = !size; width; data; starts }

let of_list groups =
  let ars = { ar = [||] } in
  finish ars (List.map (group_phase ars ~stmt_of:fst ~vec_of:snd) groups)

let of_stmt_groups ~stmt groups =
  let ars = { ar = [||] } in
  finish ars
    (List.map (group_phase ars ~stmt_of:(fun _ -> stmt) ~vec_of:Fun.id) groups)

(* A phase of trace instances [ids], in order. *)
let trace_phase ars (tr : Depend.Trace.t) label ~starts ids =
  let insts = tr.Depend.Trace.instances in
  let len =
    Array.fold_left
      (fun m id ->
        let i = insts.(id) in
        note ars i.Depend.Trace.stmt (Array.length i.Depend.Trace.iter);
        max m (Array.length i.Depend.Trace.iter))
      0 ids
  in
  make label ~len ~starts (Array.length ids) (fun data k o ->
      let i = insts.(ids.(k)) in
      let v = i.Depend.Trace.iter in
      data.(o) <- i.Depend.Trace.stmt;
      copy v 0 data (o + 1) (Array.length v))

let sequential_of_trace (tr : Depend.Trace.t) =
  let ars = { ar = [||] } in
  let n = Array.length tr.Depend.Trace.instances in
  finish ars
    [
      trace_phase ars tr "sequential" ~starts:[| 0; n |] (Array.init n Fun.id);
    ]

let of_trace_doalls tr groups =
  let ars = { ar = [||] } in
  finish ars
    (List.map
       (fun (label, ids) ->
         trace_phase ars tr label ~starts:[||] (Array.of_list ids))
       groups)

let of_fronts (c : Core.Dataflow.concrete) =
  of_trace_doalls c.Core.Dataflow.trace
    (List.mapi
       (fun k nodes -> (Printf.sprintf "front-%d" (k + 1), nodes))
       (Array.to_list c.Core.Dataflow.fronts))

let of_rec ~stmt (c : Core.Partition.concrete_rec) =
  let ars = { ar = [||] } in
  let doall label pts =
    let dim = Core.Points.dim pts in
    if Core.Points.length pts > 0 then note ars stmt dim;
    make label ~len:dim ~starts:[||] (Core.Points.length pts) (fun data k o ->
        data.(o) <- stmt;
        Core.Points.blit pts k data (o + 1))
  in
  let ch = c.Core.Partition.chains in
  let dim = ch.Core.Chain.dim in
  if Core.Chain.total_points ch > 0 then note ars stmt dim;
  (* Task index = chain id: chunk ids in spans and straggler tables name
     the paper's chains directly. *)
  let chains =
    make "P2-chains" ~len:dim ~starts:(Array.copy ch.Core.Chain.offsets)
      (Core.Chain.total_points ch) (fun data k o ->
        data.(o) <- stmt;
        copy ch.Core.Chain.data (k * dim) data (o + 1) dim)
  in
  finish ars
    [
      doall "P1" c.Core.Partition.p1_pts;
      chains;
      doall "P3" c.Core.Partition.p3_pts;
    ]

(* ---- legality --------------------------------------------------------- *)

(* The trace's instances by (statement, vector), in an open-addressing
   table of instance ids.  A key is hashed from the ints it is made of,
   so a scheduled instance is looked up in place in its phase array.
   The ints before the last are read as digits of a large odd radix,
   with the last one's block of 8; the slot is the top [bits] bits of
   that sum times an odd constant, plus the last int's place in its
   block.  So the points of one loop row fill runs of at most 8
   consecutive slots, scattered over the table: under linear probing,
   longer runs of rows that overlap would merge into clusters every
   later lookup must walk, and scattering every point alone would make
   a lookup in execution order miss the cache on each slot. *)
let hash_ints ~bits stmt a off len =
  let h = ref stmt and last = if len = 0 then 0 else a.(off + len - 1) in
  for j = off to off + len - 2 do
    h := (!h * 1_000_003) + a.(j)
  done;
  h := (!h * 1_000_003) + (last asr 3);
  (((!h * 0x1E3779B97F4A7C15) lsr (63 - bits)) + (last land 7))
  land ((1 lsl bits) - 1)

type ids = {
  slots : int array;  (** trace ids, -1 for an empty slot *)
  bits : int;  (** the slot count is [2^bits] *)
  trace : phase;
      (** the trace as one phase, instance [id] at index [id]: a lookup
          compares ints in one array, in trace order *)
  arity : int array;  (** the trace's vector length per statement *)
}

let ids_of (tr : Depend.Trace.t) =
  let n = Array.length tr.Depend.Trace.instances in
  let ars = { ar = [||] } in
  let trace = trace_phase ars tr "trace" ~starts:[||] (Array.init n Fun.id) in
  let bits = ref 4 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let bits = !bits in
  let slots = Array.make (1 lsl bits) (-1) and mask = (1 lsl bits) - 1 in
  for id = 0 to n - 1 do
    let st = stmt trace id in
    let h = ref (hash_ints ~bits st trace.data (coords trace id) ars.ar.(st)) in
    while slots.(!h) >= 0 do
      h := (!h + 1) land mask
    done;
    slots.(!h) <- id
  done;
  { slots; bits; trace; arity = ars.ar }

let rec same v vo a off len j =
  j = len || (v.(vo + j) = a.(off + j) && same v vo a off len (j + 1))

(* The id of the trace instance of [st] whose vector is [a.(off) …
   a.(off + len - 1)], or -1, probing from slot [h]; allocates nothing. *)
let rec probe t st a off len h =
  let id = t.slots.(h) in
  if id < 0 then -1
  else if
    stmt t.trace id = st
    && t.arity.(st) = len
    && same t.trace.data (coords t.trace id) a off len 0
  then id
  else probe t st a off len ((h + 1) land (Array.length t.slots - 1))

let find_id t st a off len =
  probe t st a off len (hash_ints ~bits:t.bits st a off len)

let show s p k =
  Printf.sprintf "S%d%s" (stmt p k) (Linalg.Ivec.to_string (iter s p k))

let check_legal s (tr : Depend.Trace.t) =
  (* Each scheduled instance's position (phase, task, index-in-task) is
     recorded by trace id; DOALL instances get distinct task ids so only
     phase order counts.  Scheduled instances the trace lacks are
     counted, and the first of them is kept for the report. *)
  let n = Array.length tr.Depend.Trace.instances in
  let ids = ids_of tr in
  let phase_of = Array.make n (-1) and task_of = Array.make n 0
  and index_of = Array.make n 0 in
  let extra = Hashtbl.create 8 in
  let placed = ref 0 and dup = ref None and foreign = ref None in
  let place pi p k ti idx =
    let st = stmt p k and o = coords p k in
    let len = arity s st in
    match find_id ids st p.data o len with
    | -1 ->
        let key = (st, Array.sub p.data o len) in
        if Hashtbl.mem extra key then dup := Some (p, k)
        else begin
          if Option.is_none !foreign then foreign := Some (p, k);
          Hashtbl.add extra key ()
        end
    | id ->
        if phase_of.(id) >= 0 then dup := Some (p, k)
        else begin
          phase_of.(id) <- pi;
          task_of.(id) <- ti;
          index_of.(id) <- idx;
          incr placed
        end
  in
  Array.iteri
    (fun pi p ->
      if is_doall p then
        for k = 0 to p.size - 1 do
          place pi p k k 0
        done
      else
        for u = 0 to n_tasks p - 1 do
          let lo = task_start p u in
          for k = lo to lo + task_length p u - 1 do
            place pi p k u (k - lo)
          done
        done)
    s.phases;
  match !dup with
  | Some (p, k) ->
      Error (Printf.sprintf "instance %s scheduled twice" (show s p k))
  | None -> (
      let scheduled = !placed + Hashtbl.length extra in
      match !foreign with
      | _ when scheduled <> n ->
          Error
            (Printf.sprintf "schedule has %d instances, trace has %d"
               scheduled n)
      (* As many instances as the trace, one of them swapped for an
         instance the trace lacks. *)
      | Some (p, k) ->
          Error (Printf.sprintf "instance %s is not in the trace" (show s p k))
      | None ->
          (* Every trace instance is placed.  The first edge, in trace
             order, that the schedule breaks. *)
          let src = tr.Depend.Trace.edge_src
          and dst = tr.Depend.Trace.edge_dst in
          let rec check e =
            if e = Array.length src then Ok ()
            else
              let a = src.(e) and b = dst.(e) in
              let pa = phase_of.(a) and pb = phase_of.(b) in
              let ta = task_of.(a) and ka = index_of.(a)
              and tb = task_of.(b) and kb = index_of.(b) in
              if pa < pb || (pa = pb && ta = tb && ka < kb) then check (e + 1)
              else
                Error
                  (Printf.sprintf
                     "dependence %d→%d not respected (phase %d task %d idx \
                      %d vs phase %d task %d idx %d)"
                     a b pa ta ka pb tb kb)
          in
          check 0)
