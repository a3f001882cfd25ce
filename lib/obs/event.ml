type value = Bool of bool | Int of int | Float of float | Str of string

type severity = Debug | Info | Warn

let severity_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn"

type event = {
  scope : string;
  name : string;
  severity : severity;
  fields : (string * value) list;
  tid : int;
  t_ns : int64;
  seq : int;
  dur_ns : int64;
  depth : int;
  span : bool;
}

(* One cell per (log, domain), held by the log alone: only the owning
   domain mutates [recorded], so appends need no synchronization; a
   domain finds its cell by its (never reused) domain id and registers a
   new one with a CAS loop; domain termination is a memory barrier
   (Domain.join), so the reader sees complete cells.  Nothing outside the
   log references a cell, so a dropped log's records are garbage.  The
   per-log [seq] counter is the one shared atomic, taken by decision
   events only — event volume is a few per pipeline stage, so contention
   is irrelevant, and it buys a total emission order that per-domain
   timestamps alone cannot.  Spans need no sequence: they order by start
   time. *)
type cell = { owner : int; mutable recorded : event list }

type rec_log = { cells : cell list Atomic.t; seq : int Atomic.t }

type t = Null | Rec of rec_log

let null = Null
let make () = Rec { cells = Atomic.make []; seq = Atomic.make 0 }
let enabled = function Null -> false | Rec _ -> true

let my_cell l =
  let me = (Domain.self () :> int) in
  match List.find_opt (fun c -> c.owner = me) (Atomic.get l.cells) with
  | Some c -> c
  | None ->
      let c = { owner = me; recorded = [] } in
      let rec register () =
        let seen = Atomic.get l.cells in
        if not (Atomic.compare_and_set l.cells seen (c :: seen)) then
          register ()
      in
      register ();
      c

let record t e =
  match t with
  | Null -> ()
  | Rec l ->
      let c = my_cell l in
      c.recorded <- e :: c.recorded

let ambient_log = Atomic.make Null
let ambient () = Atomic.get ambient_log

let with_ambient t f =
  let prev = Atomic.get ambient_log in
  Atomic.set ambient_log t;
  Fun.protect ~finally:(fun () -> Atomic.set ambient_log prev) f

let value_to_string = function
  | Bool b -> if b then "true" else "false"
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.9g" f
  | Str s -> s

let emit ?log ?(severity = Info) ~scope ~name fields =
  let log = match log with Some l -> l | None -> Atomic.get ambient_log in
  (* The always-on flight ring keeps Info and above (every span is kept
     too, by Span itself).  Debug events are breadcrumbs for attached
     event logs, so with no log wired they cost one branch — hot paths
     can afford them. *)
  let flight_on = Flight.enabled () && severity <> Debug in
  match log with
  | Null when not flight_on -> ()
  | _ ->
      (* Request attribution: an event emitted while an Obs.Ctx is
         installed gains a ("req", trace-id) field. *)
      let req = Ctx.current_id () in
      let fs = fields () in
      let tid = (Domain.self () :> int) in
      let t_ns = Clock.now_ns () in
      (match log with
      | Null -> ()
      | Rec l ->
          record log
            {
              scope;
              name;
              severity;
              fields =
                (match req with
                | Some id -> fs @ [ ("req", Str id) ]
                | None -> fs);
              tid;
              t_ns;
              seq = Atomic.fetch_and_add l.seq 1;
              dur_ns = 0L;
              depth = 0;
              span = false;
            });
      if flight_on then
        (* The flight entry carries the request id in its own [req]
           field, so the detail list is the fields as given — no append
           on the always-on path. *)
        Flight.record
          {
            Flight.kind = "event";
            scope;
            name;
            req = Option.value req ~default:"";
            tid;
            t_ns;
            dur_ns = 0L;
            detail = List.map (fun (k, v) -> (k, value_to_string v)) fs;
          }

let recorded ~span = function
  | Null -> []
  | Rec l ->
      List.concat_map
        (fun c -> List.filter (fun (e : event) -> e.span = span) c.recorded)
        (Atomic.get l.cells)

let events t =
  List.sort (fun (a : event) (b : event) -> compare a.seq b.seq)
    (recorded ~span:false t)

let spans t =
  List.sort
    (fun (a : event) (b : event) ->
      match Int64.compare a.t_ns b.t_ns with
      | 0 -> compare (a.depth, a.tid) (b.depth, b.tid)
      | c -> c)
    (recorded ~span:true t)

let clear = function
  | Null -> ()
  | Rec l -> List.iter (fun c -> c.recorded <- []) (Atomic.get l.cells)

(* ---- JSONL ----------------------------------------------------------- *)

let emit_value buf = function
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_finite f then Printf.bprintf buf "%.9g" f
      else Buffer.add_string buf "null"
  | Str s -> Jsonw.escape buf s

let to_jsonl t =
  let evs = events t in
  let t0 =
    List.fold_left
      (fun acc e -> match acc with None -> Some e.t_ns | Some v -> Some (min v e.t_ns))
      None evs
    |> Option.value ~default:0L
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (e : event) ->
      Printf.bprintf buf "{\"seq\": %d, \"t_us\": %.3f, \"tid\": %d" e.seq
        (Int64.to_float (Int64.sub e.t_ns t0) /. 1e3)
        e.tid;
      Buffer.add_string buf ", \"severity\": ";
      Jsonw.escape buf (severity_name e.severity);
      Buffer.add_string buf ", \"scope\": ";
      Jsonw.escape buf e.scope;
      Buffer.add_string buf ", \"name\": ";
      Jsonw.escape buf e.name;
      Buffer.add_string buf ", \"fields\": {";
      List.iteri
        (fun k (key, v) ->
          if k > 0 then Buffer.add_string buf ", ";
          Jsonw.escape buf key;
          Buffer.add_string buf ": ";
          emit_value buf v)
        e.fields;
      Buffer.add_string buf "}}\n")
    evs;
  Buffer.contents buf
