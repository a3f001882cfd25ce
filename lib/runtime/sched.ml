type instance = { stmt : int; iter : int array }

type phase =
  | Doall of { label : string; instances : instance array }
  | Tasks of { label : string; tasks : instance array array }

type t = { phases : phase list }

(* Arrays of fresh blocks start from a constant element and are filled in
   place: past 256 elements, [Array.init], [Array.of_list] or [Array.map]
   over fresh values make OCaml empty the minor heap before it fills the
   array.  These constants are static data, never in the minor heap. *)
let no_instance = { stmt = -1; iter = [||] }
let no_phase = Doall { label = ""; instances = [||] }

let fill blank n f =
  let a = Array.make n blank in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a

let fill_list blank f l =
  let a = Array.make (List.length l) blank in
  List.iteri (fun i x -> a.(i) <- f x) l;
  a

let instances n f = fill no_instance n f
let instances_of_list f l = fill_list no_instance f l
let phase_array s = fill_list no_phase Fun.id s.phases

let phase_size = function
  | Doall { instances; _ } -> Array.length instances
  | Tasks { tasks; _ } ->
      Array.fold_left (fun acc t -> acc + Array.length t) 0 tasks

let n_instances s = List.fold_left (fun acc p -> acc + phase_size p) 0 s.phases
let n_phases s = List.length s.phases
let phase_label = function Doall { label; _ } | Tasks { label; _ } -> label

let phase_instances = function
  | Doall { instances; _ } -> instances
  | Tasks { tasks; _ } -> Array.concat (Array.to_list tasks)

let of_phases phases =
  { phases = List.filter (fun p -> phase_size p > 0) phases }

let sequential_of_trace (tr : Depend.Trace.t) =
  let insts = tr.Depend.Trace.instances in
  let task =
    instances (Array.length insts) (fun k ->
        { stmt = insts.(k).Depend.Trace.stmt; iter = insts.(k).Depend.Trace.iter })
  in
  of_phases [ Tasks { label = "sequential"; tasks = [| task |] } ]

let of_rec ~stmt (c : Core.Partition.concrete_rec) =
  let doall label pts =
    Doall
      {
        label;
        instances =
          instances (Core.Points.length pts) (fun i ->
              { stmt; iter = Core.Points.get pts i });
      }
  in
  let ch = c.Core.Partition.chains in
  let lens = Core.Chain.lengths ch in
  let chains =
    Tasks
      {
        label = "P2-chains";
        tasks =
          (* Task index = chain id: chunk ids in spans and straggler
             tables name the paper's chains directly. *)
          fill [||] (Core.Chain.n_chains ch) (fun k ->
              instances lens.(k) (fun i -> { stmt; iter = Core.Chain.get ch k i }));
      }
  in
  of_phases
    [ doall "P1" c.Core.Partition.p1_pts; chains; doall "P3" c.Core.Partition.p3_pts ]

let of_fronts (c : Core.Dataflow.concrete) =
  let insts = c.Core.Dataflow.trace.Depend.Trace.instances in
  let front k nodes =
    Doall
      {
        label = Printf.sprintf "front-%d" (k + 1);
        instances =
          instances_of_list
            (fun node ->
              { stmt = insts.(node).Depend.Trace.stmt; iter = insts.(node).Depend.Trace.iter })
            nodes;
      }
  in
  of_phases (List.mapi front (Array.to_list c.Core.Dataflow.fronts))

let of_task_groups ~label ~stmt groups =
  of_phases
    [
      Tasks
        {
          label;
          tasks =
            fill_list [||]
              (instances_of_list (fun iter -> { stmt; iter }))
              groups;
        };
    ]

let concat ss = of_phases (List.concat_map (fun s -> s.phases) ss)

(* Statement instances keyed by (stmt, iter). *)
module Ids = Hashtbl.Make (struct
  type t = int * int array

  let equal ((s1, a1) : t) (s2, a2) =
    s1 = s2
    && Array.length a1 = Array.length a2
    &&
    let rec go k = k < 0 || (a1.(k) = a2.(k) && go (k - 1)) in
    go (Array.length a1 - 1)

  let hash ((s, a) : t) =
    let h = ref s in
    for k = 0 to Array.length a - 1 do
      h := (!h * 31) + a.(k)
    done;
    !h land max_int
end)

let check_legal s (tr : Depend.Trace.t) =
  (* Every trace instance's id is its index in the trace, which is also
     what the edges name.  Each scheduled instance's position (phase,
     task, index-in-task) is recorded by id; DOALL instances get distinct
     task ids so only phase order counts.  Scheduled instances the trace
     lacks are counted, and the first of them is kept for the report. *)
  let insts = tr.Depend.Trace.instances in
  let n = Array.length insts in
  let ids = Ids.create n in
  Array.iteri
    (fun id (i : Depend.Trace.instance) ->
      Ids.add ids (i.Depend.Trace.stmt, i.Depend.Trace.iter) id)
    insts;
  let phase_of = Array.make n (-1) and task_of = Array.make n 0
  and index_of = Array.make n 0 in
  let extra = Ids.create 8 in
  let placed = ref 0 and dup = ref None and foreign = ref None in
  let note inst pi ti k =
    let key = (inst.stmt, inst.iter) in
    match Ids.find_opt ids key with
    | Some id ->
        if phase_of.(id) >= 0 then dup := Some key
        else begin
          phase_of.(id) <- pi;
          task_of.(id) <- ti;
          index_of.(id) <- k;
          incr placed
        end
    | None ->
        if Ids.mem extra key then dup := Some key
        else begin
          if Option.is_none !foreign then foreign := Some key;
          Ids.add extra key ()
        end
  in
  List.iteri
    (fun pi phase ->
      match phase with
      | Doall { instances; _ } ->
          Array.iteri (fun k inst -> note inst pi k 0) instances
      | Tasks { tasks; _ } ->
          Array.iteri
            (fun ti task -> Array.iteri (fun k inst -> note inst pi ti k) task)
            tasks)
    s.phases;
  match !dup with
  | Some (stmt, iter) ->
      Error
        (Printf.sprintf "instance S%d%s scheduled twice" stmt
           (Linalg.Ivec.to_string iter))
  | None -> (
      let scheduled = !placed + Ids.length extra in
      match !foreign with
      | _ when scheduled <> n ->
          Error
            (Printf.sprintf "schedule has %d instances, trace has %d"
               scheduled n)
      (* As many instances as the trace, one of them swapped for an
         instance the trace lacks. *)
      | Some (stmt, iter) ->
          Error
            (Printf.sprintf "instance S%d%s is not in the trace" stmt
               (Linalg.Ivec.to_string iter))
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
