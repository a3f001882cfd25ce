type t = { id : string }

let id t = t.id
let of_id id = { id }

let seq = Atomic.make 0

(* Process tag derived from the monotonic clock at module init, so trace
   ids from different service instances don't collide when their logs are
   aggregated. *)
let origin = Int64.to_int (Clock.now_ns ()) land 0xffffff

let make () =
  { id = Printf.sprintf "t%06x-%x" origin (Atomic.fetch_and_add seq 1) }

(* Per-domain cell: the context never migrates between domains by itself —
   the pool that moves work across domains (Runtime.Workers) captures it
   when a run or admitted job is queued and installs it around the job. *)
let key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get key)

let current_id () =
  match current () with Some c -> Some c.id | None -> None

let with_opt c f =
  let cell = Domain.DLS.get key in
  let prev = !cell in
  cell := c;
  Fun.protect ~finally:(fun () -> cell := prev) f

let with_ctx c f = with_opt (Some c) f
