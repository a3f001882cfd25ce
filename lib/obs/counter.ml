type t = { name : string; cell : int Atomic.t }

(* The registry is append-only and tiny (one entry per instrumentation
   site); a CAS loop keeps it lock-free for the rare concurrent [make]. *)
let registry : t list Atomic.t = Atomic.make []

let make name =
  let rec go () =
    let seen = Atomic.get registry in
    match List.find_opt (fun c -> c.name = name) seen with
    | Some c -> c
    | None ->
        let c = { name; cell = Atomic.make 0 } in
        if Atomic.compare_and_set registry seen (c :: seen) then c else go ()
  in
  go ()

let incr t = ignore (Atomic.fetch_and_add t.cell 1)
let add t n = ignore (Atomic.fetch_and_add t.cell n)
let value t = Atomic.get t.cell

let snapshot () =
  Atomic.get registry
  |> List.map (fun c -> (c.name, Atomic.get c.cell))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_all () =
  List.iter (fun c -> Atomic.set c.cell 0) (Atomic.get registry)
