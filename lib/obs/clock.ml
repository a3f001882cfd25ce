(* Monotonic time.  Primary source: the CLOCK_MONOTONIC C stub shipped
   with bechamel (no allocation, immune to NTP steps).  Fallback: if the
   stub reports a frozen clock, durations degrade to Unix.gettimeofday
   forced monotone by a global high-water mark. *)

let stub_works =
  (* A monotonic clock that returns the same value twice with a sleep in
     between is not ticking (some exotic platforms stub it to 0). *)
  let a = Monotonic_clock.now () in
  let b = Monotonic_clock.now () in
  a <> 0L || b <> 0L

let hwm = Atomic.make 0L

let fallback_now_ns () =
  let rec bump candidate =
    let seen = Atomic.get hwm in
    let v = if candidate > seen then candidate else seen in
    if Atomic.compare_and_set hwm seen v then v else bump candidate
  in
  bump (Int64.of_float (Unix.gettimeofday () *. 1e9))

let[@inline] now_ns () = if stub_works then Monotonic_clock.now () else fallback_now_ns ()
let[@inline] elapsed_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9
