(* Task clocks: the CPU time a process has run, summed over its threads.
   The guest kernel leaves out of it the time the host hypervisor gave
   the CPU to someone else (steal), which on a shared host swings wall
   times by tens of percent from one minute to the next.  On one pinned
   CPU with no idle moment inside an op, the task clocks of the processes
   doing the op add up to the op's wall time less that steal. *)

type clock = int

(* The task clock of process [pid]; [0] is this process. *)
external of_pid : int -> clock = "perfbench_cpu_clock"

external clock_ns : clock -> int = "perfbench_clock_ns"

let self = of_pid 0

(* The summed reading of [clocks], in ns. *)
let now clocks = List.fold_left (fun a c -> a + clock_ns c) 0 clocks

let elapsed_s clocks t0 = float_of_int (now clocks - t0) *. 1e-9
