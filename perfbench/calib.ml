(* Host-speed calibration.

   The shared host runs this VM's CPUs at speeds that move by up to 40%
   from one minute to the next, and task clocks do not remove that: the
   work itself runs slower (see the noise record in README.md).  A fixed
   kernel of benchmark code, run between rounds on the same CPU, measures
   the speed of the moment.  A run reports its times scaled to the speed
   at which the kernel takes [reference_s]. *)

(* Hash-table updates, boxed floats and short lists: allocation and
   pointer work like the program's.  Its time tracked exec-paper's op
   times at correlation 0.85-0.89 over 1 s windows; an allocation-free
   kernel of array work tracked at 0.60-0.66.  It calls no code of the
   program, so a change to the program does not move it. *)
let kernel () =
  let tbl = Hashtbl.create 4096 in
  let l = ref [] and n = ref 0 in
  for i = 0 to 30_000 do
    let k = (i * 7919) land 4095 in
    let v = match Hashtbl.find_opt tbl k with Some v -> v +. 1.0 | None -> 0.5 in
    Hashtbl.replace tbl k v;
    l := (k, v) :: !l;
    if i land 1023 = 0 then begin
      n := !n + List.length !l;
      l := []
    end
  done;
  let a = Array.make 131072 1.0 in
  for r = 1 to 4 do
    for i = 1 to Array.length a - 1 do
      a.(i) <- (a.(i - 1) *. 0.5) +. float_of_int (i land r)
    done
  done;
  !n + int_of_float a.(1000)

(* A little below the kernel's fastest run medians on a shared 2-vCPU VM
   (4.8-6.8 ms). *)
let reference_s = 4.5e-3

type t = Stats.buf

let create () = Stats.buf ()

(* Three kernel runs, each timed on this process's task clock. *)
let measure t =
  for _ = 1 to 3 do
    let t0 = Cpu.now [ Cpu.self ] in
    ignore (Sys.opaque_identity (kernel ()));
    Stats.push t (Cpu.elapsed_s [ Cpu.self ] t0)
  done

let kernel_s t = Stats.median (Stats.contents t)

(* The factor that takes this run's times to the reference speed. *)
let scale t = reference_s /. kernel_s t
