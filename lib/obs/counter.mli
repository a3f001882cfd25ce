(** Process-wide named counters with atomic increments.

    Counters are created once (typically at module initialization of the
    instrumented layer) and registered globally; {!incr}/{!add} are a
    single atomic fetch-and-add, safe from any domain, and cheap enough to
    leave always on.  Snapshots are cumulative; callers wanting per-run
    numbers diff two snapshots ({!Metrics}). *)

type t

val make : string -> t
(** Creates (or returns the existing) counter with this name. *)

val incr : t -> unit
val add : t -> int -> unit
val value : t -> int

val snapshot : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name
    ({!String.compare}). *)

val reset_all : unit -> unit
(** Zeroes every registered counter (tests and CLI runs). *)
