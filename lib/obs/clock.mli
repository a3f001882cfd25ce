(** The single clock every span and phase timing goes through.

    The primary source is [CLOCK_MONOTONIC] (via the bechamel C stub), so
    timings cannot go backwards under NTP adjustment.  If that clock is
    unavailable at runtime (it reports a frozen value), readings fall back
    to {!Unix.gettimeofday} forced monotone by a global high-water mark —
    documented fallback only, never the preferred path. *)

val now_ns : unit -> int64
(** Nanoseconds on a monotonic timeline.  The origin is unspecified (boot
    time on Linux); only differences are meaningful. *)

val elapsed_s : int64 -> float
(** [elapsed_s t0] is the seconds elapsed since the earlier reading
    [t0]. *)
