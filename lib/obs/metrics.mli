(** A combined snapshot of every registered counter and histogram —
    what pipeline reports embed.

    Counters and histograms are cumulative for the process; {!diff} turns
    two snapshots into the activity between them (a per-run view).  Every
    [t] this module returns lists its names sorted ({!String.compare}) and
    unique, histogram buckets by ascending bound, so {!diff} is one merge
    pass over the two sides, linear in their length. *)

type t = {
  counters : (string * int) list;
  histograms : (string * Histogram.snap) list;
}

val snapshot : unit -> t

val diff : before:t -> after:t -> t
(** Per-name subtraction over two sorted [t]s (as {!snapshot} returns
    them).  Counters that did not move and histograms that saw no
    observations are dropped, so a diff only lists the layers the run
    actually exercised; so are names only in [before].  A histogram only
    in [after] is kept as it is. *)

val merge : t -> t -> t
(** Per-name addition (counter values summed, histogram counts/sums/
    buckets summed) — how {!Window} folds per-window diffs back into one
    view.  Names that sum to zero are dropped, mirroring {!diff}. *)

val reset_all : unit -> unit
(** Zeroes every registered counter and histogram ({!Counter.reset_all} +
    {!Histogram.reset_all}).  For section isolation in benchmarks and
    tests — cumulative process metrics restart from a clean slate. *)

val filter : (string -> bool) -> t -> t
(** Keeps the counters and histograms whose name satisfies the predicate
    (e.g. only the [presburger.]/[omega.] analysis metrics). *)

val is_empty : t -> bool
