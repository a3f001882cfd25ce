(** Process-wide named histograms over non-negative integers, with
    power-of-two buckets: bucket [k] counts observations [v] with
    [2^(k-1) < v ≤ 2^k] (bucket 0 counts [v ≤ 0 or v = 1]).  Observation
    is two atomic fetch-and-adds: the sample's bucket and the sum.  A
    histogram keeps no separate count: the count is the bucket total. *)

type t

type snap = {
  count : int;  (** the bucket total *)
  sum : int;
  buckets : (int * int) list;
      (** (inclusive upper bound of the bucket, samples in it); empty
          buckets omitted *)
}

val make : string -> t
(** Creates (or returns the existing) histogram with this name. *)

val observe : t -> int -> unit
(** Records one sample.  Negative values are clamped to 0 before
    anything is updated, so [sum] and the bucket counters always describe
    the same (clamped) sample. *)

val snap : t -> snap
(** Point-in-time snapshot.  The counters are read individually, so a
    snapshot taken while other domains observe is not a single atomic
    cut, but its [count] is always the total of its [buckets]; only
    [sum] may lead or trail them by the samples in flight. *)

val percentile : snap -> float -> float
(** [percentile s q] estimates the [q]-quantile ([q ∈ [0,1]], clamped) of
    the observed samples by locating the bucket holding the [q]-th sample
    and interpolating linearly inside its [(lower, upper]] range.  The
    estimate always lands in the true sample's bucket, so the relative
    error is bounded by the bucket width (2×).  [0.0] on an empty
    snapshot. *)

val snapshot : unit -> (string * snap) list
(** Every registered histogram, sorted by name ({!String.compare}). *)

val reset_all : unit -> unit
