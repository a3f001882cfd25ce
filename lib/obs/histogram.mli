(** Process-wide named histograms over non-negative integers, with
    power-of-two buckets: bucket [k] counts observations [v] with
    [2^(k-1) < v ≤ 2^k] (bucket 0 counts [v ≤ 0 or v = 1]).  Observation
    is one atomic fetch-and-add per sample plus two for count/sum. *)

type t

type snap = {
  count : int;
  sum : int;
  buckets : (int * int) list;
      (** (inclusive upper bound of the bucket, samples in it); empty
          buckets omitted *)
}

val make : string -> t
(** Creates (or returns the existing) histogram with this name. *)

val observe : t -> int -> unit
(** Records one sample.  Negative values are clamped to 0 before
    anything is updated, so [count], [sum] and the bucket counters always
    describe the same (clamped) sample. *)

val snap : t -> snap
(** Point-in-time snapshot.  The counters are read individually, so a
    snapshot taken while other domains observe is not a single atomic
    cut; [snap] retries a bounded number of times until [count] is
    stable across the read.  Even when concurrent observations keep it
    unstable, the returned [count] is read {e after} the buckets — and
    since {!observe} bumps [count] before the bucket, the reported
    bucket totals never exceed the reported [count]. *)

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
