(** GC/runtime telemetry: exact per-domain allocation deltas.

    The pipeline driver takes a reading around every stage so reports can
    show which stage allocated and collected how much; the executor takes
    one around each worker domain's drain, so per-domain allocation shows
    up next to per-domain busy time.

    Word counts come from the calling domain's counters behind
    [Gc.minor_words] and [Gc.counters], which on OCaml 5 are exact for
    that domain.  {!mark}, {!lap} and {!words_since} read their sum
    through a C stub that allocates nothing, so a phase boundary costs
    no words;
    {!start} and {!since} read the two functions for the per-kind
    record.  [Gc.quick_stat] is not used for words: on OCaml 5.1.1 its
    [minor_words] advances only at a minor collection and its
    [major_words] misses direct major allocations until then (a
    1,000-cons list reads 0 minor words there, 3,034 from
    [Gc.minor_words]; a 10,000-float array 0 major words, 10,001 from
    [Gc.counters]), and one call costs ~1.3 µs.  It is read only by
    {!start}, for the collection counts, which are process-global.

    A reading's own allocation is not charged to the span it measures:
    {!mark}, {!lap} and {!words_since} allocate nothing while reading,
    and {!start} takes the minor-word counter last, {!since} first. *)

type t = {
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;  (** minor words that survived into the major heap *)
  major_words : float;  (** words allocated in the major heap, promotions included *)
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

type probe
(** An opening reading. *)

val mark : unit -> probe
(** Word counters only: O(1), no [Gc.quick_stat].  Pair with
    {!words_since}. *)

val words_since : probe -> float
(** Fresh words the calling domain allocated since the probe was taken
    (minor + major − promoted, so a promoted word counts once). *)

val lap : probe -> float
(** {!words_since} the probe, and the probe re-armed at the same
    reading: consecutive laps measure back-to-back windows (the phases
    of a run, each closing where the next opens) with one
    reading per boundary, which allocates nothing (the returned float is
    boxed only where a caller keeps it boxed). *)

val start : unit -> probe
(** Word counters and the collection counts of [Gc.quick_stat]; pair
    with {!since}. *)

val since : probe -> t
(** The delta since a {!start} probe, field by field. *)

val allocated_words : t -> float
(** [minor + major - promoted]: total fresh words of a delta, counting
    promoted words once. *)

val is_zero : t -> bool
