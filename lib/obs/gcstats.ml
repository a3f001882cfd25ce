type t = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

(* The calling domain's fresh words so far (minor + major − promoted),
   read by a C stub that allocates nothing and returns an unboxed float,
   so a reading is charged to neither window it bounds and a phase
   boundary costs no minor-heap words.  It is not [noalloc]: the call
   must publish the domain's allocation pointer, which the minor count
   reads, as [Gc.minor_words]'s does. *)
external fresh_words : unit -> (float[@unboxed])
  = "obs_fresh_words_byte" "obs_fresh_words"

(* All fields are floats, so the record is flat and a reading stores into
   it without boxing: the record is allocated before the counters are
   read.  Collection counts are exact in a float well past any run. *)
type probe = {
  mutable words : float;  (** {!fresh_words} at the probe *)
  mutable minor : float;
  mutable promoted : float;
  mutable major : float;
  mutable minor_gcs : float;
  mutable major_gcs : float;
  mutable compactions_ : float;
}

let fresh () =
  {
    words = 0.0;
    minor = 0.0;
    promoted = 0.0;
    major = 0.0;
    minor_gcs = 0.0;
    major_gcs = 0.0;
    compactions_ = 0.0;
  }

let mark () =
  let p = fresh () in
  p.words <- fresh_words ();
  p

let[@inline] words_since p = fresh_words () -. p.words

let[@inline] lap p =
  let w = fresh_words () in
  let d = w -. p.words in
  p.words <- w;
  d

(* [Gc.counters]'s triple and [Gc.quick_stat]'s record are allocated
   before the minor-word counters are read, so neither is charged to the
   span the probe opens. *)
let start () =
  let p = fresh () in
  let s = Gc.quick_stat () in
  p.minor_gcs <- float_of_int s.Gc.minor_collections;
  p.major_gcs <- float_of_int s.Gc.major_collections;
  p.compactions_ <- float_of_int s.Gc.compactions;
  let _, promoted, major = Gc.counters () in
  p.promoted <- promoted;
  p.major <- major;
  p.minor <- Gc.minor_words ();
  p.words <- fresh_words ();
  p

(* A closing reading takes the minor-word counter first, so its own
   allocation falls after the span too. *)
let since p =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  let s = Gc.quick_stat () in
  {
    minor_words = minor -. p.minor;
    promoted_words = promoted -. p.promoted;
    major_words = major -. p.major;
    minor_collections = s.Gc.minor_collections - int_of_float p.minor_gcs;
    major_collections = s.Gc.major_collections - int_of_float p.major_gcs;
    compactions = s.Gc.compactions - int_of_float p.compactions_;
  }

let allocated_words t = t.minor_words +. t.major_words -. t.promoted_words

let is_zero t =
  t.minor_words = 0.0 && t.promoted_words = 0.0 && t.major_words = 0.0
  && t.minor_collections = 0
  && t.major_collections = 0
  && t.compactions = 0
