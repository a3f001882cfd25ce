type t = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

(* All fields are floats, so the record is flat and a reading stores into
   it without boxing: the record is allocated before the counters are
   read.  Collection counts are exact in a float well past any run. *)
type probe = {
  mutable minor : float;
  mutable promoted : float;
  mutable major : float;
  mutable minor_gcs : float;
  mutable major_gcs : float;
  mutable compactions_ : float;
}

let fresh () =
  {
    minor = 0.0;
    promoted = 0.0;
    major = 0.0;
    minor_gcs = 0.0;
    major_gcs = 0.0;
    compactions_ = 0.0;
  }

(* The minor-word counter is read last, after everything the reading
   allocates ([Gc.counters]'s triple), so none of it is charged to the
   span the probe opens.  [Gc.counters]'s own minor count lags the minor
   heap; its promoted and major counts are exact. *)
let read_words p =
  let _, promoted, major = Gc.counters () in
  p.promoted <- promoted;
  p.major <- major;
  p.minor <- Gc.minor_words ()

let mark () =
  let p = fresh () in
  read_words p;
  p

(* One reading that closes a window and opens the next: the minor-word
   counter is read first for the closing window and again, after
   [Gc.counters]'s triple is allocated, for the opening one, so that
   allocation falls in neither. *)
let lap p =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  let w = minor -. p.minor +. (major -. p.major) -. (promoted -. p.promoted) in
  p.promoted <- promoted;
  p.major <- major;
  p.minor <- Gc.minor_words ();
  w

let start () =
  let p = fresh () in
  let s = Gc.quick_stat () in
  p.minor_gcs <- float_of_int s.Gc.minor_collections;
  p.major_gcs <- float_of_int s.Gc.major_collections;
  p.compactions_ <- float_of_int s.Gc.compactions;
  read_words p;
  p

(* Closing readings take the minor-word counter first, so their own
   allocation falls after the span too. *)
let words_since p =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  minor -. p.minor +. (major -. p.major) -. (promoted -. p.promoted)

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
