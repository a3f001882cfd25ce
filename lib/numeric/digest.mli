(** 128-bit FNV-1a content digests (two independent 64-bit lanes).

    Shared by {!Svc.Key} (content-addressed result cache keys) and the
    presburger hash-cons/memo tables ({!Presburger.Hc}), so both layers
    use one digest discipline.  Digests are incremental: start from
    {!seed} and feed bytes with the [add_*] functions, each of which
    allocates only its result, however many bytes it feeds. *)

type t = { a : int64; b : int64 }

val seed : t
(** The FNV-1a offset bases ([0xcbf29ce484222325] / [0x84222325cbf29ce4]). *)

val add_char : t -> char -> t
val add_string : t -> string -> t

val add_int : t -> int -> t
(** Feeds the int as 8 little-endian bytes. *)

val add_int64 : t -> int64 -> t
(** Feeds the int64 as 8 little-endian bytes: [add_int t n] is
    [add_int64 t (Int64.of_int n)]. *)

val add_digest : t -> t -> t
(** Mixes a sub-digest in by feeding its 16 bytes. *)

val of_string : string -> t
(** [of_string s] is [add_string seed s] — the digest of a whole string,
    byte-compatible with the original [Svc.Key] implementation. *)

val to_hex : t -> string
(** 32 lowercase hex characters ([%016Lx%016Lx]). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
