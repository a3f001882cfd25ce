(** Exact rational numbers over overflow-checked native integers.

    Values are kept normalized: the denominator is positive and the numerator
    and denominator are coprime.  All operations are exact; an operation whose
    exact result would exceed the native integer range raises
    {!Safeint.Overflow}. *)

type t = private { num : int; den : int }
(** A normalized rational [num/den] with [den > 0] and [gcd num den = 1]. *)

val make : int -> int -> t
(** [make n d] is the normalized rational [n/d]; raises [Division_by_zero]
    when [d = 0]. *)

val of_int : int -> t
val zero : t
val one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** [div a b] raises [Division_by_zero] when [b] is zero. *)

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** [inv a] raises [Division_by_zero] when [a] is zero. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val to_int_exn : t -> int
(** [to_int_exn q] is the integer value of [q]; raises [Invalid_argument]
    when [q] is not an integer. *)

val floor : t -> int
(** [floor q] is [⌊q⌋]. *)

val ceil : t -> int
(** [ceil q] is [⌈q⌉]. *)

val min : t -> t -> t
val max : t -> t -> t

val to_float : t -> float
(** Approximate floating-point value. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
