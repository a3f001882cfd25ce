(** Dense float array store for program execution.

    Extents are discovered by a dry scan ({!Interp.scan_bounds}) that
    evaluates each affine subscript at both ends of its innermost loop,
    where it takes its extremes, and every other subscript at every point;
    negative and parametric indices (as in the Cholesky kernel) are
    handled by offsetting.  Cells start with a deterministic per-cell
    value derived from the array name and indices, so two executions agree
    iff they perform the same writes in an equivalent order.

    Index tuples come as lists (the compiled kernels' general path and
    tests) or as arrays ([*_index]: the scan and the reference
    interpreter evaluate subscripts into a scratch array, which no call
    retains).  A checked run scans once and gives the oracle a {!copy}.
    {!equal} compares bit for bit. *)

type t

val create : unit -> t

val note_bounds : t -> string -> int list -> unit
(** Extend the recorded extent of an array to include the given index
    tuple (call during the dry scan).  Raises [Invalid_argument] after
    {!freeze}, or when the tuple's rank differs from the array's. *)

val note_index : t -> string -> int array -> unit
(** {!note_bounds} from an index array. *)

val freeze : t -> unit
(** Allocate backing stores and seed every cell with {!initial_value}, in
    one row-major pass that allocates nothing per cell; must be called
    after all {!note_bounds} and before any {!get}/{!set}. *)

val get : t -> string -> int list -> float
(** The cell's value; {!initial_value} outside the extent or for an
    array the scan never noted. *)

val set : t -> string -> int list -> float -> unit
(** Raises [Invalid_argument] before {!freeze}, for an unknown array, or
    outside the extent. *)

val get_index : t -> string -> int array -> float
val set_index : t -> string -> int array -> float -> unit
(** {!get} and {!set} from an index array. *)

val copy : t -> t
(** An independent copy: same extents, frozen state and cells. *)

val initial_value : string -> int list -> float
(** The deterministic initial cell value: the hash of the array name,
    mixed with each index in turn (outermost first), reduced to one of
    1000 values [k /. 97.0].  {!get} falls back to it outside the
    extent, so it matches the seeded cells. *)

type view = {
  v_lo : int array;  (** per-dimension scanned lower bound *)
  v_hi : int array;  (** per-dimension scanned upper bound *)
  v_strides : int array;  (** row-major strides (innermost = 1) *)
  v_data : float array;  (** the live backing store (shared, not a copy) *)
}

val view : t -> string -> view option
(** Raw view of a frozen array for compiled execution: flat offset of index
    tuple [v] is [Σ_k (v_k - v_lo_k) · v_strides_k].  [v_data] aliases the
    store, so writes through the view are visible to {!get}.  [None] for
    unknown arrays; raises [Invalid_argument] before {!freeze}. *)

val equal : t -> t -> bool
(** Same arrays, same extents, and every cell the same bit for bit
    ([Int64.bits_of_float]): a NaN cell equals only the same NaN, and
    [-0.0] differs from [0.0]. *)

val max_abs_diff : t -> t -> float
(** The largest absolute cell difference, for messages; [infinity] when
    an array is missing on one side or differs in size.  A NaN cell adds
    nothing to it, so use {!equal} to decide. *)

val arrays : t -> string list
