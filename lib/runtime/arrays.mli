(** Paged float array store for program execution.

    Extents are discovered by a dry scan ({!Interp.scan_bounds}) that
    evaluates each affine subscript at both ends of its innermost loop,
    where it takes its extremes, and every other subscript at every point;
    negative and parametric indices (as in the Cholesky kernel) are
    handled by offsetting.  Cells start with a deterministic per-cell
    value derived from the array name and indices, so two executions agree
    iff they perform the same writes in an equivalent order.

    Each array's row-major extent is cut into pages of [2^shift] cells.
    The scan marks the cells its references reach ({!note},
    {!note_run}), and {!freeze} allocates and seeds only the pages that
    hold a marked cell, back to back in one slab; every other page stays
    absent and reads as its initial values.  The page size is 64 cells,
    or larger for an extent over 2^22 cells, so that the page table
    never holds more than 2^16 pages: a program that touches four cells
    10^8 apart pays for four pages and a 36,622-entry table, not for
    3×10^8 cells.  The marks are kept as a log of cells and runs until
    freeze; once an array's log would outgrow both 4,096 entries and the
    array's extent so far, it is dropped and every page of that array is
    seeded, which then costs less than the log.  Cell counts are checked:
    an extent with more cells than {!max_int}, or than 2^16 pages of the
    largest page size (2^20 cells) can hold, fails with
    [Diag.Error (Extent_overflow name)].

    An array is reached through a {!handle}, resolved from its name once;
    the name-based functions resolve it per call.  Index tuples come as
    lists (tests) or as arrays ([*_index] and the handle functions: the
    scan, the reference interpreter and the compiled kernels' general
    path evaluate subscripts into a scratch array, which no call
    retains).  A prepared program keeps an {!image} of its first scan's
    store ({!Interp.scan_bounds}), and each later store is made from it
    ({!of_image}) in one copy of the present pages' cells, sharing the
    page table, without a scan.  {!equal} compares bit for bit. *)

type t

val create : unit -> t

type handle
(** One array of one store. *)

val handle : t -> string -> handle
(** The array [name] of the store.  Before {!freeze} a new name is
    registered, but an array with no noted cell is dropped at freeze, so
    a reference inside loops that never run leaves no array behind.
    After freeze an unknown name gives a handle that reads initial values
    and refuses writes. *)

val extend : handle -> int array -> unit
(** Extend the array's extent to include the index tuple, marking no
    cell.  Raises [Invalid_argument] after {!freeze}, or when the tuple's
    rank differs from the array's. *)

val note : handle -> int array -> unit
(** {!extend}, and mark the tuple's cell: freeze seeds its page. *)

val note_run : handle -> int array -> int array -> int -> unit
(** [note_run h first last n] notes [first] and [last] and marks the
    [n ≥ 2] cells of the run between them: the tuples an all-affine
    reference takes at [n] consecutive values of its innermost loop
    index, [first] at the lowest.  Their row-major offsets then step
    evenly from [first]'s to [last]'s, which is how freeze finds the
    pages without the points in between. *)

val read : handle -> int array -> float
(** The cell's value; {!initial_value} outside the extent, on an absent
    page, or for an array the scan never noted. *)

val write : handle -> int array -> float -> unit
(** Raises [Invalid_argument] before {!freeze}, for an unknown array, and
    outside the marked cells' pages ("index out of scanned bounds"). *)

val note_bounds : t -> string -> int list -> unit
(** {!note} by name. *)

val note_index : t -> string -> int array -> unit

val freeze : t -> unit
(** Lay out every noted array and allocate and seed its marked pages,
    each in one row-major pass that allocates nothing per cell; must be
    called after all notes and before any {!write}.  Raises
    [Diag.Error (Extent_overflow name)] for an extent the store cannot
    address. *)

val get : t -> string -> int list -> float
val set : t -> string -> int list -> float -> unit
val get_index : t -> string -> int array -> float
val set_index : t -> string -> int array -> float -> unit
(** {!read} and {!write} by name. *)

type image
(** A frozen store's layout and seeded cells, from which stores like it
    are made without a scan.  The layout is shared; the cells are a copy,
    held off the OCaml heap in one Float64 bigarray per array. *)

val image : t -> image
(** The image of a frozen store as it is now: a later write to the store
    does not reach the image.  Raises [Invalid_argument] before
    {!freeze}. *)

val of_image : image -> t
(** A fresh frozen store with the image's extents and page tables, its
    slabs copied from the image's cells by one [memcpy] per array (a C
    stub, called after the ranges are checked):
    {!equal} to the imaged store at the time of {!image}.  It shares no
    cell with the image or with another store. *)

val initial_value : string -> int list -> float
(** The deterministic initial cell value: the hash of the array name,
    mixed with each index in turn (outermost first), reduced to one of
    1000 values [k /. 97.0].  {!read} falls back to it outside the
    extent and on absent pages, so it matches the seeded cells. *)

val seed_value : int -> float
(** [seed_value k], for [0 ≤ k < 1000], is the seeding table's entry
    [float_of_int k /. 97.0], the value of every cell whose hash is [k]
    modulo 1000. *)

type view = {
  v_lo : int array;  (** per-dimension scanned lower bound *)
  v_hi : int array;  (** per-dimension scanned upper bound *)
  v_strides : int array;  (** row-major strides (innermost = 1) *)
  v_shift : int;  (** a page holds [2^v_shift] cells *)
  v_table : int array;
      (** the page table: flat offset [o] is cell
          [v_table.(o lsr v_shift) + (o land (2^v_shift - 1))] of
          [v_slab]; an absent page's entry is [min_int], so every cell
          offset from it stays negative *)
  v_slab : float array;
      (** the live present pages, back to back in page order (shared,
          not a copy) *)
}

val view : t -> string -> view option
(** Raw view of a frozen array for compiled execution: flat offset of index
    tuple [v] is [Σ_k (v_k - v_lo_k) · v_strides_k].  [v_slab] aliases the
    store, so writes through the view are visible to {!get}.  [None] for
    unknown arrays; raises [Invalid_argument] before {!freeze}. *)

val seeded_cells : t -> int
(** The cells held by present pages, over every array: what freeze
    seeded, and what {!of_image} copies. *)

val equal : t -> t -> bool
(** Same arrays, same extents, and every cell the same bit for bit
    ([Int64.bits_of_float]), an absent page reading as its initial
    values: a NaN cell equals only the same NaN, and [-0.0] differs from
    [0.0]. *)

val max_abs_diff : t -> t -> float
(** The largest absolute cell difference, for messages; [infinity] when
    an array is missing on one side or differs in size.  A NaN cell adds
    nothing to it, so use {!equal} to decide. *)

val arrays : t -> string list
