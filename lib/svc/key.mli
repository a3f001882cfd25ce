(** Content-addressed request keys for the analysis service.

    Two requests share a key exactly when the pipeline would do the same
    work for both: the key is a hash of the {e canonicalized} program
    (unit strides via {!Loopir.Normalize.unit_strides}, loop indices
    alpha-renamed to position-derived names, program name dropped)
    together with the parameter bindings the program actually uses, the
    forced strategy (if any), and any extra service-level facets (thread
    count, request mode, …).

    Because the key is computed over the parsed AST, whitespace, comments
    and statement formatting of the source never affect it; because loop
    indices are alpha-renamed, neither does the choice of index names.
    Parameter {e names} do matter — they are bound by name in requests —
    as do subscript expressions, bounds, and statement order. *)

type t

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** For shard selection; deterministic within a process. *)

val to_string : t -> string
(** 32 lowercase hex digits (a 128-bit FNV-1a digest). *)

val of_hex : string -> t
(** Inverse of {!to_string} — how {!Store} recovery turns the key bytes
    persisted in its shard logs back into keys.  No validation: the
    store's record checksum already vouches for the bytes. *)

val canonical : Loopir.Ast.program -> Loopir.Ast.program
(** The canonical form hashed by {!of_request}: unit strides, loop
    indices renamed to [$0, $1, …] in pre-order, name dropped.  Exposed
    for tests and debugging. *)

val of_request :
  ?strategy:Pipeline.Plan.strategy ->
  ?extra:string list ->
  params:(string * int) list ->
  Loopir.Ast.program ->
  t
(** Key of one analysis request.  Only bindings for parameters the
    program mentions enter the hash (extra bindings cannot defeat
    caching), sorted by name.  [extra] facets are hashed in order. *)
