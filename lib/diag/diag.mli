(** Structured diagnostics shared by every layer of the partitioning
    pipeline.

    Historically failures surfaced as [failwith]/[invalid_arg] strings
    scattered across the analysis and partitioning libraries; the pipeline
    driver threads them as [('a, error) result] instead, so frontends can
    react to the {e kind} of failure (degrade to another strategy, report,
    retry with different parameters) rather than parse messages.

    This library sits below [depend]/[core]/[runtime]: those libraries
    raise {!Error} at the point of failure and the pipeline layer catches
    it at stage boundaries ({!result}). *)

(** The six pipeline stages, in order. *)
type stage =
  | Analyze  (** exact dependence solving *)
  | Classify  (** Algorithm 1 strategy selection *)
  | Materialize  (** concrete partition at bound parameters *)
  | Schedule  (** phase/barrier schedule construction *)
  | Validate  (** legality + semantic checking *)
  | Execute  (** multicore execution / cost model *)

val stage_name : stage -> string
val all_stages : stage list

type error =
  | Unsupported of string
      (** program shape outside the strategy's hypotheses (imperfect nest,
          no coupled pair, rank-deficient coefficients, …) *)
  | Unbound_parameter of string
      (** a symbolic loop bound was not given a value *)
  | Unbound_variable of string
      (** a non-index, non-parameter variable appeared in a bound/subscript *)
  | Param_arity of { expected : int; got : int }
      (** concrete parameter vector has the wrong length *)
  | Singular_recurrence of string
      (** a coupled-pair coefficient matrix is singular: no recurrence map *)
  | Lemma1_violation of string
      (** chain walk bifurcated or left the partition — the Lemma 1
          hypotheses do not hold for this instance *)
  | Chain_cover of { covered : int; expected : int }
      (** the chains cover only [covered] of the [expected] intermediate
          iterations *)
  | Outside_partition of string
      (** a scanned iteration fell outside [P1 ∪ P2 ∪ P3] *)
  | Set_blowup of string
      (** the symbolic set algebra exceeded its work budget *)
  | Dataflow_step_limit of int
      (** symbolic dataflow peeling did not terminate within the limit *)
  | Illegal_schedule of string
      (** a dependence edge is violated or an instance is duplicated *)
  | Semantic_mismatch of string
      (** executed arrays differ from the sequential run *)
  | Invalid_thread_count of int
      (** a thread count below 1, or above the 128 domains the OCaml
          runtime can run, where not permitted *)
  | Extent_overflow of string
      (** the named array's scanned extent has more cells than the
          execution store can address: the count overflows the native
          integer, or its pages would exceed the store's largest page *)
  | Int_overflow
      (** checked integer arithmetic on the program (a subscript, a loop
          bound or a dependence coefficient) left the native integer
          range *)

exception Error of error

val to_string : error -> string
(** Human-readable one-line rendering. *)

val label : error -> string
(** Stable machine-readable tag ("unsupported", "chain-cover", …) for JSON
    reports and tests. *)

val fail : error -> 'a
(** [fail e] raises [Error e]. *)

val result : (unit -> 'a) -> ('a, error) result
(** Runs the thunk, catching {!Error} as [Error e]. Other exceptions
    propagate. *)
