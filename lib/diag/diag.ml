type stage = Analyze | Classify | Materialize | Schedule | Validate | Execute

let stage_name = function
  | Analyze -> "analyze"
  | Classify -> "classify"
  | Materialize -> "materialize"
  | Schedule -> "schedule"
  | Validate -> "validate"
  | Execute -> "execute"

let all_stages = [ Analyze; Classify; Materialize; Schedule; Validate; Execute ]

type error =
  | Unsupported of string
  | Unbound_parameter of string
  | Unbound_variable of string
  | Param_arity of { expected : int; got : int }
  | Singular_recurrence of string
  | Lemma1_violation of string
  | Chain_cover of { covered : int; expected : int }
  | Outside_partition of string
  | Set_blowup of string
  | Dataflow_step_limit of int
  | Illegal_schedule of string
  | Semantic_mismatch of string
  | Invalid_thread_count of int
  | Extent_overflow of string
  | Int_overflow

exception Error of error

let to_string = function
  | Unsupported m -> "unsupported program: " ^ m
  | Unbound_parameter p -> Printf.sprintf "parameter %s not bound" p
  | Unbound_variable v -> Printf.sprintf "unbound variable %s" v
  | Param_arity { expected; got } ->
      Printf.sprintf "expected %d parameter value(s), got %d" expected got
  | Singular_recurrence m -> "singular recurrence: " ^ m
  | Lemma1_violation m -> "Lemma 1 violated: " ^ m
  | Chain_cover { covered; expected } ->
      Printf.sprintf "chains cover %d of %d intermediate iterations" covered
        expected
  | Outside_partition m -> "iteration outside the partition: " ^ m
  | Set_blowup m -> "set algebra work budget exceeded: " ^ m
  | Dataflow_step_limit n ->
      Printf.sprintf "dataflow peeling did not terminate within %d steps" n
  | Illegal_schedule m -> "illegal schedule: " ^ m
  | Semantic_mismatch m -> "semantic mismatch: " ^ m
  | Invalid_thread_count n -> Printf.sprintf "invalid thread count %d" n
  | Extent_overflow a ->
      Printf.sprintf "the extent of array %s has more cells than a store can address" a
  | Int_overflow ->
      "integer overflow: a subscript, loop bound or dependence coefficient \
       leaves the native integer range"

let label = function
  | Unsupported _ -> "unsupported"
  | Unbound_parameter _ -> "unbound-parameter"
  | Unbound_variable _ -> "unbound-variable"
  | Param_arity _ -> "param-arity"
  | Singular_recurrence _ -> "singular-recurrence"
  | Lemma1_violation _ -> "lemma1-violation"
  | Chain_cover _ -> "chain-cover"
  | Outside_partition _ -> "outside-partition"
  | Set_blowup _ -> "set-blowup"
  | Dataflow_step_limit _ -> "dataflow-step-limit"
  | Illegal_schedule _ -> "illegal-schedule"
  | Semantic_mismatch _ -> "semantic-mismatch"
  | Invalid_thread_count _ -> "invalid-thread-count"
  | Extent_overflow _ -> "extent-overflow"
  | Int_overflow -> "int-overflow"

let fail e = raise (Error e)
let result f = match f () with v -> Ok v | exception Error e -> Error e

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Diag.Error: " ^ to_string e)
    | _ -> None)
