module Json = Pipeline.Json

type source = Src of string | Prog of Loopir.Ast.program
type mode = Run | Classify | Metrics | Health

let introspective = function
  | Metrics | Health -> true
  | Run | Classify -> false

type request = {
  id : string;
  name : string;
  source : source;
  params : (string * int) list;
  strategy : Pipeline.Plan.strategy option;
  threads : int option;
  mode : mode;
  survey : bool;
  deadline_s : float option;
}

let request ?(params = []) ?strategy ?threads ?(mode = Run) ?(survey = false)
    ?deadline_s ~id ~name source =
  { id; name; source; params; strategy; threads; mode; survey; deadline_s }

type survey = { cls : string; coupled : bool; via : string }

type failure =
  | Bad_request of string
  | Pipeline_error of { stage : string; label : string; message : string }
  | Deadline of { limit_s : float; elapsed_s : float }
  | Panic of string
  | Overloaded of { queue_depth : int; queue_capacity : int }
  | Draining

let failure_kind = function
  | Bad_request _ -> "bad-request"
  | Pipeline_error _ -> "pipeline"
  | Deadline _ -> "deadline"
  | Panic _ -> "panic"
  | Overloaded _ -> "overloaded"
  | Draining -> "drain"

let failure_message = function
  | Bad_request m | Panic m -> m
  | Pipeline_error { stage; message; _ } ->
      Printf.sprintf "%s: %s" stage message
  | Deadline { limit_s; elapsed_s } ->
      Printf.sprintf "deadline %.3fs exceeded (elapsed %.3fs)" limit_s
        elapsed_s
  | Overloaded { queue_depth; queue_capacity } ->
      Printf.sprintf
        "server overloaded: request shed (queue %d/%d full); retry with \
         backoff"
        queue_depth queue_capacity
  | Draining -> "server draining: not accepting new requests"

type body =
  | Done of { payload : string; name : string }
  | Stats of { prometheus : string; snapshot : Json.t }
  | Healthy of { ok : bool; detail : Json.t }
  | Failed of failure

type response = {
  id : string;
  trace : string;
  cached : bool;
  queue_s : float;
  run_s : float;
  body : body;
}

let ok r = match r.body with Failed _ -> false | _ -> true

(* ---- JSON ------------------------------------------------------------ *)

type parse_failure = { line_id : string option; message : string }

let mode_name = function
  | Run -> "run"
  | Classify -> "classify"
  | Metrics -> "metrics"
  | Health -> "health"

let request_to_json (r : request) =
  let opt l = List.filter_map (fun x -> x) l in
  Json.Obj
    (opt
       [
         Some ("id", Json.Str r.id);
         Some ("name", Json.Str r.name);
         (match r.source with
         | Src "" when introspective r.mode -> None
         | Src s -> Some ("src", Json.Str s)
         | Prog p ->
             Some ("src", Json.Str (Loopir.Pretty.program_to_string p)));
         Some
           ( "params",
             Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.params) );
         Option.map
           (fun s ->
             ("strategy", Json.Str (Pipeline.Plan.strategy_name s)))
           r.strategy;
         Option.map (fun t -> ("threads", Json.Int t)) r.threads;
         (if r.mode = Run then None
          else Some ("mode", Json.Str (mode_name r.mode)));
         (if r.survey then Some ("survey", Json.Bool true) else None);
         Option.map (fun d -> ("deadline_s", Json.Float d)) r.deadline_s;
       ])

let ( let* ) = Result.bind

let request_of_json j =
  let str k =
    match Json.member k j with
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error (Printf.sprintf "%S must be a string" k)
    | None -> Error (Printf.sprintf "missing required field %S" k)
  in
  let* id =
    Result.map_error (fun message -> { line_id = None; message }) (str "id")
  in
  let fail message = Error { line_id = Some id; message } in
  let wrap = function Ok v -> Ok v | Error m -> fail m in
  let* mode =
    match Json.member "mode" j with
    | None -> Ok Run
    | Some (Json.Str "run") -> Ok Run
    | Some (Json.Str "classify") -> Ok Classify
    | Some (Json.Str "metrics") -> Ok Metrics
    | Some (Json.Str "health") -> Ok Health
    | Some _ ->
        fail "\"mode\" must be \"run\", \"classify\", \"metrics\" or \"health\""
  in
  (* Introspective requests have no program: name/src become optional. *)
  let* name =
    match (Json.member "name" j, introspective mode) with
    | None, true -> Ok (mode_name mode)
    | _ -> wrap (str "name")
  in
  let* src =
    match (Json.member "src" j, introspective mode) with
    | None, true -> Ok ""
    | _ -> wrap (str "src")
  in
  let* params =
    match Json.member "params" j with
    | None -> Ok []
    | Some (Json.Obj fields) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (k, Json.Int v) :: rest -> go ((k, v) :: acc) rest
          | (k, _) :: _ ->
              fail (Printf.sprintf "params.%s must be an integer" k)
        in
        go [] fields
    | Some _ -> fail "\"params\" must be an object of integers"
  in
  let* strategy =
    match Json.member "strategy" j with
    | None -> Ok None
    | Some (Json.Str s) -> (
        match Pipeline.Plan.strategy_of_string s with
        | Some st -> Ok (Some st)
        | None -> fail (Printf.sprintf "unknown strategy %S" s))
    | Some _ -> fail "\"strategy\" must be a string"
  in
  let* threads =
    match Json.member "threads" j with
    | None -> Ok None
    | Some (Json.Int t) when t >= 1 -> Ok (Some t)
    | Some _ -> fail "\"threads\" must be an integer >= 1"
  in
  let* survey =
    match Json.member "survey" j with
    | None -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> fail "\"survey\" must be a boolean"
  in
  let* deadline_s =
    match Json.member "deadline_s" j with
    | None -> Ok None
    | Some (Json.Float f) -> Ok (Some f)
    | Some (Json.Int n) -> Ok (Some (float_of_int n))
    | Some _ -> fail "\"deadline_s\" must be a number"
  in
  Ok
    {
      id;
      name;
      source = Src src;
      params;
      strategy;
      threads;
      mode;
      survey;
      deadline_s;
    }

let request_of_line line =
  match Json.parse line with
  | Error m -> Error { line_id = None; message = "not valid JSON: " ^ m }
  | Ok (Json.Obj _ as j) -> request_of_json j
  | Ok _ -> Error { line_id = None; message = "request must be a JSON object" }

let survey_json s =
  Json.Obj
    [
      ("class", Json.Str s.cls);
      ("coupled", Json.Bool s.coupled);
      ("via", Json.Str s.via);
    ]

(* ---- a Done body: encoded once, cached as bytes ---------------------- *)

(* The tag in front of every cached body, naming the reply format:
   change it whenever a body's bytes change, and an older build's
   payloads read as misses and are rewritten. *)
let payload_tag = "rpb2:"

(* The body's last member is the report, whose first member, the program
   name, is the one field that follows the requester.  The cached form
   leaves that member out; a reply puts it back after the first
   occurrence of this key (inside a JSON string every quote is escaped). *)
let report_key = "\"report\":{"

(* The substrings [(s, off, len)] concatenated in one allocation: a body
   runs to tens of kilobytes, and every copy is a major-heap block. *)
let concat_subs parts =
  let b = Bytes.create (List.fold_left (fun n (_, _, len) -> n + len) 0 parts) in
  ignore
    (List.fold_left
       (fun at (s, off, len) ->
         Bytes.blit_string s off b at len;
         at + len)
       0 parts);
  Bytes.unsafe_to_string b

let encode_done ?strategy ?describe ?survey ?report () =
  let members =
    List.filter_map
      (fun x -> x)
      [
        Option.map (fun s -> ("strategy", Json.Str s)) strategy;
        Option.map (fun d -> ("describe", Json.Str d)) describe;
        Option.map (fun s -> ("survey", survey_json s)) survey;
        Option.map
          (fun rep ->
            match Pipeline.Report.to_json rep with
            | Json.Obj (("program", _) :: (_ :: _ as rest)) ->
                ("report", Json.Obj rest)
            | _ -> invalid_arg "Proto.encode_done: report layout")
          report;
      ]
  in
  (* The body follows the envelope in the reply line: the members' own
     object with its opening brace turned into a comma. *)
  match members with
  | [] -> payload_tag ^ "}"
  | _ ->
      let s = Json.to_string (Json.Obj members) in
      let tl = String.length payload_tag in
      concat_subs [ (payload_tag, 0, tl); (",", 0, 1); (s, 1, String.length s - 1) ]

let readable payload = String.starts_with ~prefix:payload_tag payload

let find_from s ~from sub =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i =
    if i + m > n then None else if matches i 0 then Some i else go (i + 1)
  in
  go from

(* A payload's body, as substrings, with the program member for [name]
   spliced back in when the body has a report. *)
let body_parts ~name payload =
  let from = String.length payload_tag and len = String.length payload in
  match find_from payload ~from report_key with
  | None -> [ (payload, from, len - from) ]
  | Some i ->
      let at = i + String.length report_key in
      let member = "\"program\":" ^ Json.to_string (Json.Str name) ^ "," in
      let ml = String.length member in
      [ (payload, from, at - from); (member, 0, ml); (payload, at, len - at) ]

(* ---- the reply line -------------------------------------------------- *)

let envelope r =
  ("id", Json.Str r.id)
  :: (if r.trace = "" then [] else [ ("trace", Json.Str r.trace) ])
  @ [
      ("status", Json.Str (match r.body with Failed _ -> "error" | _ -> "ok"));
      ("cached", Json.Bool r.cached);
      ("queue_seconds", Json.Float r.queue_s);
      ("run_seconds", Json.Float r.run_s);
    ]

let response_to_line r =
  let members rest = Json.to_string (Json.Obj (envelope r @ rest)) in
  match r.body with
  | Done { payload; name } ->
      (* the envelope without its closing brace, then the body *)
      let env = members [] in
      concat_subs ((env, 0, String.length env - 1) :: body_parts ~name payload)
  | Stats { prometheus; snapshot } ->
      members [ ("prometheus", Json.Str prometheus); ("metrics", snapshot) ]
  | Healthy { ok; detail } ->
      members [ ("healthy", Json.Bool ok); ("health", detail) ]
  | Failed f ->
      members
        ([
           ("kind", Json.Str (failure_kind f));
           ("error", Json.Str (failure_message f));
         ]
        @
        match f with
        | Pipeline_error { stage; label; _ } ->
            [ ("stage", Json.Str stage); ("label", Json.Str label) ]
        | Overloaded { queue_depth; queue_capacity } ->
            [
              ("queue_depth", Json.Int queue_depth);
              ("queue_capacity", Json.Int queue_capacity);
            ]
        | _ -> [])

let error_response ?(id = "?") ?(trace = "") ?(queue_s = 0.0) ?(run_s = 0.0) f
    =
  { id; trace; cached = false; queue_s; run_s; body = Failed f }
