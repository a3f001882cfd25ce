(* Per-domain nesting depth: spans never cross domains, so a plain DLS
   counter is race-free. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let with_ ?log ~name ?(args = []) f =
  let log = match log with Some l -> l | None -> Event.ambient () in
  let log_on = Event.enabled log in
  if not (log_on || Flight.enabled ()) then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    let t0 = Clock.now_ns () in
    let finish () =
      depth := d;
      let dur_ns = Int64.sub (Clock.now_ns ()) t0 in
      let tid = (Domain.self () :> int) in
      (* Request attribution: a span closed while an Obs.Ctx is installed
         carries its trace id, whichever domain it ran on. *)
      let req = Ctx.current_id () in
      if log_on then
        Event.record log
          {
            Event.scope = "";
            name;
            severity = Event.Info;
            fields =
              List.map
                (fun (k, v) -> (k, Event.Str v))
                (match req with Some id -> ("req", id) :: args | None -> args);
            tid;
            t_ns = t0;
            seq = -1;
            dur_ns;
            depth = d;
            span = true;
          };
      Flight.record
        {
          Flight.kind = "span";
          scope = "";
          name;
          req = Option.value req ~default:"";
          tid;
          t_ns = t0;
          dur_ns;
          detail = args;
        }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end
