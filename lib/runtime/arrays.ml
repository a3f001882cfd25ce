type extent = { mutable lo : int array; mutable hi : int array }

type store = {
  ext : extent;
  mutable data : float array;  (** row-major with offsets from [ext] *)
}

type t = {
  tbl : (string, store) Hashtbl.t;
  mutable frozen : bool;
}

let create () = { tbl = Hashtbl.create 8; frozen = false }

let note_bounds t name idx =
  if t.frozen then invalid_arg "Arrays.note_bounds: already frozen";
  let idx = Array.of_list idx in
  match Hashtbl.find_opt t.tbl name with
  | None ->
      Hashtbl.add t.tbl name
        { ext = { lo = Array.copy idx; hi = Array.copy idx }; data = [||] }
  | Some s ->
      if Array.length idx <> Array.length s.ext.lo then
        invalid_arg ("Arrays: rank mismatch for " ^ name);
      Array.iteri
        (fun k v ->
          if v < s.ext.lo.(k) then s.ext.lo.(k) <- v;
          if v > s.ext.hi.(k) then s.ext.hi.(k) <- v)
        idx

(* Initial cell values: a per-array name hash mixed with the indices,
   outermost first.  [freeze] carries the mix of an index prefix down a
   row-major pass, so seeding a cell costs one [mix] and allocates
   nothing. *)
let[@inline] mix h v =
  let h = (h lxor v) * 0x3c79ac492ba7b653 in
  h lxor (h lsr 29)

let[@inline] value_of_hash h =
  float_of_int ((h land max_int) mod 1000) /. 97.0

let initial_value name idx =
  value_of_hash (List.fold_left mix (Hashtbl.hash name) idx)

let cell_count ext =
  Array.fold_left ( * ) 1
    (Array.mapi (fun k lo -> ext.hi.(k) - lo + 1) ext.lo)

let offset ext idx =
  let acc = ref 0 in
  List.iteri
    (fun k v ->
      if v < ext.lo.(k) || v > ext.hi.(k) then raise Not_found;
      acc := (!acc * (ext.hi.(k) - ext.lo.(k) + 1)) + (v - ext.lo.(k)))
    idx;
  !acc

let seed name ext =
  let rank = Array.length ext.lo in
  let data = Array.create_float (cell_count ext) in
  let off = ref 0 in
  let rec fill k h =
    if k = rank - 1 then
      for v = ext.lo.(k) to ext.hi.(k) do
        data.(!off) <- value_of_hash (mix h v);
        incr off
      done
    else
      for v = ext.lo.(k) to ext.hi.(k) do
        fill (k + 1) (mix h v)
      done
  in
  let h = Hashtbl.hash name in
  if rank = 0 then data.(0) <- value_of_hash h else fill 0 h;
  data

let freeze t =
  if not t.frozen then begin
    Hashtbl.iter (fun name s -> s.data <- seed name s.ext) t.tbl;
    t.frozen <- true
  end

let get t name idx =
  match Hashtbl.find_opt t.tbl name with
  | None -> initial_value name idx
  | Some s -> (
      match offset s.ext idx with
      | off -> s.data.(off)
      | exception Not_found -> initial_value name idx)

let set t name idx v =
  if not t.frozen then invalid_arg "Arrays.set: freeze first";
  match Hashtbl.find_opt t.tbl name with
  | None -> invalid_arg ("Arrays.set: unknown array " ^ name)
  | Some s -> (
      match offset s.ext idx with
      | off -> s.data.(off) <- v
      | exception Not_found ->
          invalid_arg
            (Printf.sprintf "Arrays.set: %s index out of scanned bounds" name))

type view = {
  v_lo : int array;
  v_hi : int array;
  v_strides : int array;
  v_data : float array;
}

let view t name =
  if not t.frozen then invalid_arg "Arrays.view: freeze first";
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some s ->
      let n = Array.length s.ext.lo in
      let strides = Array.make n 1 in
      for k = n - 2 downto 0 do
        strides.(k) <- strides.(k + 1) * (s.ext.hi.(k + 1) - s.ext.lo.(k + 1) + 1)
      done;
      Some
        {
          v_lo = Array.copy s.ext.lo;
          v_hi = Array.copy s.ext.hi;
          v_strides = strides;
          v_data = s.data;
        }

let arrays t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl [] |> List.sort compare

let max_abs_diff a b =
  List.fold_left
    (fun acc name ->
      match (Hashtbl.find_opt a.tbl name, Hashtbl.find_opt b.tbl name) with
      | Some sa, Some sb when Array.length sa.data = Array.length sb.data ->
          let m = ref acc in
          Array.iteri
            (fun k v ->
              let d = Float.abs (v -. sb.data.(k)) in
              if d > !m then m := d)
            sa.data;
          !m
      | _ -> infinity)
    0.0 (arrays a)

let equal a b = arrays a = arrays b && max_abs_diff a b = 0.0
