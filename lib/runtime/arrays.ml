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

let note_index t name idx =
  if t.frozen then invalid_arg "Arrays.note_bounds: already frozen";
  match Hashtbl.find_opt t.tbl name with
  | None ->
      Hashtbl.add t.tbl name
        { ext = { lo = Array.copy idx; hi = Array.copy idx }; data = [||] }
  | Some s ->
      let lo = s.ext.lo and hi = s.ext.hi in
      if Array.length idx <> Array.length lo then
        invalid_arg ("Arrays: rank mismatch for " ^ name);
      for k = 0 to Array.length idx - 1 do
        let v = idx.(k) in
        if v < lo.(k) then lo.(k) <- v;
        if v > hi.(k) then hi.(k) <- v
      done

let note_bounds t name idx = note_index t name (Array.of_list idx)

(* Initial cell values: a per-array name hash mixed with the indices,
   outermost first.  [freeze] carries the mix of an index prefix down a
   row-major pass, so seeding a cell costs one [mix] and allocates
   nothing. *)
let[@inline] mix h v =
  let h = (h lxor v) * 0x3c79ac492ba7b653 in
  h lxor (h lsr 29)

let[@inline] value_of_hash h =
  float_of_int ((h land max_int) mod 1000) /. 97.0

let initial_value_index name idx =
  value_of_hash (Array.fold_left mix (Hashtbl.hash name) idx)

let initial_value name idx = initial_value_index name (Array.of_list idx)

let cell_count ext =
  Array.fold_left ( * ) 1
    (Array.mapi (fun k lo -> ext.hi.(k) - lo + 1) ext.lo)

(* The flat offset of an index tuple; -1 outside the extent. *)
let offset ext idx =
  let lo = ext.lo and hi = ext.hi in
  let rec go k acc =
    if k = Array.length idx then acc
    else
      let v = idx.(k) in
      if v < lo.(k) || v > hi.(k) then -1
      else go (k + 1) ((acc * (hi.(k) - lo.(k) + 1)) + (v - lo.(k)))
  in
  go 0 0

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

let get_index t name idx =
  match Hashtbl.find_opt t.tbl name with
  | None -> initial_value_index name idx
  | Some s ->
      let off = offset s.ext idx in
      if off < 0 then initial_value_index name idx else s.data.(off)

let set_index t name idx v =
  if not t.frozen then invalid_arg "Arrays.set: freeze first";
  match Hashtbl.find_opt t.tbl name with
  | None -> invalid_arg ("Arrays.set: unknown array " ^ name)
  | Some s ->
      let off = offset s.ext idx in
      if off < 0 then
        invalid_arg
          (Printf.sprintf "Arrays.set: %s index out of scanned bounds" name)
      else s.data.(off) <- v

let get t name idx = get_index t name (Array.of_list idx)
let set t name idx v = set_index t name (Array.of_list idx) v

let copy t =
  let tbl = Hashtbl.create (Hashtbl.length t.tbl) in
  Hashtbl.iter
    (fun name s ->
      Hashtbl.add tbl name
        {
          ext = { lo = Array.copy s.ext.lo; hi = Array.copy s.ext.hi };
          data = Array.copy s.data;
        })
    t.tbl;
  { tbl; frozen = t.frozen }

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

(* Bit for bit: a NaN cell differs from every other value, and -0.0
   from 0.0, which a tolerance test would both miss. *)
let same_cells x y =
  let n = Array.length x in
  n = Array.length y
  &&
  let rec go k =
    k = n
    || Int64.bits_of_float x.(k) = Int64.bits_of_float y.(k) && go (k + 1)
  in
  go 0

let equal a b =
  arrays a = arrays b
  && List.for_all
       (fun name ->
         let sa = Hashtbl.find a.tbl name and sb = Hashtbl.find b.tbl name in
         sa.ext.lo = sb.ext.lo && sa.ext.hi = sb.ext.hi
         && same_cells sa.data sb.data)
       (arrays a)
