module S = Numeric.Safeint

(* One array.  Until [freeze] the extent grows and [log] records the
   cells the scan marked; freeze then fixes the layout, and the present
   pages live back to back in [slab], in page order. *)
type arr = {
  name : string;
  seed : int;  (** [Hashtbl.hash name]: where every cell's mix starts *)
  mutable frozen : bool;
  mutable noted : bool;
  mutable lo : int array;
  mutable hi : int array;
  mutable log : int array;
      (** records [n; first…] for a cell ([n] = 1) or [n; first…; last…]
          for a run of [n] cells *)
  mutable log_len : int;
  mutable every_page : bool;  (** the log was dropped: mark every page *)
  mutable strides : int array;
  mutable cells : int;
  mutable shift : int;
  mutable table : int array;
      (** page [k]'s first cell in [slab], or [absent]; shared by the
          stores made from an image, since no page appears after
          freeze *)
  mutable slab : float array;
}

type handle = arr
type t = { tbl : (string, arr) Hashtbl.t; mutable frozen : bool }

(* An absent page's table entry: any cell offset added to it stays
   negative, so an unchecked slab access through it fails its bounds
   check. *)
let absent = min_int

let create () = { tbl = Hashtbl.create 8; frozen = false }

let fresh ~frozen name =
  {
    name;
    seed = Hashtbl.hash name;
    frozen;
    noted = false;
    lo = [||];
    hi = [||];
    log = [||];
    log_len = 0;
    every_page = false;
    strides = [||];
    cells = 0;
    shift = 0;
    table = [||];
    slab = [||];
  }

let handle t name =
  match Hashtbl.find_opt t.tbl name with
  | Some h -> h
  | None ->
      let h = fresh ~frozen:t.frozen name in
      if not t.frozen then Hashtbl.add t.tbl name h;
      h

(* ---- the scan's notes ------------------------------------------------- *)

let extend (h : handle) idx =
  if h.frozen then invalid_arg "Arrays.note_bounds: already frozen";
  if not h.noted then begin
    h.noted <- true;
    h.lo <- Array.copy idx;
    h.hi <- Array.copy idx
  end
  else begin
    let lo = h.lo and hi = h.hi in
    if Array.length idx <> Array.length lo then
      invalid_arg ("Arrays: rank mismatch for " ^ h.name);
    for k = 0 to Array.length idx - 1 do
      let v = idx.(k) in
      if v < lo.(k) then lo.(k) <- v;
      if v > hi.(k) then hi.(k) <- v
    done
  end

(* The extent's cell count; raises [Safeint.Overflow]. *)
let cell_count h =
  let c = ref 1 in
  Array.iteri (fun k lo -> c := S.mul !c (S.add (S.sub h.hi.(k) lo) 1)) h.lo;
  !c

(* Whether the log has room for [k] more entries, growing it if so.  A
   log that would hold more entries than the extent so far has cells
   costs more to keep and replay than seeding the whole extent, so it is
   dropped and every page is marked.  A log under [log_floor] entries is
   always kept: early in a scan the extent is still small, and such a
   log is cheap. *)
let log_floor = 4096

let room h k =
  let need = h.log_len + k in
  if h.every_page then false
  else if need <= Array.length h.log then true
  else begin
    let size = max need (max 64 (2 * Array.length h.log)) in
    let cells = try cell_count h with S.Overflow -> max_int in
    if size > log_floor && size > cells then begin
      h.every_page <- true;
      h.log <- [||];
      h.log_len <- 0;
      false
    end
    else begin
      let log = Array.make size 0 in
      Array.blit h.log 0 log 0 h.log_len;
      h.log <- log;
      true
    end
  end

let push_tuple h idx =
  Array.blit idx 0 h.log h.log_len (Array.length idx);
  h.log_len <- h.log_len + Array.length idx

let note h idx =
  extend h idx;
  if room h (1 + Array.length idx) then begin
    h.log.(h.log_len) <- 1;
    h.log_len <- h.log_len + 1;
    push_tuple h idx
  end

let note_run h first last n =
  extend h first;
  extend h last;
  if room h (1 + (2 * Array.length first)) then begin
    h.log.(h.log_len) <- n;
    h.log_len <- h.log_len + 1;
    push_tuple h first;
    push_tuple h last
  end

let note_index t name idx = note (handle t name) idx
let note_bounds t name idx = note_index t name (Array.of_list idx)

(* ---- initial values --------------------------------------------------- *)

(* Initial cell values: a per-array name hash mixed with the indices,
   outermost first, reduced modulo 1000 to an entry of [seed_table].
   Seeding carries the mix of an index prefix along a row, so a cell
   costs one [mix] and one table read, and allocates nothing. *)
let[@inline] mix h v =
  let h = (h lxor v) * 0x3c79ac492ba7b653 in
  h lxor (h lsr 29)

let seed_table = Array.init 1000 (fun k -> float_of_int k /. 97.0)
let seed_value k = seed_table.(k)

let[@inline] value_of_hash h =
  Array.unsafe_get seed_table ((h land max_int) mod 1000)

let initial_value_index name idx =
  value_of_hash (Array.fold_left mix (Hashtbl.hash name) idx)

let initial_value name idx = initial_value_index name (Array.of_list idx)
let initial_cell h idx = value_of_hash (Array.fold_left mix h.seed idx)

(* ---- layout ----------------------------------------------------------- *)

(* Pages hold 2^6 cells at least and 2^20 at most, and a table holds at
   most 2^16 pages. *)
let min_shift = 6
let max_shift = 20
let max_pages_log = 16

(* The least [k] with [2^k ≥ n], for [1 ≤ n ≤ max_int]. *)
let ceil_log2 n =
  let rec go k =
    if k >= Sys.int_size - 1 || 1 lsl k >= n then k else go (k + 1)
  in
  go 0

let lay_out h =
  let cells =
    try cell_count h with S.Overflow -> Diag.fail (Diag.Extent_overflow h.name)
  in
  let rank = Array.length h.lo in
  let strides = Array.make rank 1 in
  for k = rank - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * (h.hi.(k + 1) - h.lo.(k + 1) + 1)
  done;
  let shift = max min_shift (ceil_log2 cells - max_pages_log) in
  if shift > max_shift then Diag.fail (Diag.Extent_overflow h.name);
  h.strides <- strides;
  h.cells <- cells;
  h.shift <- shift;
  h.table <- Array.make (((cells - 1) lsr shift) + 1) absent

let page_len h k = min (1 lsl h.shift) (h.cells - (k lsl h.shift))

(* The [len] cells from flat offset [off] into [dst] from [base], in
   row-major order: the first index tuple is decoded from [off], then
   each row segment mixes its prefix once. *)
let seed_range h off len dst base =
  if base < 0 || base + len > Array.length dst then invalid_arg "Arrays.seed";
  let rank = Array.length h.lo in
  if rank = 0 then dst.(base) <- value_of_hash h.seed
  else begin
    let lo = h.lo and hi = h.hi and last = rank - 1 in
    let idx = Array.make rank 0 in
    let rem = ref off in
    for d = 0 to last do
      idx.(d) <- lo.(d) + (!rem / h.strides.(d));
      rem := !rem mod h.strides.(d)
    done;
    let done_ = ref 0 in
    while !done_ < len do
      let hp = ref h.seed in
      for d = 0 to last - 1 do
        hp := mix !hp idx.(d)
      done;
      let v0 = idx.(last) in
      let run = min (hi.(last) - v0 + 1) (len - !done_) in
      let hp = !hp and o = base + !done_ in
      for j = 0 to run - 1 do
        Array.unsafe_set dst (o + j) (value_of_hash (mix hp (v0 + j)))
      done;
      done_ := !done_ + run;
      idx.(last) <- v0 + run;
      let d = ref last in
      while !d > 0 && idx.(!d) > hi.(!d) do
        idx.(!d) <- lo.(!d);
        idx.(!d - 1) <- idx.(!d - 1) + 1;
        decr d
      done
    done
  end

(* The flat offset of the tuple at [log.(i)…]: a noted tuple lies in
   the extent, so its offset lies in [0, cells) and cannot overflow. *)
let log_offset h i =
  let off = ref 0 in
  for d = 0 to Array.length h.lo - 1 do
    off := !off + ((h.log.(i + d) - h.lo.(d)) * h.strides.(d))
  done;
  !off

(* Mark (table entry 0) the page of every logged cell and run.  A run's
   offsets step evenly by [step]: when a step is no longer than a page
   the run crosses every page between its ends, otherwise each cell is
   on a page of its own. *)
let mark h =
  let rank = Array.length h.lo and sh = h.shift and table = h.table in
  if h.every_page then Array.fill table 0 (Array.length table) 0;
  let pos = ref 0 in
  while !pos < h.log_len do
    let n = h.log.(!pos) in
    let a = log_offset h (!pos + 1) in
    if n = 1 then begin
      table.(a lsr sh) <- 0;
      pos := !pos + 1 + rank
    end
    else begin
      let b = log_offset h (!pos + 1 + rank) in
      let step = (b - a) / (n - 1) in
      if abs step <= 1 lsl sh then begin
        let first = min a b lsr sh and last = max a b lsr sh in
        Array.fill table first (last - first + 1) 0
      end
      else
        for j = 0 to n - 1 do
          table.((a + (j * step)) lsr sh) <- 0
        done;
      pos := !pos + 1 + (2 * rank)
    end
  done;
  h.log <- [||];
  h.log_len <- 0

(* Give each marked page its place in the slab, then seed each run of
   consecutive present pages, which is contiguous both in the extent and
   in the slab, in one pass. *)
let fill h =
  let table = h.table and pages = Array.length h.table in
  let size = ref 0 in
  for k = 0 to pages - 1 do
    if table.(k) <> absent then begin
      table.(k) <- !size;
      size := !size + page_len h k
    end
  done;
  let slab = Array.create_float !size in
  let k = ref 0 in
  while !k < pages do
    if table.(!k) = absent then incr k
    else begin
      let first = !k in
      while !k < pages && table.(!k) <> absent do
        incr k
      done;
      let off = first lsl h.shift in
      seed_range h off (min h.cells (!k lsl h.shift) - off) slab table.(first)
    end
  done;
  h.slab <- slab

let freeze t =
  if not t.frozen then begin
    Hashtbl.filter_map_inplace
      (fun _ (h : arr) ->
        h.frozen <- true;
        if h.noted then Some h else None)
      t.tbl;
    Hashtbl.iter
      (fun _ h ->
        lay_out h;
        mark h;
        fill h)
      t.tbl;
    t.frozen <- true
  end

(* ---- cells -------------------------------------------------------------- *)

(* The flat offset of an index tuple; -1 outside the extent. *)
let offset h idx =
  let lo = h.lo and hi = h.hi in
  let rec go k acc =
    if k = Array.length idx then acc
    else
      let v = idx.(k) in
      if v < lo.(k) || v > hi.(k) then -1
      else go (k + 1) ((acc * (hi.(k) - lo.(k) + 1)) + (v - lo.(k)))
  in
  go 0 0

(* The cell's place in the slab; negative outside the extent or on an
   absent page. *)
let slot h idx =
  let off = offset h idx in
  if off < 0 then -1
  else
    let base = h.table.(off lsr h.shift) in
    if base = absent then -1 else base + (off land ((1 lsl h.shift) - 1))

let read h idx =
  if not h.noted then initial_cell h idx
  else
    let s = slot h idx in
    if s < 0 then initial_cell h idx else h.slab.(s)

let write (h : handle) idx v =
  if not h.frozen then invalid_arg "Arrays.set: freeze first";
  if not h.noted then invalid_arg ("Arrays.set: unknown array " ^ h.name);
  let s = slot h idx in
  if s < 0 then
    invalid_arg
      (Printf.sprintf "Arrays.set: %s index out of scanned bounds" h.name)
  else h.slab.(s) <- v

let get_index t name idx = read (handle t name) idx

let set_index t name idx v = write (handle t name) idx v

let get t name idx = get_index t name (Array.of_list idx)
let set t name idx v = set_index t name (Array.of_list idx) v

(* ---- images ----------------------------------------------------------- *)

type cells = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Each array's frozen record with an empty slab, beside its cells.  No
   store changes a layout after freeze, so the records' extents, strides
   and page tables are shared with every store made from the image; the
   cells sit in one Float64 bigarray per array, off the OCaml heap.  They
   are copied in by a plain unboxed loop, once per image, and out by one
   [memcpy] per array, once per store. *)
type image = (arr * cells) array

external unsafe_blit_cells :
  cells -> int -> float array -> int -> int -> unit = "runtime_blit_cells"
[@@noalloc]

(* [len] cells of [src] from [src_off] into [dst] from [dst_off].  The
   stub trusts its ranges, so they are checked here. *)
let blit_cells (src : cells) src_off dst dst_off len =
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off > Bigarray.Array1.dim src - len
    || dst_off > Array.length dst - len
  then invalid_arg "Arrays.blit_cells";
  if len > 0 then unsafe_blit_cells src src_off dst dst_off len

let image t =
  if not t.frozen then invalid_arg "Arrays.image: freeze first";
  Hashtbl.fold
    (fun _ h acc ->
      let n = Array.length h.slab in
      let cells = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set cells i (Array.unsafe_get h.slab i)
      done;
      ({ h with slab = [||] }, cells) :: acc)
    t.tbl []
  |> Array.of_list

let of_image (img : image) =
  let tbl = Hashtbl.create (Array.length img) in
  Array.iter
    (fun (h, (cells : cells)) ->
      let n = Bigarray.Array1.dim cells in
      let slab = Array.create_float n in
      blit_cells cells 0 slab 0 n;
      Hashtbl.add tbl h.name { h with slab })
    img;
  { tbl; frozen = true }

type view = {
  v_lo : int array;
  v_hi : int array;
  v_strides : int array;
  v_shift : int;
  v_table : int array;
  v_slab : float array;
}

let view t name =
  if not t.frozen then invalid_arg "Arrays.view: freeze first";
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some h ->
      Some
        {
          v_lo = Array.copy h.lo;
          v_hi = Array.copy h.hi;
          v_strides = Array.copy h.strides;
          v_shift = h.shift;
          v_table = h.table;
          v_slab = h.slab;
        }

let arrays t =
  Hashtbl.fold (fun name h acc -> if h.noted then name :: acc else acc) t.tbl []
  |> List.sort compare

let seeded_cells t =
  Hashtbl.fold (fun _ h acc -> acc + Array.length h.slab) t.tbl 0

(* [f xs xi ys yi len] over the matching cells of [x] and [y], which
   share a layout: the two slabs whole when they hold the same pages,
   otherwise page by page, an absent page seeded aside (two absent
   pages of arrays that start alike are skipped). *)
let iter_segments f x y =
  if x.table == y.table || x.table = y.table then
    f x.slab 0 y.slab 0 (Array.length x.slab)
  else
    for k = 0 to Array.length x.table - 1 do
      let bx = x.table.(k) and by = y.table.(k) in
      if not (bx = absent && by = absent && x.lo = y.lo) then begin
        let side h b =
          if b <> absent then (h.slab, b)
          else begin
            let p = Array.create_float (page_len h k) in
            seed_range h (k lsl h.shift) (page_len h k) p 0;
            (p, 0)
          end
        in
        let px, ox = side x bx and py, oy = side y by in
        f px ox py oy (page_len x k)
      end
    done

let max_abs_diff a b =
  List.fold_left
    (fun acc name ->
      match (Hashtbl.find_opt a.tbl name, Hashtbl.find_opt b.tbl name) with
      | Some x, Some y
        when x.cells = y.cells && Array.length x.table = Array.length y.table
        ->
          let m = ref acc in
          iter_segments
            (fun xs xi ys yi len ->
              for j = 0 to len - 1 do
                let d = Float.abs (xs.(xi + j) -. ys.(yi + j)) in
                if d > !m then m := d
              done)
            x y;
          !m
      | _ -> infinity)
    0.0 (arrays a)

(* Bit for bit: a NaN cell differs from every other value, and -0.0
   from 0.0, which a tolerance test would both miss. *)
exception Differ

let same_cells x y =
  Array.length x.table = Array.length y.table
  &&
  match
    iter_segments
      (fun xs xi ys yi len ->
        for j = 0 to len - 1 do
          if
            Int64.bits_of_float xs.(xi + j) <> Int64.bits_of_float ys.(yi + j)
          then raise Differ
        done)
      x y
  with
  | () -> true
  | exception Differ -> false

let equal a b =
  arrays a = arrays b
  && List.for_all
       (fun name ->
         let x = Hashtbl.find a.tbl name and y = Hashtbl.find b.tbl name in
         x.lo = y.lo && x.hi = y.hi && same_cells x y)
       (arrays a)
