module Iset = Presburger.Iset
module Ivec = Linalg.Ivec

type t = { dim : int; data : int array; offsets : int array; longest : int }

let n_chains t = Array.length t.offsets - 1
let chain_length t k = t.offsets.(k + 1) - t.offsets.(k)
let total_points t = t.offsets.(Array.length t.offsets - 1)

let get t k i =
  if k < 0 || k >= n_chains t then invalid_arg "Chain.get: chain out of range";
  if i < 0 || i >= chain_length t k then
    invalid_arg "Chain.get: point out of range";
  Array.sub t.data ((t.offsets.(k) + i) * t.dim) t.dim

let to_lists t =
  List.init (n_chains t) (fun k -> List.init (chain_length t k) (get t k))

module Builder = struct
  type t = {
    bdim : int;
    mutable data : int array;
    mutable n : int;  (** points stored *)
    mutable offsets : int list;  (** closed-chain boundaries, reversed *)
    mutable longest : int;
    mutable open_len : int;  (** points in the chain being built *)
  }

  let create ~dim =
    if dim < 0 then invalid_arg "Chain.Builder.create: negative dimension";
    {
      bdim = dim;
      data = Array.make (max 1 (16 * dim)) 0;
      n = 0;
      offsets = [ 0 ];
      longest = 0;
      open_len = 0;
    }

  let add_point b (x : Ivec.t) =
    if Array.length x <> b.bdim then
      invalid_arg "Chain.Builder.add_point: dimension mismatch";
    let need = (b.n + 1) * b.bdim in
    if need > Array.length b.data then begin
      let data = Array.make (max need (2 * Array.length b.data)) 0 in
      Array.blit b.data 0 data 0 (b.n * b.bdim);
      b.data <- data
    end;
    Array.blit x 0 b.data (b.n * b.bdim) b.bdim;
    b.n <- b.n + 1;
    b.open_len <- b.open_len + 1

  let end_chain b =
    b.offsets <- b.n :: b.offsets;
    if b.open_len > b.longest then b.longest <- b.open_len;
    b.open_len <- 0

  let finish b =
    if b.open_len > 0 then end_chain b;
    {
      dim = b.bdim;
      data = Array.sub b.data 0 (b.n * b.bdim);
      offsets = Array.of_list (List.rev b.offsets);
      longest = b.longest;
    }
end

let of_lists ~dim chains =
  let b = Builder.create ~dim in
  List.iter
    (fun chain ->
      List.iter (Builder.add_point b) chain;
      Builder.end_chain b)
    chains;
  Builder.finish b

module VSet = Set.Make (struct
  type t = int array

  let compare = Ivec.compare_lex
end)

let decompose ~three ~rec_ ~phi ~params =
  let in_phi x = Iset.mem phi (Array.append x params) in
  let in_p2 x = Iset.mem three.Threeset.p2 (Array.append x params) in
  let n_p2 =
    List.length (Iset.points (Iset.bind_params three.Threeset.p2 params))
  in
  let w_points = Iset.points (Iset.bind_params three.Threeset.w params) in
  let dim =
    match w_points with
    | x :: _ -> Array.length x
    | [] -> Iset.n_iters three.Threeset.p2
  in
  let b = Builder.create ~dim in
  let seen = ref VSet.empty in
  List.iter
    (fun start ->
      if not (in_p2 start) then
        Diag.fail
          (Diag.Outside_partition
             ("chain start " ^ Ivec.to_string start ^ " not in P2"));
      let rec walk x =
        if VSet.mem x !seen then
          Diag.fail (Diag.Lemma1_violation "chains intersect");
        seen := VSet.add x !seen;
        Builder.add_point b x;
        match Recurrence.successor rec_ ~in_phi x with
        | Some y when in_p2 y -> walk y
        | Some _ | None -> ()
      in
      walk start;
      Builder.end_chain b)
    w_points;
  let covered = VSet.cardinal !seen in
  if covered <> n_p2 then
    Diag.fail (Diag.Chain_cover { covered; expected = n_p2 });
  Builder.finish b
