module Iset = Presburger.Iset

let diameter set ~params =
  let pts = Iset.points (Iset.bind_params set params) in
  match pts with
  | [] -> 0.0
  | p0 :: _ ->
      let n = Array.length p0 in
      let lo = Array.copy p0 and hi = Array.copy p0 in
      List.iter
        (fun p ->
          for k = 0 to n - 1 do
            if p.(k) < lo.(k) then lo.(k) <- p.(k);
            if p.(k) > hi.(k) then hi.(k) <- p.(k)
          done)
        pts;
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        let d = float_of_int (hi.(k) - lo.(k)) in
        acc := !acc +. (d *. d)
      done;
      sqrt !acc

let bound ~growth ~diameter =
  if growth <= 1.0 || diameter <= 0.0 then None
  else Some (int_of_float (ceil (log diameter /. log growth)) + 1)

let check (c : Chain.t) ~bound = c.Chain.longest <= bound
