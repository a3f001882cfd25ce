(* Tests for the hash-consing/memoization substrate: Numeric.Digest, the
   Presburger.Hc tables, the Iset/Rel union dedup, and — via QCheck —
   extensional agreement between every memoized operator and its
   unmemoized reference computation. *)

module D = Numeric.Digest
module Hc = Presburger.Hc
module L = Presburger.Linexpr
module C = Presburger.Constr
module P = Presburger.Poly
module Iset = Presburger.Iset
module Rel = Presburger.Rel
module Service = Svc.Service
module Proto = Svc.Proto

let ge _n coef const = C.Ge (L.make (Array.of_list coef) const)
let eq _n coef const = C.Eq (L.make (Array.of_list coef) const)

let box n lo hi =
  List.concat
    (List.init n (fun k ->
         [
           C.Ge (L.add_const (L.var n k) (-lo));
           C.Ge (L.add_const (L.neg (L.var n k)) hi);
         ]))

let rec box_points n lo hi =
  if n = 0 then [ [] ]
  else
    let rest = box_points (n - 1) lo hi in
    List.concat_map
      (fun v -> List.map (fun tl -> v :: tl) rest)
      (List.init (hi - lo + 1) (fun i -> lo + i))

let with_memo_disabled f =
  Hc.set_enabled false;
  Fun.protect ~finally:(fun () -> Hc.set_enabled true) f

(* ------------------------------------------------------------------ *)
(* Digest                                                               *)

let test_digest_basics () =
  (* The seed is the FNV-1a 64-bit offset basis on lane a and its
     byte-rotated form on lane b — pinned, since Svc.Key's cache keys and
     every memo table key derive from it. *)
  Alcotest.(check string)
    "seed pins the two FNV lanes" "cbf29ce48422232584222325cbf29ce4"
    (D.to_hex D.seed);
  let h = D.to_hex (D.of_string "recurrence") in
  Alcotest.(check int) "hex width" 32 (String.length h);
  Alcotest.(check string) "deterministic" h (D.to_hex (D.of_string "recurrence"));
  Alcotest.(check bool)
    "distinct inputs" false
    (D.equal (D.of_string "a") (D.of_string "b"));
  Alcotest.(check bool)
    "int feeding is order-sensitive" false
    (D.equal
       (D.add_int (D.add_int D.seed 1) 2)
       (D.add_int (D.add_int D.seed 2) 1));
  Alcotest.(check bool)
    "add_digest is not string append" false
    (D.equal (D.add_digest D.seed (D.of_string "x")) (D.of_string "x"));
  Alcotest.(check int)
    "compare consistent with equal" 0
    (D.compare (D.of_string "chain") (D.of_string "chain"))

(* [Numeric.Digest] as it was before it folded bytes over local
   accumulators, kept as its reference: one fresh record per byte. *)
module Bytewise = struct
  let prime = 0x100000001b3L

  let add_byte (t : D.t) c =
    let x = Int64.of_int (c land 0xff) in
    {
      D.a = Int64.mul (Int64.logxor t.D.a x) prime;
      b = Int64.mul (Int64.logxor t.D.b x) prime;
    }

  let add_string t s =
    String.fold_left (fun t c -> add_byte t (Char.code c)) t s

  let add_int64 t x =
    let acc = ref t in
    for i = 0 to 7 do
      acc :=
        add_byte !acc
          (Int64.to_int
             (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL))
    done;
    !acc

  let add_int t n = add_int64 t (Int64.of_int n)
  let add_digest t (d : D.t) = add_int64 (add_int64 t d.D.a) d.D.b
end

(* Random strings, then ints with 0, -1, [min_int] and [max_int] among
   them, fed to both implementations from one random start. *)
let prop_digest_matches_bytewise =
  let open QCheck2.Gen in
  let special = oneofl [ 0; 1; -1; 255; 256; -256; min_int; max_int ] in
  QCheck2.Test.make ~name:"digest = byte-at-a-time reference" ~count:500
    (triple
       (string_size (int_bound 600))
       (list_size (int_bound 6) (oneof [ int; special ]))
       (pair ui64 ui64))
    (fun (s, ns, (a, b)) ->
      let start = { D.a; b } in
      let fold add_s add_i add_d =
        let t = add_s start s in
        let t = List.fold_left add_i t ns in
        add_d t (add_s D.seed s)
      in
      D.equal
        (fold D.add_string D.add_int D.add_digest)
        (fold Bytewise.add_string Bytewise.add_int Bytewise.add_digest)
      && D.equal
           (String.fold_left D.add_char start s)
           (Bytewise.add_string start s)
      && D.equal
           (List.fold_left (fun t n -> D.add_int64 t (Int64.of_int n)) start ns)
           (List.fold_left
              (fun t n -> Bytewise.add_int64 t (Int64.of_int n))
              start ns))

(* Hex values computed by the byte-at-a-time code: the cache keys, the
   store's checksums and the memo keys all derive from these. *)
let test_digest_pinned () =
  List.iter
    (fun (n, hex) ->
      Alcotest.(check string)
        (Printf.sprintf "add_int %d" n)
        hex
        (D.to_hex (D.add_int D.seed n)))
    [
      (0, "a8c7f832281a39c5e2f51678cc7c2164");
      (1, "89cd31291d2aefa401efdd81d76b6b85");
      (-1, "8cf51a8bfca3883d513e8a6455d57ddc");
      (256, "e3757ca7d64666eaa84792031e4ff43f");
      (-123456789, "b27a9f5f342245302ad54ae5fcfb0e85");
      (min_int, "a8c7b8322819cd05e2f5d678cc7d67a4");
      (max_int, "8cf55a8bfca3f4fd513e4a6455d5111c");
    ];
  List.iter
    (fun (x, hex) ->
      Alcotest.(check string)
        (Printf.sprintf "add_int64 %Ld" x)
        hex
        (D.to_hex (D.add_int64 D.seed x)))
    [
      (0L, "a8c7f832281a39c5e2f51678cc7c2164");
      (-1L, "8cf51a8bfca3883d513e8a6455d57ddc");
      (Int64.min_int, "a8c7783228196045e2f59678cc7cfae4");
      (Int64.max_int, "8cf59a8bfca461bd513e0a6455d4a45c");
      (0x0123456789abcdefL, "37eb3f3347761c55e89e5fcb4f3289a4");
    ];
  Alcotest.(check string) "of_string" "22a69fe4e613649f622f8064d2d99c8a"
    (D.to_hex (D.of_string "recurrence"));
  Alcotest.(check string) "add_digest" "cee4ca0d8c2026fec3047d96c77c231f"
    (D.to_hex (D.add_digest D.seed (D.of_string "recurrence")))

(* A 3.4 KB string, the size of a served reply, costs one result (the
   byte-at-a-time code allocated 9 words a byte, ~30,600 here): exact
   per-domain counters. *)
let test_digest_allocation () =
  let s = String.init 3400 (fun i -> Char.chr (i * 7 land 0xff)) in
  ignore (D.add_string D.seed s);
  let p = Obs.Gcstats.mark () in
  let d = D.add_string D.seed s in
  let words = Obs.Gcstats.words_since p in
  Alcotest.(check bool) "same digest" true
    (D.equal d (Bytewise.add_string D.seed s));
  if words > 32.0 then
    Alcotest.failf "add_string on 3,400 bytes allocated %.0f words (limit 32)"
      words;
  let p = Obs.Gcstats.mark () in
  ignore (D.add_int (D.add_digest D.seed d) max_int);
  let words = Obs.Gcstats.words_since p in
  if words > 32.0 then
    Alcotest.failf "add_digest + add_int allocated %.0f words (limit 32)" words

let test_poly_digest_syntactic () =
  let p1 = P.make 2 [ ge 2 [ 1; 2 ] 3; eq 2 [ 1; -1 ] 0 ] in
  let p2 = P.make 2 [ ge 2 [ 1; 2 ] 3; eq 2 [ 1; -1 ] 0 ] in
  let p3 = P.make 2 [ eq 2 [ 1; -1 ] 0; ge 2 [ 1; 2 ] 3 ] in
  Alcotest.(check bool)
    "same syntax, same digest" true
    (D.equal (P.digest p1) (P.digest p2));
  (* Digests are order-sensitive so interning never reorders constraint
     lists; multiset equality is the job of equal_syntactic. *)
  Alcotest.(check bool)
    "reordered constraints, different digest" false
    (D.equal (P.digest p1) (P.digest p3));
  Alcotest.(check bool) "equal_syntactic ignores order" true
    (P.equal_syntactic p1 p3)

let test_intern_sharing () =
  let mk () = P.make 2 [ ge 2 [ 1; 2 ] 3; eq 2 [ 1; -1 ] 0 ] in
  let a = P.intern (mk ()) in
  let b = P.intern (mk ()) in
  Alcotest.(check bool) "physically shared" true (a == b)

(* ------------------------------------------------------------------ *)
(* Hc tables                                                            *)

let key i = D.add_int D.seed i

let test_memo_lru () =
  let t : int Hc.memo = Hc.memo ~shards:1 ~name:"test.lru" ~capacity:4 () in
  for i = 0 to 3 do
    Hc.add t (key i) i
  done;
  Alcotest.(check int) "filled to capacity" 4 (Hc.length t);
  (* Touch key 0 so key 1 becomes the eviction victim. *)
  Alcotest.(check bool) "find hits" true (Hc.find t (key 0) = Some 0);
  Hc.add t (key 4) 4;
  Alcotest.(check int) "capacity bound holds" 4 (Hc.length t);
  Alcotest.(check bool)
    "recently-used key survives" true
    (Hc.find t (key 0) <> None);
  Alcotest.(check bool) "LRU key evicted" true (Hc.find t (key 1) = None)

let test_memo_get () =
  let t : int Hc.memo = Hc.memo ~shards:1 ~name:"test.get" ~capacity:8 () in
  let calls = ref 0 in
  let f () =
    incr calls;
    42
  in
  Alcotest.(check int) "computed on miss" 42 (Hc.get t (key 10) f);
  Alcotest.(check int) "served on hit" 42 (Hc.get t (key 10) f);
  Alcotest.(check int) "computed exactly once" 1 !calls;
  (* Exceptions propagate and cache nothing. *)
  (match Hc.get t (key 11) (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the compute exception"
  | exception Failure _ -> ());
  Alcotest.(check int)
    "failed compute was not cached" 7
    (Hc.get t (key 11) (fun () -> 7));
  Hc.clear_all ();
  Alcotest.(check int) "clear_all empties the table" 0 (Hc.length t)

let test_memo_disabled () =
  let t : int Hc.memo = Hc.memo ~shards:1 ~name:"test.off" ~capacity:8 () in
  with_memo_disabled (fun () ->
      Alcotest.(check bool) "reports disabled" false (Hc.enabled ());
      let calls = ref 0 in
      let f () =
        incr calls;
        1
      in
      ignore (Hc.get t (key 1) f);
      ignore (Hc.get t (key 1) f);
      Alcotest.(check int) "no caching when disabled" 2 !calls;
      Alcotest.(check int) "table untouched" 0 (Hc.length t));
  Alcotest.(check bool) "re-enabled" true (Hc.enabled ())

(* ------------------------------------------------------------------ *)
(* Iset/Rel union dedup (regression: union used to append verbatim)     *)

let test_union_dedup () =
  let iters = [| "i"; "j" |] and params = [||] in
  let p1 = P.make 2 (box 2 0 10) in
  let p2 = P.make 2 (eq 2 [ 1; -1 ] 0 :: box 2 0 10) in
  let s0 = Iset.make ~iters ~params [ p1; p2 ] in
  let s = ref s0 in
  for _ = 1 to 10 do
    s := Iset.union !s !s
  done;
  Alcotest.(check int)
    "iterated self-union keeps the disjunct list bounded" 2
    (List.length (Iset.polys !s));
  Alcotest.(check bool) "and is still the same set" true (Iset.equal !s s0);
  let a = Iset.make ~iters ~params [ p1 ] in
  let b = Iset.make ~iters ~params [ p2 ] in
  Alcotest.(check int)
    "distinct disjuncts are both kept" 2
    (List.length (Iset.polys (Iset.union a b)))

let test_rel_union_dedup () =
  let inn = [| "i" |] and out = [| "j" |] and params = [||] in
  let p = P.make 2 (eq 2 [ 1; -1 ] 1 :: box 2 0 10) in
  let r = Rel.make ~inn ~out ~params [ p; p ] in
  Alcotest.(check int)
    "self-union dedups" 2
    (List.length (Rel.polys (Rel.union r r)))

(* ------------------------------------------------------------------ *)
(* Memoized operators ≡ unmemoized reference (extensional)              *)

let gen_constr n =
  QCheck2.Gen.(
    let* kind = int_range 0 2 in
    let* coef = array_size (pure n) (int_range (-3) 3) in
    let* const = int_range (-8) 8 in
    match kind with
    | 0 -> pure (C.Ge (L.make coef const))
    | 1 -> pure (C.Eq (L.make coef const))
    | _ ->
        let* m = int_range 2 4 in
        pure (C.Div (m, L.make coef const)))

let gen_poly n =
  QCheck2.Gen.(
    let* k = int_range 0 3 in
    let* cs = list_size (pure k) (gen_constr n) in
    pure (P.make n (cs @ box n (-10) 10)))

let iters2 = [| "i"; "j" |]

let gen_iset =
  QCheck2.Gen.(
    let* k = int_range 1 3 in
    let* ps = list_size (pure k) (gen_poly 2) in
    pure (Iset.make ~iters:iters2 ~params:[||] ps))

let gen_rel =
  QCheck2.Gen.(
    let* k = int_range 1 2 in
    let* ps = list_size (pure k) (gen_poly 2) in
    pure (Rel.make ~inn:[| "i" |] ~out:[| "j" |] ~params:[||] ps))

let pts2 = box_points 2 (-12) 12
let pts1 = box_points 1 (-12) 12

let iset_ext_equal a b =
  List.for_all
    (fun l ->
      let xs = Array.of_list l in
      Iset.mem a xs = Iset.mem b xs)
    pts2

let iset1_ext_equal a b =
  List.for_all
    (fun l ->
      let xs = Array.of_list l in
      Iset.mem a xs = Iset.mem b xs)
    pts1

let rel_ext_equal a b =
  List.for_all
    (fun l ->
      let xs = Array.of_list l in
      Rel.mem a ~params:[||] [| xs.(0) |] [| xs.(1) |]
      = Rel.mem b ~params:[||] [| xs.(0) |] [| xs.(1) |])
    pts2

(* Each property computes the operator twice — once through the (warm,
   process-global) memo tables and once with memoization disabled — and
   demands extensional agreement on every box point. *)
let prop_inter_matches_reference =
  QCheck2.Test.make ~name:"memoized inter = reference" ~count:60
    QCheck2.Gen.(pair gen_iset gen_iset)
    (fun (a, b) ->
      iset_ext_equal (Iset.inter a b)
        (with_memo_disabled (fun () -> Iset.inter a b)))

let prop_diff_matches_reference =
  QCheck2.Test.make ~name:"memoized diff = reference" ~count:40
    QCheck2.Gen.(pair gen_iset gen_iset)
    (fun (a, b) ->
      iset_ext_equal (Iset.diff a b)
        (with_memo_disabled (fun () -> Iset.diff a b)))

let prop_simplify_matches_reference =
  QCheck2.Test.make ~name:"memoized simplify = reference" ~count:60 gen_iset
    (fun s ->
      iset_ext_equal
        (Iset.simplify ~aggressive:true s)
        (with_memo_disabled (fun () -> Iset.simplify ~aggressive:true s)))

let prop_decisions_match_reference =
  QCheck2.Test.make ~name:"memoized is_empty/subset/equal = reference"
    ~count:60
    QCheck2.Gen.(pair gen_iset gen_iset)
    (fun (a, b) ->
      let memoized = (Iset.is_empty a, Iset.subset a b, Iset.equal a b) in
      memoized
      = with_memo_disabled (fun () ->
            (Iset.is_empty a, Iset.subset a b, Iset.equal a b)))

let prop_dom_ran_match_reference =
  QCheck2.Test.make ~name:"memoized dom/ran = reference" ~count:40 gen_rel
    (fun r ->
      let rd, rr = with_memo_disabled (fun () -> (Rel.dom r, Rel.ran r)) in
      iset1_ext_equal (Rel.dom r) rd && iset1_ext_equal (Rel.ran r) rr)

(* Differences of the ±10 box reach ±20. *)
let prop_deltas_match_reference =
  QCheck2.Test.make ~name:"memoized deltas = reference" ~count:40 gen_rel
    (fun r ->
      let reference = with_memo_disabled (fun () -> Rel.deltas r) in
      let memoized = Rel.deltas r in
      List.for_all
        (fun l ->
          let xs = Array.of_list l in
          Iset.mem memoized xs = Iset.mem reference xs)
        (box_points 1 (-22) 22))

let prop_compose_matches_reference =
  QCheck2.Test.make ~name:"memoized compose = reference" ~count:25
    QCheck2.Gen.(pair gen_rel gen_rel)
    (fun (r, s) ->
      rel_ext_equal (Rel.compose r s)
        (with_memo_disabled (fun () -> Rel.compose r s)))

let test_mixed_space_rejected () =
  let a = Iset.universe ~iters:[| "i" |] ~params:[||] in
  let b = Iset.universe ~iters:[| "k" |] ~params:[||] in
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (what, f) ->
      Alcotest.(check bool) (what ^ " rejects, memo path") true (raises f);
      Alcotest.(check bool)
        (what ^ " rejects, reference path")
        true
        (with_memo_disabled (fun () -> raises f)))
    [
      ("union", fun () -> ignore (Iset.union a b));
      ("inter", fun () -> ignore (Iset.inter a b));
      ("diff", fun () -> ignore (Iset.diff a b));
      ("subset", fun () -> ignore (Iset.subset a b));
      ("equal", fun () -> ignore (Iset.equal a b));
    ]

(* ------------------------------------------------------------------ *)
(* Memo consistency under a concurrent 4-domain analysis pool           *)

let test_four_domain_stress () =
  (* Distinct parameter bindings defeat the request-level result cache, so
     every request re-runs the analysis and the presburger memo tables are
     hammered from four domains at once. *)
  let requests =
    List.concat
      (List.init 3 (fun round ->
           List.map
             (fun (name, prog) ->
               Proto.request
                 ~id:(Printf.sprintf "%s#%d" name round)
                 ~name
                 ~params:
                   (List.map (fun p -> (p, 6 + round)) prog.Loopir.Ast.params)
                 ~mode:Proto.Classify (Proto.Prog prog))
             Loopir.Builtin.corpus))
  in
  let config domains =
    { Service.default_config with domains; threads = 1; check = false }
  in
  let before = Hc.totals () in
  let pooled = Service.create ~config:(config 4) () in
  let via_pool = Service.batch pooled requests in
  Service.shutdown pooled;
  let after = Hc.totals () in
  let direct = Service.create ~config:(config 1) () in
  let via_seq = List.map (Service.run_one direct) requests in
  Service.shutdown direct;
  let essence (r : Proto.response) =
    ( r.Proto.id,
      match r.Proto.body with
      | Proto.Done { payload; _ } -> Ok payload
      | Proto.Failed f -> Error (Proto.failure_kind f)
      | Proto.Stats _ | Proto.Healthy _ -> Error "introspective" )
  in
  Alcotest.(check int)
    "one response per request"
    (List.length requests)
    (List.length via_pool);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "4-domain answer matches sequential for %s"
           (fst (essence a)))
        true
        (essence a = essence b))
    via_pool via_seq;
  Alcotest.(check bool)
    "memo tables were exercised concurrently" true
    (after.Hc.hits + after.Hc.misses > before.Hc.hits + before.Hc.misses)

let () =
  Alcotest.run "hc"
    [
      ( "digest",
        [
          Alcotest.test_case "lanes and hex format" `Quick test_digest_basics;
          QCheck_alcotest.to_alcotest prop_digest_matches_bytewise;
          Alcotest.test_case "pinned add_int and add_int64 digests" `Quick
            test_digest_pinned;
          Alcotest.test_case "add_string allocates only its result" `Quick
            test_digest_allocation;
          Alcotest.test_case "poly digests are syntactic" `Quick
            test_poly_digest_syntactic;
          Alcotest.test_case "interning shares structure" `Quick
            test_intern_sharing;
        ] );
      ( "memo",
        [
          Alcotest.test_case "lru eviction order" `Quick test_memo_lru;
          Alcotest.test_case "get computes once" `Quick test_memo_get;
          Alcotest.test_case "disabled bypass" `Quick test_memo_disabled;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "iset self-union bounded" `Quick test_union_dedup;
          Alcotest.test_case "rel union dedups" `Quick test_rel_union_dedup;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_inter_matches_reference;
          QCheck_alcotest.to_alcotest prop_diff_matches_reference;
          QCheck_alcotest.to_alcotest prop_simplify_matches_reference;
          QCheck_alcotest.to_alcotest prop_decisions_match_reference;
          QCheck_alcotest.to_alcotest prop_dom_ran_match_reference;
          QCheck_alcotest.to_alcotest prop_deltas_match_reference;
          QCheck_alcotest.to_alcotest prop_compose_matches_reference;
          Alcotest.test_case "mixed spaces rejected on both paths" `Quick
            test_mixed_space_rejected;
        ] );
      ( "stress",
        [
          Alcotest.test_case "4-domain memo consistency" `Quick
            test_four_domain_stress;
        ] );
    ]
