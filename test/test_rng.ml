module Rng = Wx_util.Rng
open Common

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_true "same stream" (Rng.int64 a = Rng.int64 b)
  done

let test_copy () =
  let a = Rng.create 9 in
  let _ = Rng.int64 a in
  let b = Rng.copy a in
  for _ = 1 to 50 do
    check_true "copy matches" (Rng.int64 a = Rng.int64 b)
  done

let test_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  check_true "streams differ" (!same < 4)

let test_split_independent () =
  let a = Rng.create 3 in
  let child = Rng.split a in
  (* Drawing from the parent must not affect the child's stream. *)
  let c1 = Rng.copy child in
  let _ = Rng.int64 a in
  for _ = 1 to 20 do
    check_true "child unaffected" (Rng.int64 child = Rng.int64 c1)
  done

let test_int_bounds () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    check_true "in range" (v >= 0 && v < 7)
  done

let test_int_uniformity () =
  let r = rng ~salt:1 () in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int r 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 8 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d count %d far from %d" i c expected)
    counts

let test_int_in () =
  let r = rng ~salt:2 () in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    check_true "int_in range" (v >= -5 && v <= 5)
  done

let test_float_range () =
  let r = rng ~salt:3 () in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    check_true "[0,1)" (v >= 0.0 && v < 1.0)
  done

let test_bernoulli_mean () =
  let r = rng ~salt:4 () in
  let hits = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let mean = float_of_int !hits /. float_of_int trials in
  check_true "mean near 0.3" (Float.abs (mean -. 0.3) < 0.02)

let test_bernoulli_edges () =
  let r = rng ~salt:5 () in
  check_true "p=0 never" (not (Rng.bernoulli r 0.0));
  check_true "p=1 always" (Rng.bernoulli r 1.0)

let test_geometric_mean () =
  let r = rng ~salt:6 () in
  let acc = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    acc := !acc + Rng.geometric r 0.25
  done;
  (* mean of geometric(p) counting failures = (1-p)/p = 3. *)
  let mean = float_of_int !acc /. float_of_int trials in
  check_true "geometric mean near 3" (Float.abs (mean -. 3.0) < 0.15)

let test_geometric_p1 () =
  let r = rng ~salt:7 () in
  for _ = 1 to 100 do
    check_int "geometric(1) = 0" 0 (Rng.geometric r 1.0)
  done

let test_shuffle_is_permutation () =
  let r = rng ~salt:8 () in
  for _ = 1 to 100 do
    let a = Array.init 30 (fun i -> i) in
    Rng.shuffle r a;
    let sorted = Array.copy a in
    Array.sort compare sorted;
    check_true "permutation" (sorted = Array.init 30 (fun i -> i))
  done

let test_permutation_uniform_position () =
  (* Element 0 should land in each slot with roughly equal frequency. *)
  let r = rng ~salt:9 () in
  let n = 6 in
  let counts = Array.make n 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let p = Rng.permutation r n in
    let pos = ref 0 in
    Array.iteri (fun i v -> if v = 0 then pos := i) p;
    counts.(!pos) <- counts.(!pos) + 1
  done;
  Array.iter
    (fun c ->
      let expected = trials / n in
      check_true "roughly uniform" (abs (c - expected) < expected / 4))
    counts

let test_sample_without_replacement () =
  let r = rng ~salt:10 () in
  for _ = 1 to 500 do
    let k = 1 + Rng.int r 20 in
    let n = k + Rng.int r 50 in
    let sample = Rng.sample_without_replacement r n k in
    check_int "size" k (Array.length sample);
    let tbl = Hashtbl.create k in
    Array.iter
      (fun v ->
        check_true "range" (v >= 0 && v < n);
        check_true "distinct" (not (Hashtbl.mem tbl v));
        Hashtbl.add tbl v ())
      sample
  done

let test_sample_full () =
  let r = rng ~salt:11 () in
  let sample = Rng.sample_without_replacement r 10 10 in
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  check_true "full sample is 0..9" (sorted = Array.init 10 (fun i -> i))

let test_subset_bernoulli_bounds () =
  let r = rng ~salt:12 () in
  for _ = 1 to 200 do
    let l = Rng.subset_bernoulli r 50 0.3 in
    List.iter (fun v -> check_true "range" (v >= 0 && v < 50)) l;
    let rec sorted = function
      | [] | [ _ ] -> true
      | x :: (y :: _ as rest) -> x < y && sorted rest
    in
    check_true "sorted strictly" (sorted l)
  done

let test_subset_bernoulli_mean () =
  let r = rng ~salt:13 () in
  let acc = ref 0 in
  let trials = 5000 in
  for _ = 1 to trials do
    acc := !acc + List.length (Rng.subset_bernoulli r 100 0.2)
  done;
  let mean = float_of_int !acc /. float_of_int trials in
  check_true "mean near 20" (Float.abs (mean -. 20.0) < 1.0)

let test_subset_bernoulli_edges () =
  let r = rng ~salt:14 () in
  check_true "p=0 empty" (Rng.subset_bernoulli r 10 0.0 = []);
  check_int "p=1 full" 10 (List.length (Rng.subset_bernoulli r 10 1.0))

let test_pick () =
  let r = rng ~salt:15 () in
  let arr = [| 3; 5; 9 |] in
  for _ = 1 to 100 do
    check_true "member" (Array.mem (Rng.pick r arr) arr)
  done

(* ---- known answers ----

   A fixed script of every draw function, run from five seeds. The literal
   outputs were recorded from the original four-record-field
   implementation, so any change to the state layout or the draw
   arithmetic that moves a single bit of any stream fails here. Floats are
   printed in hex ([%h]), which is exact. *)

let script r =
  let i64 () = Printf.sprintf "%Lx" (Rng.int64 r) in
  let coins f = String.init 8 (fun _ -> if f () then '1' else '0') in
  let ints f = String.concat "," (List.init 3 (fun _ -> string_of_int (f ()))) in
  let flt () = Printf.sprintf "%h" (Rng.float r) in
  let a = i64 () in
  let b = i64 () in
  let c = string_of_int (Rng.bits r) in
  let d = flt () in
  let e = flt () in
  let f = coins (fun () -> Rng.bool r) in
  let g = ints (fun () -> Rng.int r 1000) in
  let h = ints (fun () -> Rng.int r max_int) in
  let i = ints (fun () -> Rng.int_in r (-5) 5) in
  let j = coins (fun () -> Rng.bernoulli r 0.3) in
  let k = ints (fun () -> Rng.geometric r 0.25) in
  let l = ints (fun () -> Rng.geometric r 0.01) in
  let child = Rng.split r in
  let m = Printf.sprintf "%Lx" (Rng.int64 child) in
  let n = i64 () in
  let dup = Rng.copy r in
  let o = Printf.sprintf "%Lx" (Rng.int64 dup) in
  let p = i64 () in
  [ a; b; c; d; e; f; g; h; i; j; k; l; m; n; o; p ]

let golden =
  [
    ( 0,
      [ "99ec5f36cb75f2b4"; "bf6e1f784956452a"; "475095844711627192"; "0x1.aa9653c498b4ap-2"; "0x1.774b5a943f085p-1"; "00111010"; "559,295,182"; "3248637607068178843,870162139428209060,2535418690269257315"; "-2,1,-3"; "00000000"; "0,1,4"; "17,315,317"; "26bf08ee272389f3"; "3cdebc44a5bc1936"; "6833bafa723c2dbd"; "6833bafa723c2dbd" ] );
    ( 1,
      [ "b3f2af6d0fc710c5"; "853b559647364cea"; "2647595229880422725"; "0x1.90b871ef099a8p-2"; "0x1.64f491c534466p-1"; "00110101"; "893,797,937"; "371037552993509153,2265997745918332427,211308232107153520"; "3,2,4"; "00010000"; "0,7,1"; "49,104,26"; "a2a5d79a0f5df0c2"; "6251a2af7751c1a7"; "781971381bb381a9"; "781971381bb381a9" ] );
    ( 20180218,
      [ "a38ad7dd89df28aa"; "aeaa24ab1f79633b"; "1922024148123397694"; "0x1.9545e310a3b63p-1"; "0x1.4df8b60fef148p-1"; "10000010"; "688,261,536"; "2880037553744626032,4240924917798114153,282250231931539619"; "-5,1,-4"; "00101011"; "14,0,4"; "41,97,26"; "b9eab6a95a883489"; "2d2b796cda8f1f89"; "1857651e8b55bd3b"; "1857651e8b55bd3b" ] );
    ( (-5),
      [ "7a01d79fc1d93784"; "49fa730f02634930"; "3072962986656080474"; "0x1.6c2779cb5ab8p-7"; "0x1.a3d33e1d08eebp-1"; "01010100"; "128,405,483"; "212922157126196584,4583662936498396361,1334423731157217934"; "5,-3,2"; "10000000"; "8,6,2"; "10,56,82"; "420962c07a70ed92"; "ca9ce105b34e815c"; "6e95a4ffb52e62c2"; "6e95a4ffb52e62c2" ] );
    ( max_int,
      [ "6a2df487bd4abde8"; "7089a21212eab9fc"; "2337663391240183458"; "0x1.b3d21a6a5b24cp-3"; "0x1.aa966325ff504p-3"; "01101000"; "466,334,819"; "294165838749230736,3877489513430757844,2839267025710378413"; "-1,1,-4"; "01001001"; "4,2,0"; "163,28,97"; "e938928704aa5119"; "95290743a3f4ccd0"; "2bb1209af26a7997"; "2bb1209af26a7997" ] );
  ]

let test_known_answers () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (list string)) (Printf.sprintf "seed %d" seed) expected
        (script (Rng.create seed)))
    golden

let test_bernoulli_pow2_matches_bernoulli =
  qcheck ~count:500 "bernoulli_pow2 k = bernoulli 2^-k (answer and stream)"
    (fun (seed, k) ->
      let a = Rng.create seed in
      let b = Rng.copy a in
      let p = 1.0 /. float_of_int (1 lsl k) in
      let ok = ref true in
      for _ = 1 to 16 do
        if Rng.bernoulli_pow2 a k <> Rng.bernoulli b p then ok := false
      done;
      !ok && Rng.int64 a = Rng.int64 b)
    QCheck.(pair int (int_range 0 52))

let test_bernoulli_pow2_range () =
  let r = rng ~salt:16 () in
  Alcotest.check_raises "k < 0" (Invalid_argument "Rng.bernoulli_pow2: k must be in [0, 52]")
    (fun () -> ignore (Rng.bernoulli_pow2 r (-1)));
  Alcotest.check_raises "k > 52" (Invalid_argument "Rng.bernoulli_pow2: k must be in [0, 52]")
    (fun () -> ignore (Rng.bernoulli_pow2 r 53))

let test_draws_allocate_nothing () =
  (* Every draw with an immediate result runs on the unboxed state words
     ([int64] and [float] box their results, by type). [Gc.minor_words]
     boxes its own float, so the budget is a small constant over 1000
     rounds of draws. *)
  let r = rng ~salt:17 () in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    sink := !sink + Rng.bits r + Rng.int r 1000 + Rng.int_in r (-3) 3 + Rng.geometric r 0.25;
    if Rng.bool r then incr sink;
    if Rng.bernoulli r 0.3 then incr sink;
    if Rng.bernoulli_pow2 r 3 then incr sink
  done;
  let dw = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sink);
  check_true (Printf.sprintf "1000 rounds of draws allocate nothing (got %.0f words)" dw)
    (dw < 16.0)

let suite =
  [
    Alcotest.test_case "known answers" `Quick test_known_answers;
    test_bernoulli_pow2_matches_bernoulli;
    Alcotest.test_case "bernoulli_pow2 range" `Quick test_bernoulli_pow2_range;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "distinct seeds" `Quick test_distinct_seeds;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
    Alcotest.test_case "int_in" `Quick test_int_in;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bernoulli mean" `Slow test_bernoulli_mean;
    Alcotest.test_case "bernoulli edges" `Quick test_bernoulli_edges;
    Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
    Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "permutation uniformity" `Slow test_permutation_uniform_position;
    Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "sample full" `Quick test_sample_full;
    Alcotest.test_case "subset bernoulli bounds" `Quick test_subset_bernoulli_bounds;
    Alcotest.test_case "subset bernoulli mean" `Slow test_subset_bernoulli_mean;
    Alcotest.test_case "subset bernoulli edges" `Quick test_subset_bernoulli_edges;
    Alcotest.test_case "pick" `Quick test_pick;
  ]
