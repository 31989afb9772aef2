module Bitset = Wx_util.Bitset
open Common

let test_empty () =
  let s = Bitset.create 100 in
  check_int "cardinal" 0 (Bitset.cardinal s);
  check_true "is_empty" (Bitset.is_empty s);
  for i = 0 to 99 do
    check_true "not mem" (not (Bitset.mem s i))
  done

let test_full () =
  let s = Bitset.full 100 in
  check_int "cardinal" 100 (Bitset.cardinal s);
  for i = 0 to 99 do
    check_true "mem" (Bitset.mem s i)
  done

let test_full_boundary_sizes () =
  (* Around the word size, phantom-bit bugs show up. *)
  List.iter
    (fun n ->
      let s = Bitset.full n in
      check_int (Printf.sprintf "full %d" n) n (Bitset.cardinal s);
      check_int "complement empty" 0 (Bitset.cardinal (Bitset.complement s)))
    [ 1; 62; 63; 64; 65; 126; 127; 128 ]

let test_add_remove () =
  let s = Bitset.create 50 in
  Bitset.add_inplace s 7;
  Bitset.add_inplace s 49;
  Bitset.add_inplace s 0;
  check_int "card" 3 (Bitset.cardinal s);
  check_true "mem 7" (Bitset.mem s 7);
  Bitset.remove_inplace s 7;
  check_true "removed" (not (Bitset.mem s 7));
  check_int "card after" 2 (Bitset.cardinal s)

let test_add_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add_inplace s 3;
  Bitset.add_inplace s 3;
  check_int "card" 1 (Bitset.cardinal s)

let test_persistent_ops () =
  let s = Bitset.of_list 20 [ 1; 5; 9 ] in
  let t = Bitset.add s 10 in
  check_true "s unchanged" (not (Bitset.mem s 10));
  check_true "t has it" (Bitset.mem t 10);
  let u = Bitset.remove t 1 in
  check_true "t unchanged" (Bitset.mem t 1);
  check_true "u lost it" (not (Bitset.mem u 1))

let test_out_of_range () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "mem -1" (Invalid_argument "Bitset: element out of range") (fun () ->
      ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "add 10" (Invalid_argument "Bitset: element out of range") (fun () ->
      Bitset.add_inplace s 10)

let test_set_algebra () =
  let a = Bitset.of_list 200 [ 1; 2; 3; 100; 150 ] in
  let b = Bitset.of_list 200 [ 2; 3; 4; 150; 199 ] in
  check_true "union"
    (Bitset.elements (Bitset.union a b) = [ 1; 2; 3; 4; 100; 150; 199 ]);
  check_true "inter" (Bitset.elements (Bitset.inter a b) = [ 2; 3; 150 ]);
  check_true "diff" (Bitset.elements (Bitset.diff a b) = [ 1; 100 ])

let test_subset_disjoint () =
  let a = Bitset.of_list 64 [ 1; 5 ] in
  let b = Bitset.of_list 64 [ 1; 5; 9 ] in
  let c = Bitset.of_list 64 [ 2; 8 ] in
  check_true "a ⊆ b" (Bitset.subset a b);
  check_true "b ⊄ a" (not (Bitset.subset b a));
  check_true "a ∥ c" (Bitset.disjoint a c);
  check_true "a ∦ b" (not (Bitset.disjoint a b))

let test_iter_order () =
  let s = Bitset.of_list 300 [ 250; 3; 77; 0; 299 ] in
  check_true "ascending" (Bitset.elements s = [ 0; 3; 77; 250; 299 ])

let test_fold_exists_forall () =
  let s = Bitset.of_list 40 [ 2; 4; 6 ] in
  check_int "fold sum" 12 (Bitset.fold ( + ) s 0);
  check_true "exists" (Bitset.exists (fun x -> x = 4) s);
  check_true "not exists" (not (Bitset.exists (fun x -> x = 5) s));
  check_true "for_all even" (Bitset.for_all (fun x -> x mod 2 = 0) s)

let test_choose () =
  let s = Bitset.of_list 10 [ 7; 3 ] in
  check_int "choose min" 3 (Bitset.choose s);
  Alcotest.check_raises "choose empty" Not_found (fun () ->
      ignore (Bitset.choose (Bitset.create 10)))

let test_complement () =
  let s = Bitset.of_list 65 [ 0; 64 ] in
  let c = Bitset.complement s in
  check_int "card" 63 (Bitset.cardinal c);
  check_true "0 out" (not (Bitset.mem c 0));
  check_true "1 in" (Bitset.mem c 1)

let test_iter_subsets_count () =
  let s = Bitset.of_list 20 [ 3; 7; 11; 15 ] in
  let count = ref 0 in
  let seen = Hashtbl.create 16 in
  Bitset.iter_subsets s (fun sub ->
      incr count;
      check_true "is subset" (Bitset.subset sub s);
      let key = Bitset.to_string sub in
      check_true "distinct" (not (Hashtbl.mem seen key));
      Hashtbl.add seen key ());
  check_int "2^4 subsets" 16 !count

let test_iter_subsets_too_large () =
  (* The Gray-code walk over a large set would overflow the native int;
     the unified guard refuses it up front with the shared Too_large
     constructor, catchable from any layer under either name. *)
  let s = Bitset.full 70 in
  (try
     Bitset.iter_subsets s (fun _ -> Alcotest.fail "callback must not run");
     Alcotest.fail "expected Too_large"
   with Wx_util.Guard.Too_large msg ->
     check_true "names the caller"
       (String.length msg > 0 && String.sub msg 0 19 = "Bitset.iter_subsets");
     check_true "explains the ceiling"
       (let sub = "native-int ceiling" in
        let n = String.length msg and m = String.length sub in
        let rec find i = i + m <= n && (String.sub msg i m = sub || find (i + 1)) in
        find 0));
  (* Same exception through the Measure rebinding. *)
  (try
     Bitset.iter_subsets s ignore;
     Alcotest.fail "expected Too_large"
   with Wx_expansion.Measure.Too_large _ -> ())

(* The word helpers against bit-by-bit scans, over all 63 bits: the sign
   bit, [max_int], single bits at every position, and random words. The
   Gray walk of [iter_subsets] relies on [lowest_bit i] naming the element
   that step i flips, so its order is checked too. *)
let test_word_helpers () =
  let slow_popcount x =
    let c = ref 0 in
    for b = 0 to Sys.int_size - 1 do
      if (x lsr b) land 1 = 1 then incr c
    done;
    !c
  in
  let slow_lowest x =
    let b = ref 0 in
    while (x lsr !b) land 1 = 0 do
      incr b
    done;
    !b
  in
  let r = rng ~salt:21 () in
  let words =
    [ 1; -1; max_int; min_int; 0x5555_5555_5555_5555 ]
    @ List.init Sys.int_size (fun b -> 1 lsl b)
    @ List.init 200 (fun _ -> Wx_util.Rng.bits r lxor (Wx_util.Rng.bits r lsl 30))
  in
  check_int "popcount 0" 0 (Bitset.popcount 0);
  List.iter
    (fun x ->
      check_int (Printf.sprintf "popcount %x" x) (slow_popcount x) (Bitset.popcount x);
      if x <> 0 then
        check_int (Printf.sprintf "lowest_bit %x" x) (slow_lowest x) (Bitset.lowest_bit x))
    words;
  let elts = [| 2; 5; 9; 13 |] in
  let step = ref 0 in
  Bitset.iter_subsets (Bitset.of_array 16 elts) (fun sub ->
      let gray = !step lxor (!step lsr 1) in
      let expected = List.filter (fun i -> (gray lsr i) land 1 = 1) [ 0; 1; 2; 3 ] in
      check_true "Gray order" (Bitset.elements sub = List.map (fun i -> elts.(i)) expected);
      incr step);
  check_int "2^4 subsets" 16 !step

let test_random_subset () =
  let r = rng ~salt:20 () in
  let s = Bitset.full 200 in
  let sub = Bitset.random_subset r s 0.5 in
  check_true "subset" (Bitset.subset sub s);
  let c = Bitset.cardinal sub in
  check_true "near half" (c > 60 && c < 140)

let test_random_of_universe () =
  let r = rng ~salt:21 () in
  for _ = 1 to 100 do
    let s = Bitset.random_of_universe r 50 7 in
    check_int "card" 7 (Bitset.cardinal s)
  done

let test_to_array_of_array () =
  let a = [| 5; 1; 9 |] in
  let s = Bitset.of_array 12 a in
  check_true "roundtrip sorted" (Bitset.to_array s = [| 1; 5; 9 |])

let test_pp () =
  let s = Bitset.of_list 10 [ 1; 3 ] in
  Alcotest.(check string) "pp" "{1, 3}" (Bitset.to_string s)

(* qcheck: bitset algebra agrees with the Slow reference implementation. *)
let arbitrary_pair =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 1 150 in
      let* xs = list_size (int_range 0 40) (int_range 0 (n - 1)) in
      let* ys = list_size (int_range 0 40) (int_range 0 (n - 1)) in
      return (n, xs, ys))

let prop_matches_slow op slow_op (n, xs, ys) =
  let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
  let sa = Bitset.Slow.of_list n xs and sb = Bitset.Slow.of_list n ys in
  Bitset.elements (op a b) = Bitset.Slow.elements (slow_op sa sb)

let qcheck_tests =
  [
    qcheck "union matches slow" (prop_matches_slow Bitset.union Bitset.Slow.union) arbitrary_pair;
    qcheck "inter matches slow" (prop_matches_slow Bitset.inter Bitset.Slow.inter) arbitrary_pair;
    qcheck "diff matches slow" (prop_matches_slow Bitset.diff Bitset.Slow.diff) arbitrary_pair;
    qcheck "cardinal = |elements|"
      (fun (n, xs, _) ->
        let s = Bitset.of_list n xs in
        Bitset.cardinal s = List.length (Bitset.elements s))
      arbitrary_pair;
    qcheck "union_cardinal = |union|"
      (fun (n, xs, ys) ->
        let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
        Bitset.union_cardinal a b = Bitset.cardinal (Bitset.union a b))
      arbitrary_pair;
    qcheck "inter_cardinal = |inter|"
      (fun (n, xs, ys) ->
        let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
        Bitset.inter_cardinal a b = Bitset.cardinal (Bitset.inter a b))
      arbitrary_pair;
    qcheck "diff_cardinal = |diff| (both orders)"
      (fun (n, xs, ys) ->
        let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
        Bitset.diff_cardinal a b = Bitset.cardinal (Bitset.diff a b)
        && Bitset.diff_cardinal b a = Bitset.cardinal (Bitset.diff b a))
      arbitrary_pair;
    qcheck "de morgan"
      (fun (n, xs, ys) ->
        let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
        Bitset.equal
          (Bitset.complement (Bitset.union a b))
          (Bitset.inter (Bitset.complement a) (Bitset.complement b)))
      arbitrary_pair;
  ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "full" `Quick test_full;
    Alcotest.test_case "full boundary sizes" `Quick test_full_boundary_sizes;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "add idempotent" `Quick test_add_idempotent;
    Alcotest.test_case "persistent ops" `Quick test_persistent_ops;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "set algebra" `Quick test_set_algebra;
    Alcotest.test_case "subset/disjoint" `Quick test_subset_disjoint;
    Alcotest.test_case "iter order" `Quick test_iter_order;
    Alcotest.test_case "fold/exists/forall" `Quick test_fold_exists_forall;
    Alcotest.test_case "choose" `Quick test_choose;
    Alcotest.test_case "complement" `Quick test_complement;
    Alcotest.test_case "iter_subsets" `Quick test_iter_subsets_count;
    Alcotest.test_case "iter_subsets too large" `Quick test_iter_subsets_too_large;
    Alcotest.test_case "popcount and lowest_bit" `Quick test_word_helpers;
    Alcotest.test_case "random subset" `Quick test_random_subset;
    Alcotest.test_case "random of universe" `Quick test_random_of_universe;
    Alcotest.test_case "array roundtrip" `Quick test_to_array_of_array;
    Alcotest.test_case "pp" `Quick test_pp;
  ]
  @ qcheck_tests
