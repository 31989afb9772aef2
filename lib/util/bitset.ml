let bits_per_word = Sys.int_size (* 63 on 64-bit platforms *)

type t = { n : int; words : int array }

let nwords n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { n; words = Array.make (max 1 (nwords n)) 0 }

let universe_size t = t.n

(* Mask of valid bits in the last word, so [complement] and [full] never set
   phantom bits beyond the universe. *)
let last_mask n =
  let r = n mod bits_per_word in
  if r = 0 then -1 else (1 lsl r) - 1

let full n =
  let t = create n in
  let w = Array.length t.words in
  if n > 0 then begin
    for i = 0 to w - 2 do
      t.words.(i) <- -1
    done;
    t.words.(w - 1) <- last_mask n
  end;
  t

let copy t = { n = t.n; words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: element out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add_inplace t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove_inplace t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let add t i =
  let t' = copy t in
  add_inplace t' i;
  t'

let remove t i =
  let t' = copy t in
  remove_inplace t' i;
  t'

(* Branch-free SWAR popcount over all 63 bits of a native int. The masks
   are the usual 64-bit constants; their truncation to 63 bits keeps the
   field layout (bit 62 is a field of its own after the first step), and
   the byte-sum tail adds at most 63, which fits the low byte. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  (x + (x lsr 32)) land 0x7f

(* [x land (-x)] isolates the lowest set bit; the bits below it, counted,
   are its index. Branch-free past the zero check, and allocation-free. *)
let lowest_bit x =
  if x = 0 then invalid_arg "Bitset.lowest_bit: zero";
  popcount ((x land (-x)) - 1)

let cardinal t =
  let acc = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    acc := !acc + popcount t.words.(i)
  done;
  !acc

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_universe a b =
  if a.n <> b.n then invalid_arg "Bitset: universe mismatch"

let equal a b =
  same_universe a b;
  let rec go i = i < 0 || (a.words.(i) = b.words.(i) && go (i - 1)) in
  go (Array.length a.words - 1)

(* Top-level so the recursion carries no closure: [subset] sits on the
   radio step's per-round path, which the alloc gate certifies as
   zero-allocation. *)
let rec subset_from aw bw i =
  i < 0
  || Array.unsafe_get aw i land lnot (Array.unsafe_get bw i) = 0
     && subset_from aw bw (i - 1)

let subset a b =
  same_universe a b;
  subset_from a.words b.words (Array.length a.words - 1)

let disjoint a b =
  same_universe a b;
  let rec go i = i < 0 || (a.words.(i) land b.words.(i) = 0 && go (i - 1)) in
  go (Array.length a.words - 1)

let map2 f a b =
  same_universe a b;
  { n = a.n; words = Array.init (Array.length a.words) (fun i -> f a.words.(i) b.words.(i)) }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let blit2 f a b =
  same_universe a b;
  for i = 0 to Array.length a.words - 1 do
    a.words.(i) <- f a.words.(i) b.words.(i)
  done

let union_inplace a b = blit2 ( lor ) a b
let inter_inplace a b = blit2 ( land ) a b
let diff_inplace a b = blit2 (fun x y -> x land lnot y) a b
let clear_inplace a = Array.fill a.words 0 (Array.length a.words) 0

(* Fused combine-and-count kernels: one word-parallel pass, no
   intermediate set. The naive reference scorers accumulate neighborhood
   unions and then need |acc ∪ b| or |acc \ b| — materialising the
   combined set per scored subset is exactly the allocation the
   incremental engine was built to avoid, so the reference engines get
   the allocation-free counts too and the bench compares enumeration
   strategies, not allocator traffic. *)

let count2 f a b =
  same_universe a b;
  let aw = a.words and bw = b.words in
  let acc = ref 0 in
  for i = 0 to Array.length aw - 1 do
    acc := !acc + popcount (f (Array.unsafe_get aw i) (Array.unsafe_get bw i))
  done;
  !acc

let union_cardinal a b = count2 ( lor ) a b
let inter_cardinal a b = count2 ( land ) a b
let diff_cardinal a b = count2 (fun x y -> x land lnot y) a b

let complement t =
  let f = full t.n in
  diff f t

let iter f t =
  let nw = Array.length t.words in
  for wi = 0 to nw - 1 do
    let w = ref t.words.(wi) in
    let base = wi * bits_per_word in
    let bit = ref 0 in
    while !w <> 0 do
      if !w land 0xff = 0 then begin
        (* Skip empty bytes so sparse words stay cheap. *)
        w := !w lsr 8;
        bit := !bit + 8
      end
      else begin
        if !w land 1 = 1 then f (base + !bit);
        w := !w lsr 1;
        incr bit
      end
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

exception Found

let exists p t =
  try
    iter (fun i -> if p i then raise Found) t;
    false
  with Found -> true

let for_all p t = not (exists (fun i -> not (p i)) t)

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let to_array t =
  let k = cardinal t in
  let out = Array.make k 0 in
  let idx = ref 0 in
  iter
    (fun i ->
      out.(!idx) <- i;
      incr idx)
    t;
  out

let of_list n xs =
  let t = create n in
  List.iter (add_inplace t) xs;
  t

let of_array n xs =
  let t = create n in
  Array.iter (add_inplace t) xs;
  t

let choose t =
  let result = ref (-1) in
  (try
     iter
       (fun i ->
         result := i;
         raise Found)
       t
   with Found -> ());
  if !result < 0 then raise Not_found else !result

let random_subset rng t p =
  let out = create t.n in
  iter (fun i -> if Rng.bernoulli rng p then add_inplace out i) t;
  out

let random_of_universe rng n k =
  of_array n (Rng.sample_without_replacement rng n k)

let iter_subsets s f =
  let elts = to_array s in
  let k = Array.length elts in
  (* Unified work contract: reject at the native-int ceiling on Gray-code
     step counts (not an arbitrary 30) with the catchable [Guard.Too_large]
     the measure layer rebinds — callers handle this the same way they
     handle a refused [wireless_of_set_exact]. *)
  Guard.check_gray_work "Bitset.iter_subsets" k max_int;
  let buf = create s.n in
  let total = 1 lsl k in
  (* Gray-code order: successive subsets differ in one element, so each step
     is a single bit flip in [buf]. *)
  f buf;
  for i = 1 to total - 1 do
    (* Step i flips the lowest set bit of i: gray(i) lxor gray(i-1). *)
    let v = elts.(lowest_bit i) in
    if mem buf v then remove_inplace buf v else add_inplace buf v;
    f buf
  done

let pp fmt t =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun i ->
      if !first then first := false else Format.fprintf fmt ", ";
      Format.fprintf fmt "%d" i)
    t;
  Format.fprintf fmt "}"

let to_string t = Format.asprintf "%a" pp t

module Slow = struct
  type t = { n : int; elts : int list (* sorted ascending *) }

  let create n = { n; elts = [] }
  let mem t i = List.mem i t.elts

  let add t i =
    if i < 0 || i >= t.n then invalid_arg "Bitset.Slow.add";
    let rec ins = function
      | [] -> [ i ]
      | x :: rest as l -> if x = i then l else if x > i then i :: l else x :: ins rest
    in
    { t with elts = ins t.elts }

  let cardinal t = List.length t.elts

  let rec merge_union a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xs, y :: ys ->
        if x = y then x :: merge_union xs ys
        else if x < y then x :: merge_union xs b
        else y :: merge_union a ys

  let rec merge_inter a b =
    match (a, b) with
    | [], _ | _, [] -> []
    | x :: xs, y :: ys ->
        if x = y then x :: merge_inter xs ys
        else if x < y then merge_inter xs b
        else merge_inter a ys

  let rec merge_diff a b =
    match (a, b) with
    | [], _ -> []
    | l, [] -> l
    | x :: xs, y :: ys ->
        if x = y then merge_diff xs ys
        else if x < y then x :: merge_diff xs b
        else merge_diff a ys

  let union a b = { a with elts = merge_union a.elts b.elts }
  let inter a b = { a with elts = merge_inter a.elts b.elts }
  let diff a b = { a with elts = merge_diff a.elts b.elts }

  let of_list n xs = List.fold_left add (create n) xs
  let elements t = t.elts
end
