let bits_per_word = Sys.int_size

type t = {
  max_key : int;
  words : int; (* per key *)
  bits : int array; (* key k's word i at k·words + i *)
  count : int array; (* members per key *)
  keys : int array; (* member -> key, -1 when absent *)
  mutable hi : int; (* no member has a key above [hi] *)
  mutable lo : int; (* none below [lo] *)
}

let create ~size ~max_key =
  if size < 0 || max_key < 0 then invalid_arg "Bucket_queue.create";
  let words = max 1 ((size + bits_per_word - 1) / bits_per_word) in
  {
    max_key;
    words;
    bits = Array.make ((max_key + 1) * words) 0;
    count = Array.make (max_key + 1) 0;
    keys = Array.make size (-1);
    hi = -1;
    lo = max_key + 1;
  }

let mem q x = q.keys.(x) >= 0

let clear q x k =
  let i = (k * q.words) + (x / bits_per_word) in
  q.bits.(i) <- q.bits.(i) land lnot (1 lsl (x mod bits_per_word));
  q.count.(k) <- q.count.(k) - 1;
  q.keys.(x) <- -1

let remove q x =
  let k = q.keys.(x) in
  if k >= 0 then clear q x k

let set q x k =
  if k < 0 || k > q.max_key then invalid_arg "Bucket_queue.set: key out of range";
  let old = q.keys.(x) in
  if old <> k then begin
    if old >= 0 then clear q x old;
    let i = (k * q.words) + (x / bits_per_word) in
    q.bits.(i) <- q.bits.(i) lor (1 lsl (x mod bits_per_word));
    q.count.(k) <- q.count.(k) + 1;
    q.keys.(x) <- k;
    if k > q.hi then q.hi <- k;
    if k < q.lo then q.lo <- k
  end

(* Lowest member under an occupied key: first non-zero word of its row. *)
let lowest q k =
  let i = ref (k * q.words) in
  while q.bits.(!i) = 0 do
    incr i
  done;
  ((!i - (k * q.words)) * bits_per_word) + Bitset.lowest_bit q.bits.(!i)

let max_elt q =
  while q.hi >= 0 && q.count.(q.hi) = 0 do
    q.hi <- q.hi - 1
  done;
  if q.hi < 0 then -1 else lowest q q.hi

let min_elt q =
  while q.lo <= q.max_key && q.count.(q.lo) = 0 do
    q.lo <- q.lo + 1
  done;
  if q.lo > q.max_key then -1 else lowest q q.lo
