module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph
module Combi = Wx_util.Combi
module Guard = Wx_util.Guard
module Rng = Wx_util.Rng
module Pool = Wx_par.Pool
module Metrics = Wx_obs.Metrics
module Span = Wx_obs.Span
module Work = Wx_obs.Work
module Progress = Wx_obs.Progress

let m_sets_scored = Metrics.counter "expansion.sets_scored"
let m_sampled_sets = Metrics.counter "expansion.sampled_sets"
let m_gray_flips = Metrics.counter "expansion.gray_flips"
let m_improvements = Metrics.counter "expansion.witness_improvements"
let m_work_rejected = Metrics.counter "expansion.work_rejected"
let m_inner_pruned = Metrics.counter "expansion.sampled_inner_pruned"
let m_sampled_clamped = Metrics.counter "expansion.sampled_clamped"
let m_subtrees_pruned = Metrics.counter "expansion.subtrees_pruned"
let work_subtrees_pruned = Work.kind "subtrees_pruned"

type witnessed = { value : float; witness : Bitset.t }

(* Rebinding, not a fresh exception: [Measure.Too_large] and
   [Wx_util.Guard.Too_large] are the same constructor, so a handler
   written against either name catches work refused by any layer —
   including [Bitset.iter_subsets]. *)
exception Too_large = Guard.Too_large

let max_set_size ?(alpha = 0.5) g =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Measure: alpha must be in (0, 1]";
  int_of_float (Float.floor (alpha *. float_of_int (Graph.n g)))

(* ---- deterministic minimisation ----

   The exact measures shard their enumeration over domains (one shard per
   smallest element), so "first set attaining the minimum" is no longer a
   well-defined witness. Instead the canonical witness is the
   lexicographically smallest minimiser (elements compared as sorted
   lists): the shard loop applies the tiebreak within a shard and [better]
   applies it across shards, making the reported witness a pure function of
   the graph — independent of job count, chunking and scheduling. *)

let lex_less a b = compare (Bitset.elements a) (Bitset.elements b) < 0

(* Same order as [lex_less] on sorted element arrays (element-wise, with an
   exhausted prefix comparing smaller), without materialising lists. The
   [_len] variant reads only the first [la]/[lb] slots of reused buffers. *)
let lex_less_arr_len a la b lb =
  let rec go i =
    if i >= la then la < lb
    else if i >= lb then false
    else if a.(i) < b.(i) then true
    else if a.(i) > b.(i) then false
    else go (i + 1)
  in
  go 0

let better a b =
  if b.value < a.value then b
  else if a.value < b.value then a
  else if lex_less b.witness a.witness then b
  else a

let better_opt a b =
  match (a, b) with None, x | x, None -> x | Some a, Some b -> Some (better a b)

(* Fold one candidate into a shard-local best. [copy] when [w] is a reused
   enumeration buffer rather than an owned set. Sampled paths only — the
   exact paths inline the same tiebreak over index arrays. *)
let consider best v w ~copy =
  let improved =
    match !best with None -> true | Some b -> v < b.value || (v = b.value && lex_less w b.witness)
  in
  if improved then begin
    Metrics.incr m_improvements;
    best := Some { value = v; witness = (if copy then Bitset.copy w else w) }
  end

(* ---- work guards ---- *)

let check_work name actual limit =
  if actual > limit then begin
    Metrics.incr m_work_rejected;
    raise
      (Too_large
         (Printf.sprintf "%s: enumeration of %d sets exceeds work limit %d" name actual limit))
  end

(* [Combi.subsets_count_le] raises a bare [Overflow] when the count does not
   fit an int; translate it here so callers only ever see the documented
   [Too_large] (an overflowing count certainly exceeds any work limit). *)
let count_sets_le name g kmax =
  try Combi.subsets_count_le (Graph.n g) kmax
  with Combi.Overflow ->
    Metrics.incr m_work_rejected;
    raise
      (Too_large
         (Printf.sprintf "%s: more than max_int candidate sets (n = %d, kmax = %d)" name
            (Graph.n g) kmax))

(* Σ_k C(n,k)·2^k inner subset steps for the wireless measures. The 2^k factor
   is computed as [ldexp 1.0 k]: the previous [float_of_int (1 lsl k)]
   overflowed the OCaml int at k >= 62 and silently defeated the guard.
   A binomial overflow means the work certainly exceeds any limit. *)
let check_wireless_work name g kmax work_limit =
  let n = Graph.n g in
  let work =
    try
      let acc = ref 0.0 in
      for k = 1 to kmax do
        acc := !acc +. (float_of_int (Combi.binomial n k) *. ldexp 1.0 k)
      done;
      !acc
    with Combi.Overflow -> infinity
  in
  if work > float_of_int work_limit then begin
    Metrics.incr m_work_rejected;
    raise
      (Too_large
         (Printf.sprintf "%s: 3^n-style enumeration (n = %d, kmax = %d) exceeds work limit %d"
            name n kmax work_limit))
  end

let max_gray_bits = Guard.max_gray_bits

(* Single-set Gray enumeration guard — the shared {!Wx_util.Guard}
   contract, plus this layer's rejection counter. *)
let check_gray_work name k work_limit =
  try Guard.check_gray_work name k work_limit
  with Too_large _ as e ->
    Metrics.incr m_work_rejected;
    raise e

(* ---- incremental scoring engine ----

   The delta enumerators in [Combi] report how much of the previous subset
   survives each step ([kept] leading slots); an [Nbhd.Inc] arena absorbs
   the difference with O(deg) [add]/[remove] calls and answers
   |Γ⁻(S)|, |Γ¹(S)|, |S| in O(1). One arena per shard, reused across the
   whole enumeration — the per-set cost is the touched edges, with no
   allocation (the old path built a fresh neighborhood bitset per set).

   A scorer couples the arena to a measure. [score] reads the arena (the
   wireless measure instead runs the inner subset kernel below) for the
   set in the first [len] slots of the (possibly longer, reused) buffer;
   [bound_num] is the branch-and-bound numerator floor — a lower bound on
   the measure's numerator over {e every} strict extension of the set just
   scored by at most [budget] vertices, all larger than [last] (so it must
   be called while the arena still holds that set); [flush] publishes any
   batched counters once the shard finishes, so the hot loop performs no
   atomic operations. *)

type inc_scorer = {
  score : int array -> len:int -> float;
  bound_num : last:int -> budget:int -> int;
  flush : unit -> unit;
}

let expansion_scorer inc =
  {
    score = (fun _ ~len:_ -> Nbhd.Inc.expansion inc);
    bound_num = (fun ~last:_ ~budget -> Nbhd.Inc.boundary_floor inc ~budget);
    flush = (fun () -> ());
  }

let unique_scorer g inc =
  (* [smax.(v)] = max degree over vertices >= v: the DFS only ever appends
     elements larger than the current maximum, so it bounds the degree of
     every vertex an extension could add. *)
  let n = Graph.n g in
  let smax = Array.make (n + 1) 0 in
  for v = n - 1 downto 0 do
    smax.(v) <- max (Graph.degree g v) smax.(v + 1)
  done;
  {
    score = (fun _ ~len:_ -> Nbhd.Inc.unique_expansion inc);
    bound_num =
      (fun ~last ~budget -> Nbhd.Inc.unique_floor inc ~budget ~max_add_degree:smax.(last + 1));
    flush = (fun () -> ());
  }

(* ---- the inner kernel: word-parallel subset DFS ----

   βw(S) needs max_{S'⊆S} |Γ¹_S(S')| for every scored S. The kernel numbers
   the out-neighbours N = Γ(S) \ S locally (one O(Σdeg) pass), packs N
   into w = ⌈|N|/63⌉ words and gives every element of S its mask of
   N-neighbours. An include/exclude DFS over S then carries, per depth,
   the pair (ones, twos) = the N-vertices with at least one / at least two
   neighbours in the current S'; adding element j with mask m is
   twos' = twos lor (ones land m), ones' = ones lor m, and |Γ¹_S(S')| is
   popcount (ones' land lnot twos'). Every non-empty S' is visited once,
   so the work is 2^|S| - 1 subset visits of w word operations each, with
   no per-neighbour membership test and no allocation: the per-depth
   stacks and the numbering arrays belong to the kernel, which lives as
   long as its shard. A maximum does not depend on visiting order, so the
   value equals the Gray-code walk of [max_unique_over_subsets]. *)

type kernel = {
  g : Graph.t;
  loc : int array;  (* local index of each vertex of N; -1 unnumbered, -2 in S *)
  outs : int array;  (* the numbered vertices of N, to clear [loc] after *)
  mutable masks : int array;  (* element i's N-neighbours: words [i*w, i*w+w) *)
  mutable ones : int array;  (* per depth d: words [d*w, d*w+w) *)
  mutable twos : int array;
  mutable best : int;
  mutable steps : int;  (* inner subsets enumerated, 2^|S| - 1 per set *)
}

let kernel_create g =
  let n = Graph.n g in
  {
    g;
    loc = Array.make n (-1);
    outs = Array.make n 0;
    masks = [||];
    ones = [||];
    twos = [||];
    best = 0;
    steps = 0;
  }

let word_bits = Sys.int_size

(* [Bitset.popcount], repeated here because the hottest loop below calls it
   once per mask word per subset visit: the default dune profile compiles
   with -opaque, which stops cross-module inlining, and the call costs
   about 8% of βw's time. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  (x + (x lsr 32)) land 0x7f

(* Build the masks of the set in the first [len] slots of [elts], zero
   the depth-0 state, and return the word count w. The buffers grow to the
   largest set seen and are then reused. *)
let kernel_load k elts len =
  let loc = k.loc and g = k.g in
  for i = 0 to len - 1 do
    loc.(elts.(i)) <- -2
  done;
  let nn = ref 0 in
  for i = 0 to len - 1 do
    let nbrs = Graph.neighbors g elts.(i) in
    for j = 0 to Array.length nbrs - 1 do
      let v = Array.unsafe_get nbrs j in
      if loc.(v) = -1 then begin
        loc.(v) <- !nn;
        k.outs.(!nn) <- v;
        incr nn
      end
    done
  done;
  let w = (!nn + word_bits - 1) / word_bits in
  if Array.length k.masks < len * w then k.masks <- Array.make (len * w) 0
  else Array.fill k.masks 0 (len * w) 0;
  if Array.length k.ones < (len + 1) * w then begin
    k.ones <- Array.make ((len + 1) * w) 0;
    k.twos <- Array.make ((len + 1) * w) 0
  end
  else begin
    Array.fill k.ones 0 w 0;
    Array.fill k.twos 0 w 0
  end;
  let masks = k.masks in
  for i = 0 to len - 1 do
    let nbrs = Graph.neighbors g elts.(i) in
    for j = 0 to Array.length nbrs - 1 do
      let b = loc.(Array.unsafe_get nbrs j) in
      if b >= 0 then begin
        let x = (i * w) + (b / word_bits) in
        masks.(x) <- masks.(x) lor (1 lsl (b mod word_bits))
      end
    done
  done;
  for i = 0 to len - 1 do
    loc.(elts.(i)) <- -1
  done;
  for x = 0 to !nn - 1 do
    loc.(k.outs.(x)) <- -1
  done;
  w

(* Visit, for each j in [i, len), the subset that extends the depth-d
   state (stored at [base] = d*w) by element j, then its own extensions by
   larger elements. Each non-empty subset is reached from exactly one
   parent, its set minus its largest element. Returns the running max. *)
let rec kernel_dfs ones twos masks w len base i best =
  let next = base + w in
  let best = ref best in
  for j = i to len - 1 do
    let mb = j * w in
    let c = ref 0 in
    for x = 0 to w - 1 do
      let o = Array.unsafe_get ones (base + x) and m = Array.unsafe_get masks (mb + x) in
      let t = Array.unsafe_get twos (base + x) lor (o land m) and o = o lor m in
      Array.unsafe_set ones (next + x) o;
      Array.unsafe_set twos (next + x) t;
      c := !c + popcount (o land lnot t)
    done;
    if !c > !best then best := !c;
    if j + 1 < len then best := kernel_dfs ones twos masks w len next (j + 1) !best
  done;
  !best

(* max_{S'⊆S} |Γ¹_S(S')| for S = the first [len] (>= 1) slots of [elts]. *)
let kernel_max k elts len =
  if len > max_gray_bits then
    raise (Too_large "Measure: inner subset enumeration exceeds the native-int ceiling");
  let w = kernel_load k elts len in
  k.best <- kernel_dfs k.ones k.twos k.masks w len 0 0 0;
  k.steps <- k.steps + ((1 lsl len) - 1);
  k.best

let kernel_flush k =
  if k.steps > 0 then begin
    Metrics.add m_gray_flips k.steps;
    Work.add Work.gray_steps k.steps;
    k.steps <- 0
  end

let wireless_scorer g _inc =
  let k = kernel_create g in
  {
    score =
      (fun idxs ~len ->
        let m = kernel_max k idxs len in
        float_of_int m /. float_of_int len);
    bound_num =
      (fun ~last:_ ~budget ->
        (* [k.best] is max_{S'⊆S} |Γ¹_S(S')| for the set just scored. For
           any T ⊇ S the same S' is still a candidate, and moving a vertex
           into T removes at most that vertex itself from Γ¹_T(S') — the
           per-N-vertex counts w.r.t. the fixed S' do not change. So
           w(T) >= k.best - budget. *)
        let b = k.best - budget in
        if b > 0 then b else 0);
    flush = (fun () -> kernel_flush k);
  }

(* ---- exact minima, sharded by smallest element ----

   Shard a = all subsets whose smallest element is a; shards are
   independent and jointly exhaustive, and the weighted pool splits
   oversized ones into contiguous second-element sub-ranges so idle
   workers steal from the heavy low-[a] shards. Each work unit drives one
   arena through the pre-order DFS enumeration and keeps its best as a
   plain (value, sorted index buffer) pair; the witness bitset is
   materialised once, when the unit returns.

   Branch-and-bound: after scoring a set S the scorer's [bound_num] gives
   a floor on the measure's numerator over every strict extension of S;
   dividing by the largest reachable set size lower-bounds the measure
   over the whole subtree. The subtree is cut only when that bound is
   STRICTLY above the shared incumbent — the smallest value any unit has
   scored so far, which only decreases toward the true minimum — so no
   minimiser or equal-valued (tie-broken) set is ever skipped. Correctly
   rounded float division is monotone in its real argument, so the float
   comparison inherits the soundness of the integer inequality. Values
   and witnesses are therefore bit-identical to the unpruned enumeration
   at any job count; only the visit COUNT is timing-dependent (DESIGN
   §11). Determinism of the result never rests on the incumbent: the
   min + lex tiebreak is order-independent, and the pool combines unit
   results in (shard, part) order. *)

(* Progress heartbeat granularity: shards tick once per this many scored
   sets (a power of two, so the hot-loop test is one [land]); the remainder
   is flushed when the shard finishes. Coarse enough that a disabled run
   pays one bool load per batch, fine enough that the heartbeat stays live
   on slow (wireless) scorers. *)
let progress_batch = 4096

let min_over_shards name ?(progress_total = 0) ?(prune = true) ?jobs g kmax make_scorer =
  let n = Graph.n g in
  let task = Progress.start ~units:"sets" ~label:name ~total:progress_total () in
  (* Shared incumbent, read by every unit's pruning test. Stored as a
     boxed float Atomic: OCaml ints cannot hold the bit pattern of every
     double, and the box only allocates on publication — which the CAS
     loop attempts only on strict improvement. *)
  let incumbent = Atomic.make infinity in
  let rec publish v =
    let cur = Atomic.get incumbent in
    if v < cur && not (Atomic.compare_and_set incumbent cur v) then publish v
  in
  let scratch = max 1 (min kmax n) in
  (* One work unit: the sub-shard of smallest-element [a] whose second
     element lies in [blo, bhi), plus the singleton {a} iff [self]. *)
  let unit_body a ~blo ~bhi ~self =
    let inc = Nbhd.Inc.create g in
    let sc = make_scorer inc in
    let prev = Array.make scratch 0 in
    let prev_len = ref 0 in
    let scored = ref 0 in
    let cut = ref 0 in
    let improvements = ref 0 in
    let have = ref false in
    (* 1-slot float array: improvements store without boxing, so the only
       timing-dependent allocation in a pruned run is incumbent boxes. *)
    let best_v = Array.make 1 infinity in
    let best_w = Array.make scratch 0 in
    let best_len = ref 0 in
    Combi.iter_subshard_le_prune n kmax a ~blo ~bhi ~self (fun buf ~len ~kept ->
        for j = !prev_len - 1 downto kept do
          Nbhd.Inc.remove inc prev.(j)
        done;
        for j = kept to len - 1 do
          let v = buf.(j) in
          Nbhd.Inc.add inc v;
          prev.(j) <- v
        done;
        prev_len := len;
        incr scored;
        if !scored land (progress_batch - 1) = 0 then Progress.tick task progress_batch;
        let v = sc.score buf ~len in
        if
          (not !have)
          || v < best_v.(0)
          || (v = best_v.(0) && lex_less_arr_len buf len best_w !best_len)
        then begin
          have := true;
          incr improvements;
          best_v.(0) <- v;
          Array.blit buf 0 best_w 0 len;
          best_len := len
        end;
        (* Prune decision for the subtree of strict extensions. [budget] =
           how many vertices an extension can still add; the largest
           reachable size [len + budget] is the denominator floor's mate.
           Strict [>]: equal-valued subtrees survive so the lex tiebreak
           sees every candidate witness it would have seen unpruned. *)
        prune
        && begin
             if v < Atomic.get incumbent then publish v;
             let budget = min (kmax - len) (n - 1 - buf.(len - 1)) in
             budget > 0
             && begin
                  let floor_num = sc.bound_num ~last:buf.(len - 1) ~budget in
                  let lb = float_of_int floor_num /. float_of_int (len + budget) in
                  lb > Atomic.get incumbent
                  &&
                  (incr cut;
                   true)
                end
           end);
    sc.flush ();
    if !scored > 0 then begin
      Metrics.add m_sets_scored !scored;
      Work.add Work.sets_scored !scored;
      let rem = !scored land (progress_batch - 1) in
      if rem > 0 then Progress.tick task rem
    end;
    if !cut > 0 then begin
      Metrics.add m_subtrees_pruned !cut;
      Work.add work_subtrees_pruned !cut
    end;
    if !improvements > 0 then Metrics.add m_improvements !improvements;
    if !have then
      Some { value = best_v.(0); witness = Bitset.of_array n (Array.sub best_w 0 !best_len) }
    else None
  in
  (* Steal weights: |shard a| = Σ_{j<=kmax-1} C(n-a-1, j) subsets. The
     pool splits heavy shards into [parts] units; the split point between
     parts is by cumulative second-element weight, recomputed identically
     by every unit of the shard (same floats, same order), so the ranges
     are consistent and partition [a+1, n). *)
  let shard_weight a = Combi.count_subsets_upto_float (n - 1 - a) (kmax - 1) in
  let map a ~part ~parts =
    if parts = 1 then unit_body a ~blo:(a + 1) ~bhi:n ~self:true
    else begin
      let wgt b = Combi.count_subsets_upto_float (n - 1 - b) (kmax - 2) in
      let total = ref 0.0 in
      for b = a + 1 to n - 1 do
        total := !total +. wgt b
      done;
      let lo p =
        if p <= 0 then a + 1
        else if p >= parts then n
        else begin
          let thresh = !total *. float_of_int p /. float_of_int parts in
          let acc = ref 0.0 in
          let b = ref (a + 1) in
          while !b < n && !acc +. wgt !b <= thresh do
            acc := !acc +. wgt !b;
            incr b
          done;
          !b
        end
      in
      unit_body a ~blo:(lo part) ~bhi:(lo (part + 1)) ~self:(part = 0)
    end
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Progress.finish task)
      (fun () ->
        Pool.parallel_reduce_weighted ?jobs ~n ~weight:shard_weight ~init:None ~map
          ~combine:better_opt ())
  in
  match result with
  | Some w -> w
  | None -> invalid_arg (name ^ ": no feasible sets")

(* Generic exact minimum of a measure over non-empty subsets of size <= kmax,
   guarded by the candidate-set count. *)
let min_over_sets name ?(work_limit = 1 lsl 24) ?prune ?jobs g kmax make_scorer =
  let n = Graph.n g in
  if n = 0 || kmax = 0 then invalid_arg (name ^ ": no feasible sets");
  let count = count_sets_le name g kmax in
  check_work name count work_limit;
  min_over_shards name ~progress_total:count ?prune ?jobs g kmax make_scorer

(* ---- sampled minima, sharded by sample block ----

   Each fixed-size block of samples draws from its own [Rng.split] child
   stream, split off in block order before any parallelism starts. The
   result is therefore a function of (seed, samples) alone: job count and
   scheduling cannot change which sets are drawn or which witness wins. *)

let sample_block = 32

let split_streams rng nblocks =
  let streams = Array.make nblocks rng in
  for b = 0 to nblocks - 1 do
    streams.(b) <- Rng.split rng
  done;
  streams

let min_over_sampled_sets ?jobs g kmax rng samples score =
  let n = Graph.n g in
  if n = 0 || kmax = 0 then invalid_arg "Measure: no feasible sets";
  if samples <= 0 then invalid_arg "Measure: samples must be positive";
  let nblocks = (samples + sample_block - 1) / sample_block in
  let streams = split_streams rng nblocks in
  let shard b =
    let r = streams.(b) in
    let best = ref None in
    let ndraws = min sample_block (samples - (b * sample_block)) in
    for _ = 1 to ndraws do
      Metrics.incr m_sampled_sets;
      let k = 1 + Rng.int r kmax in
      (* [kmax] is not necessarily <= n for direct callers; a draw above n
         cannot be materialised. Clamp it — after the draw, so the stream
         stays aligned — and account for the distortion, exactly like the
         wireless sampler's inner-cap clamp. *)
      let k =
        if k > n then begin
          Metrics.incr m_sampled_clamped;
          n
        end
        else k
      in
      let s = Bitset.random_of_universe r n k in
      consider best (score s) s ~copy:false
    done;
    Work.add Work.draws ndraws;
    !best
  in
  match Pool.parallel_reduce ?jobs ~n:nblocks ~init:None ~map:shard ~combine:better_opt () with
  | Some w -> w
  | None -> assert false

let beta_exact ?alpha ?work_limit ?prune ?jobs g =
  Span.with_ ~name:"measure.beta_exact" (fun () ->
      min_over_sets "Measure.beta_exact" ?work_limit ?prune ?jobs g (max_set_size ?alpha g)
        expansion_scorer)

let beta_sampled ?alpha ?jobs rng ~samples g =
  Span.with_ ~name:"measure.beta_sampled" (fun () ->
      min_over_sampled_sets ?jobs g (max_set_size ?alpha g) rng samples
        (Nbhd.expansion_of_set g))

let beta_u_exact ?alpha ?work_limit ?prune ?jobs g =
  Span.with_ ~name:"measure.beta_u_exact" (fun () ->
      min_over_sets "Measure.beta_u_exact" ?work_limit ?prune ?jobs g (max_set_size ?alpha g)
        (unique_scorer g))

let beta_u_sampled ?alpha ?jobs rng ~samples g =
  Span.with_ ~name:"measure.beta_u_sampled" (fun () ->
      min_over_sampled_sets ?jobs g (max_set_size ?alpha g) rng samples
        (Nbhd.unique_expansion_of_set g))

(* Exact max over S' of |Γ¹_S(S')| for a fixed S, returning (max, argmax).
   Gray-code enumeration with incremental per-vertex neighbor counts; the
   argmax is the first strict maximum in Gray order, which is the witness
   [wireless_of_set_exact] reports. Value-only callers use the
   word-parallel kernel above instead. *)
let max_unique_over_subsets ?(work_limit = 1 lsl 24) g s =
  let n = Graph.n g in
  let elts = Bitset.to_array s in
  let k = Array.length elts in
  if k = 0 then invalid_arg "Measure.wireless_of_set: empty set";
  check_gray_work "Measure.wireless_of_set" k work_limit;
  let cnt = Array.make n 0 in
  let uniq = ref 0 in
  let cur = Bitset.create n in
  let best = ref 0 in
  let best_set = ref (Bitset.create n) in
  let total = 1 lsl k in
  for i = 1 to total - 1 do
    (* The bit toggled at Gray step i is the lowest set bit of i; it is an
       add exactly when set in gray(i) = i lxor (i lsr 1). *)
    let bit = Bitset.lowest_bit i in
    let u = elts.(bit) in
    let adding = ((i lxor (i lsr 1)) lsr bit) land 1 = 1 in
    let nbrs = Graph.neighbors g u in
    if adding then begin
      Bitset.add_inplace cur u;
      for j = 0 to Array.length nbrs - 1 do
        let w = Array.unsafe_get nbrs j in
        if not (Bitset.mem s w) then begin
          let c = cnt.(w) in
          if c = 0 then incr uniq else if c = 1 then decr uniq;
          cnt.(w) <- c + 1
        end
      done
    end
    else begin
      Bitset.remove_inplace cur u;
      for j = 0 to Array.length nbrs - 1 do
        let w = Array.unsafe_get nbrs j in
        if not (Bitset.mem s w) then begin
          let c = cnt.(w) in
          if c = 1 then decr uniq else if c = 2 then incr uniq;
          cnt.(w) <- c - 1
        end
      done
    end;
    if !uniq > !best then begin
      best := !uniq;
      best_set := Bitset.copy cur
    end
  done;
  Metrics.add m_gray_flips (total - 1);
  Work.add Work.gray_steps (total - 1);
  (!best, !best_set)

let max_unique_count g s =
  let elts = Bitset.to_array s in
  let len = Array.length elts in
  if len = 0 then invalid_arg "Measure.max_unique_count: empty set";
  let k = kernel_create g in
  let m = kernel_max k elts len in
  kernel_flush k;
  m

let wireless_of_set_exact ?work_limit g s =
  let m, s' = max_unique_over_subsets ?work_limit g s in
  { value = float_of_int m /. float_of_int (Bitset.cardinal s); witness = s' }

let beta_w_exact ?alpha ?(work_limit = 1 lsl 26) ?prune ?jobs g =
  Span.with_ ~name:"measure.beta_w_exact" (fun () ->
      let kmax = max_set_size ?alpha g in
      let n = Graph.n g in
      if n = 0 || kmax = 0 then invalid_arg "Measure.beta_w_exact: no feasible sets";
      check_wireless_work "Measure.beta_w_exact" g kmax work_limit;
      (* The heartbeat counts outer sets; the admitted inner work bounds the
         subset count, so this is safe to compute after the guard. *)
      let progress_total = try Combi.subsets_count_le n kmax with Combi.Overflow -> 0 in
      min_over_shards "Measure.beta_w_exact" ~progress_total ?prune ?jobs g kmax
        (wireless_scorer g))

(* Largest sampled |S| for which the inner 2^|S| maximisation is viable;
   matches the default [inner_work_limit] of 2^22 inner subset steps. *)
let wireless_sample_cap = 22

let beta_w_sampled ?alpha ?(inner_work_limit = 1 lsl 22) ?jobs rng ~samples g =
  Span.with_ ~name:"measure.beta_w_sampled" (fun () ->
      let kmax = max_set_size ?alpha g in
      let n = Graph.n g in
      if n = 0 || kmax = 0 then invalid_arg "Measure.beta_w_sampled: no feasible sets";
      if samples <= 0 then invalid_arg "Measure.beta_w_sampled: samples must be positive";
      let nblocks = (samples + sample_block - 1) / sample_block in
      let streams = split_streams rng nblocks in
      let shard b =
        let r = streams.(b) in
        let kern = kernel_create g in
        let best = ref None in
        let ndraws = min sample_block (samples - (b * sample_block)) in
        for _ = 1 to ndraws do
          Metrics.incr m_sampled_sets;
          let k = 1 + Rng.int r kmax in
          (* Draws above the inner-enumeration cap used to be discarded
             with no replacement, silently wasting the sample budget
             whenever kmax > 22; clamp them to the cap instead and account
             for the distortion. *)
          let k =
            if k > wireless_sample_cap then begin
              Metrics.incr m_sampled_clamped;
              wireless_sample_cap
            end
            else k
          in
          let s = Bitset.random_of_universe r n k in
          match check_gray_work "Measure.wireless_of_set" k inner_work_limit with
          | () ->
              let m = kernel_max kern (Bitset.to_array s) k in
              consider best (float_of_int m /. float_of_int k) s ~copy:false
          | exception Too_large _ -> Metrics.incr m_inner_pruned
        done;
        kernel_flush kern;
        Work.add Work.draws ndraws;
        !best
      in
      match Pool.parallel_reduce ?jobs ~n:nblocks ~init:None ~map:shard ~combine:better_opt () with
      | Some w -> w
      | None ->
          (* Every sample hit the inner work limit: keep the historical
             "no certificate" result rather than raising. *)
          { value = infinity; witness = Bitset.create n })

(* ---- per-size profiles ----

   Values only (no witness), so plain [Float.min] is the combine: it is
   associative and commutative, and scores are never NaN, so the profile is
   deterministic without any tiebreak. Same incremental engine as the
   minima, one size at a time. *)

let profile_sizes ?jobs g kmax make_scorer =
  let n = Graph.n g in
  let out = ref [] in
  for k = kmax downto 1 do
    let shard a =
      let inc = Nbhd.Inc.create g in
      let sc = make_scorer inc in
      let prev = Array.make k 0 in
      let prev_len = ref 0 in
      let scored = ref 0 in
      let best = ref infinity in
      Combi.iter_subsets_of_size_with_min_delta n k a (fun idxs ~kept ->
          for j = !prev_len - 1 downto kept do
            Nbhd.Inc.remove inc prev.(j)
          done;
          for j = kept to k - 1 do
            let v = idxs.(j) in
            Nbhd.Inc.add inc v;
            prev.(j) <- v
          done;
          prev_len := k;
          incr scored;
          let v = sc.score idxs ~len:k in
          if v < !best then best := v);
      sc.flush ();
      if !scored > 0 then begin
        Metrics.add m_sets_scored !scored;
        Work.add Work.sets_scored !scored
      end;
      !best
    in
    let best =
      Pool.parallel_reduce ?jobs ~n:(n - k + 1) ~init:infinity ~map:shard ~combine:Float.min ()
    in
    out := (k, best) :: !out
  done;
  !out

let profile_beta ?alpha ?(work_limit = 1 lsl 24) ?jobs g =
  let kmax = max_set_size ?alpha g in
  let count = count_sets_le "Measure.profile_beta" g kmax in
  check_work "Measure.profile_beta" count work_limit;
  profile_sizes ?jobs g kmax expansion_scorer

let profile_beta_u ?alpha ?(work_limit = 1 lsl 24) ?jobs g =
  let kmax = max_set_size ?alpha g in
  let count = count_sets_le "Measure.profile_beta_u" g kmax in
  check_work "Measure.profile_beta_u" count work_limit;
  profile_sizes ?jobs g kmax (unique_scorer g)

let profile_beta_w ?alpha ?(work_limit = 1 lsl 26) ?jobs g =
  let kmax = max_set_size ?alpha g in
  check_wireless_work "Measure.profile_beta_w" g kmax work_limit;
  profile_sizes ?jobs g kmax (wireless_scorer g)
