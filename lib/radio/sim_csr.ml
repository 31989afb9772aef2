(* CSR round kernel: the scale engine behind `wx broadcast --engine csr`.

   The legacy Network/Sim pair is transmitter-centric: each round walks the
   transmitters' adjacency rows and scatters hear-counts into an array.
   This engine is receiver-centric (a gather): for each vertex it counts
   transmitting neighbors straight off the flat Csr layout, early-exiting
   at 2 (the model cannot distinguish "two" from "many"). Gather has two
   properties scatter lacks: each vertex's result is computed from reads
   only, so the scan shards over domains by contiguous vertex ranges with
   no write contention (each shard writes informed/since for its own
   vertices only), and a saturated network costs O(1) per vertex instead
   of O(m) per round.

   Determinism: protocols draw from the single Rng stream sequentially in
   ascending vertex order — the exact order Bitset.iter gives the legacy
   protocols — before the scan starts, and shard results are packed ints
   summed in range order by the pool (Pool.parallel_reduce_ranges cuts
   ranges by n alone). Outcomes are therefore bit-identical at any --jobs
   and to the legacy Sim on shared instances (regression-tested in
   test/test_sim_csr.ml).

   Allocation: all per-vertex state lives in preallocated Bytes/int
   arrays, the scan is a pair of top-level tail-recursive loops with int
   accumulators, and per-round results are packed into immediate ints —
   at jobs = 1 a steady-state flood or Decay step allocates zero minor
   words (the SIMSCALE bench asserts both under Memgc). *)

module Csr = Wx_graph.Csr
module Rng = Wx_util.Rng
module Intvec = Wx_util.Intvec
module Metrics = Wx_obs.Metrics
module Sink = Wx_obs.Sink
module Work = Wx_obs.Work
module Pool = Wx_par.Pool

type t = {
  csr : Csr.t;
  n : int;
  jobs : int;
  range : int;
  informed : Bytes.t; (* '\001' iff informed *)
  transmit : Bytes.t; (* '\001' iff transmitting this round; scratch *)
  since : int array; (* round informed, -1 if not *)
  mutable informed_count : int;
  mutable round : int;
  mutable collisions : int;
}

type protocol = { name : string; fill : t -> Rng.t -> unit }

let create ?jobs ?(range = 16384) csr ~source =
  let n = Csr.n csr in
  if source < 0 || source >= n then invalid_arg "Sim_csr.create: bad source";
  if range < 1 then invalid_arg "Sim_csr.create: range must be >= 1";
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "Sim_csr.create: jobs must be >= 1"
    | None -> Pool.default_jobs ()
  in
  let informed = Bytes.make n '\000' in
  Bytes.set informed source '\001';
  let since = Array.make n (-1) in
  since.(source) <- 0;
  {
    csr;
    n;
    jobs;
    range;
    informed;
    transmit = Bytes.make n '\000';
    since;
    informed_count = 1;
    round = 0;
    collisions = 0;
  }

let inform t v =
  if v < 0 || v >= t.n then invalid_arg "Sim_csr.inform: bad vertex";
  if Bytes.get t.informed v = '\000' then begin
    Bytes.set t.informed v '\001';
    t.since.(v) <- t.round;
    t.informed_count <- t.informed_count + 1
  end

let csr t = t.csr
let round t = t.round
let collisions t = t.collisions
let informed_count t = t.informed_count
let all_informed t = t.informed_count = t.n
let is_informed t v = Bytes.get t.informed v = '\001'
let informed_since t v = t.since.(v)

(* ---- the round scan ----

   Top-level tail-recursive loops (not local closures) so a jobs=1 step
   performs no closure allocation. Results pack as
   [(newly lsl 31) lor collisions] — both counts are < 2^31 for any
   instance that fits in memory, and packed ints add componentwise, so
   plain [(+)] is the shard combine. *)

let mask31 = (1 lsl 31) - 1

(* Transmitting-neighbor count for one row slice, saturating at 2:
   transmit bytes are 0/1, so the char code IS the contribution. *)
let rec count_tx transmit nbrs i stop acc =
  if acc >= 2 || i >= stop then acc
  else
    count_tx transmit nbrs (i + 1) stop
      (acc + Char.code (Bytes.unsafe_get transmit (Array.unsafe_get nbrs i)))

(* Receiver scan over vertices [w, hi): a transmitter hears nothing; a
   silent vertex hearing >= 2 is a collision event (informed or not); a
   silent uninformed vertex hearing exactly 1 joins the informed set.
   Writes touch only informed/since slots inside [w, hi), so concurrent
   shards never race. [round] is the 1-based index of the round being
   executed. *)
let rec scan offsets nbrs informed transmit since round hi w acc =
  if w >= hi then acc
  else if Bytes.unsafe_get transmit w = '\001' then
    scan offsets nbrs informed transmit since round hi (w + 1) acc
  else begin
    let c =
      count_tx transmit nbrs (Array.unsafe_get offsets w) (Array.unsafe_get offsets (w + 1)) 0
    in
    if c >= 2 then scan offsets nbrs informed transmit since round hi (w + 1) (acc + 1)
    else if c = 1 && Bytes.unsafe_get informed w = '\000' then begin
      Bytes.unsafe_set informed w '\001';
      Array.unsafe_set since w round;
      scan offsets nbrs informed transmit since round hi (w + 1) (acc + (1 lsl 31))
    end
    else scan offsets nbrs informed transmit since round hi (w + 1) acc
  end

let step t protocol rng =
  Bytes.fill t.transmit 0 t.n '\000';
  protocol.fill t rng;
  t.round <- t.round + 1;
  let offsets = Csr.offsets t.csr and nbrs = Csr.neighbors t.csr in
  let packed =
    if t.jobs <= 1 || t.n <= t.range then
      scan offsets nbrs t.informed t.transmit t.since t.round t.n 0 0
    else
      Pool.parallel_reduce_ranges ~jobs:t.jobs ~range:t.range ~n:t.n ~init:0
        ~map:(fun ~lo ~hi -> scan offsets nbrs t.informed t.transmit t.since t.round hi lo 0)
        ~combine:( + ) ()
  in
  let newly = packed lsr 31 in
  t.informed_count <- t.informed_count + newly;
  t.collisions <- t.collisions + (packed land mask31);
  Work.add Work.vertex_scans t.n;
  Work.incr Work.radio_rounds;
  newly

(* ---- protocols ----

   Each fill draws from the rng for informed vertices in ascending vertex
   order — the order Bitset.iter hands the legacy protocols — so the two
   engines consume identical random streams and produce identical
   transmit sets round for round. Counter names are shared with the
   legacy protocol modules (registration is idempotent), so --metrics
   totals do not depend on the engine. *)

let m_coin_flips = Metrics.counter "radio.decay.coin_flips"
let m_transmit_decisions = Metrics.counter "radio.decay.transmit_decisions"

let flood = { name = "flood"; fill = (fun t _rng -> Bytes.blit t.informed 0 t.transmit 0 t.n) }

(* One Decay fill: every informed vertex flips [Decay_protocol.coin] for
   its slot in the phase, counted from the round it was informed, or from
   round 0 for every vertex when [global]. The counters are summed in
   locals and published once per fill. *)
let decay_fill ~global k_opt t rng =
  let k = match k_opt with Some k -> k | None -> Decay_protocol.phase_length t.n in
  let round = t.round in
  let informed = t.informed and transmit = t.transmit and since = t.since in
  let flips = ref 0 and tx = ref 0 in
  for v = 0 to t.n - 1 do
    if Bytes.unsafe_get informed v = '\001' then begin
      let t0 = if global then 0 else Array.unsafe_get since v in
      incr flips;
      if Decay_protocol.coin rng ((round - t0) mod k) then begin
        incr tx;
        Bytes.unsafe_set transmit v '\001'
      end
    end
  done;
  Metrics.add m_coin_flips !flips;
  Metrics.add m_transmit_decisions !tx

let decay = { name = "decay"; fill = decay_fill ~global:false None }

let decay_with_phase_length k =
  { name = Printf.sprintf "decay-k%d" k; fill = decay_fill ~global:false (Some k) }

let decay_globally_phased = { name = "decay-global"; fill = decay_fill ~global:true None }

let uniform p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Sim_csr.uniform: p out of range";
  {
    name = Printf.sprintf "uniform-%.2f" p;
    fill =
      (fun t rng ->
        let informed = t.informed and transmit = t.transmit in
        for v = 0 to t.n - 1 do
          if Bytes.unsafe_get informed v = '\001' then
            if Rng.bernoulli rng p then Bytes.unsafe_set transmit v '\001'
        done);
  }

(* ---- the driver loop (mirrors Sim.run) ---- *)

let m_runs = Metrics.counter "radio.runs"
let m_rounds = Metrics.counter "radio.rounds"
let m_transmissions = Metrics.counter "radio.transmissions"
let m_collisions = Metrics.counter "radio.collisions"
let m_newly_informed = Metrics.counter "radio.newly_informed"
let m_collision_rounds = Metrics.counter "radio.collision_rounds"
let m_stalled_rounds = Metrics.counter "radio.stalled_rounds"

let rec count_ones b n i acc =
  if i >= n then acc else count_ones b n (i + 1) (acc + Char.code (Bytes.unsafe_get b i))

let run ?max_rounds ?jobs ?range ?on_round csr ~source protocol rng =
  let t = create ?jobs ?range csr ~source in
  let limit = match max_rounds with Some m -> m | None -> Sim.round_limit t.n in
  let history = Intvec.create () in
  Metrics.incr m_runs;
  let observing () = Metrics.is_enabled () || Sink.active () || on_round <> None in
  let finished = ref (all_informed t) in
  while (not !finished) && t.round < limit do
    let coll_before = t.collisions in
    let newly = step t protocol rng in
    Intvec.push history t.informed_count;
    if observing () then begin
      (* The transmit scratch still holds this round's transmitters (the
         next step clears it), so the cardinal is free to recover here. *)
      let info =
        {
          Sim.index = t.round;
          transmitters = count_ones t.transmit t.n 0 0;
          newly_informed = newly;
          informed_total = t.informed_count;
          collisions_this_round = t.collisions - coll_before;
        }
      in
      if Metrics.is_enabled () then begin
        Metrics.incr m_rounds;
        Metrics.add m_transmissions info.Sim.transmitters;
        Metrics.add m_collisions info.Sim.collisions_this_round;
        Metrics.add m_newly_informed info.Sim.newly_informed;
        if info.Sim.collisions_this_round > 0 then Metrics.incr m_collision_rounds;
        if info.Sim.transmitters > 0 && info.Sim.newly_informed = 0 then
          Metrics.incr m_stalled_rounds
      end;
      if Sink.active () then
        Sink.event "radio.round"
          [
            ("round", Wx_obs.Json.Int info.Sim.index);
            ("tx", Wx_obs.Json.Int info.Sim.transmitters);
            ("newly", Wx_obs.Json.Int info.Sim.newly_informed);
            ("informed", Wx_obs.Json.Int info.Sim.informed_total);
            ("collisions", Wx_obs.Json.Int info.Sim.collisions_this_round);
          ];
      match on_round with Some f -> f info | None -> ()
    end;
    finished := all_informed t
  done;
  {
    Sim.rounds = t.round;
    completed = all_informed t;
    informed_final = t.informed_count;
    collisions = t.collisions;
    frontier_history = Intvec.to_array history;
  }
