(* SIMSCALE — million-node radio simulation through the flat CSR engine.

   Four measurements on sparse G(n,m) instances at mean degree 8 (quick:
   n = 10^5; full: n = 10^6 — see EXPERIMENTS.md for the documented
   million-node run):

   1. Agreement: Decay through the legacy [Sim] and the CSR engine on a
      shared mid-size instance must produce structurally equal outcomes
      (rounds, completion, informed count, collisions, frontier history),
      and the CSR outcome must not depend on the job count.
   2. Alloc: once the network is saturated, a CSR flood step and a CSR
      Decay step at jobs=1 each allocate zero minor words (budgeted a
      constant few words for the [Gc.minor_words] float boxing of the
      probe itself) — the steady-state claim the acceptance gate names.
      The legacy scratch path is held to the same budget.
   3. Throughput: steady-state flood rounds on the fully-informed network
      (all n seeded via [inform] — the saturated regime both engines
      reach under sustained broadcast), legacy scatter vs CSR gather,
      reported as vertex-scans/sec (both engines credit
      Work.vertex_scans = n per round, so the rates land in wx-bench/4
      and gate in `wx bench diff`). At saturation the gather is O(1) per
      vertex (every neighbor probe early-exits on the transmitter check)
      while the scatter stays O(m); the headline claim: best CSR rate
      >= 5x legacy.
   4. End-to-end: Decay from one source at scale n, informational
      rounds/sec and spread (gnm at mean degree 8 may strand isolated
      vertices, so near-complete spread is the check, not completion —
      the giant component is informed within ~100 rounds at n = 10^5). *)

open Bench_common
module Clock = Wx_obs.Clock
module Memgc = Wx_obs.Memgc
module Work = Wx_obs.Work
module Pool = Wx_par.Pool
module Csr = Wx_graph.Csr
module Network = Wx_radio.Network
module Sim = Wx_radio.Sim
module Sim_csr = Wx_radio.Sim_csr

let timed f =
  let t0 = Clock.now_ns () in
  let v = f () in
  (v, Clock.ns_to_s (Clock.now_ns () - t0))

let per_sec units dt = if dt > 0.0 then float_of_int units /. dt else infinity

(* Steady-state alloc probe: run [steps] of [f] under Memgc and return the
   minor-word delta. The budget is a constant independent of the step
   count ([Gc.minor_words] boxes a float), so "< 16 words over 50 steps"
   certifies exactly zero per step. *)
let alloc_budget = 16.0
let alloc_steps = 50

let measure_steady_alloc f =
  let was = Memgc.is_enabled () in
  if not was then Memgc.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Memgc.disable ())
    (fun () ->
      let w0 = Memgc.own_minor_words () in
      for _ = 1 to alloc_steps do
        f ()
      done;
      Memgc.own_minor_words () -. w0)

let outcomes_equal (a : Sim.outcome) (b : Sim.outcome) =
  a.Sim.rounds = b.Sim.rounds
  && a.Sim.completed = b.Sim.completed
  && a.Sim.informed_final = b.Sim.informed_final
  && a.Sim.collisions = b.Sim.collisions
  && a.Sim.frontier_history = b.Sim.frontier_history

let run ~quick =
  let n = if quick then 100_000 else 1_000_000 in
  let m = 4 * n in
  let ok = ref 0 and total = ref 0 in
  let check claim ?instance ?predicted ?measured holds =
    incr total;
    if holds then incr ok;
    record ~claim ?instance ?predicted ?measured holds
  in
  let t = Table.create [ "engine"; "n"; "rounds"; "wall s"; "vertex-scans/sec" ] in
  let row engine rounds dt =
    Table.add_row t
      [
        engine;
        Table.fi n;
        Table.fi rounds;
        Printf.sprintf "%.3f" dt;
        Printf.sprintf "%.3e" (per_sec (n * rounds) dt);
      ]
  in

  (* 1. agreement on a shared mid-size instance, at several job counts *)
  let na = 20_000 and ma = 80_000 and cap = 400 in
  let ga = Gen.gnm (rng 61) na ma in
  let ca = Csr.of_graph ga in
  let legacy =
    Sim.run ~max_rounds:cap ga ~source:0 Wx_radio.Decay_protocol.protocol (Rng.create 2018)
  in
  let csr_j jobs =
    Sim_csr.run ~max_rounds:cap ~jobs ca ~source:0 Sim_csr.decay (Rng.create 2018)
  in
  let c1 = csr_j 1 in
  check "simscale: csr decay outcome = legacy (shared instance, seed)"
    ~instance:(Printf.sprintf "gnm n=%d m=%d" na ma)
    ~predicted:(float_of_int legacy.Sim.informed_final)
    ~measured:(float_of_int c1.Sim.informed_final)
    (outcomes_equal legacy c1);
  let jobs = Pool.default_jobs () in
  check "simscale: csr outcome independent of job count"
    ~instance:(Printf.sprintf "jobs 1 vs %d" jobs)
    ~predicted:(float_of_int c1.Sim.rounds)
    ~measured:(float_of_int (csr_j jobs).Sim.rounds)
    (outcomes_equal c1 (csr_j jobs));

  (* scale instance, built once (construction cost is not the claim) *)
  let g = Gen.gnm (rng 62) n m in
  let csr = Csr.of_graph g in
  check "simscale: csr layout matches graph"
    ~instance:(Printf.sprintf "gnm n=%d m=%d" n m)
    ~predicted:(float_of_int (2 * Graph.m g))
    ~measured:(float_of_int (Csr.offsets csr).(n))
    (Csr.n csr = n && Csr.m csr = Graph.m g && (Csr.offsets csr).(n) = 2 * Graph.m g);

  (* 2 + 3. steady state: seed every vertex via [inform] (the saturated
     all-transmit regime — flood alone deadlocks at a partial fixpoint
     because vertices with >= 2 informed neighbors hear collisions
     forever), then hold both engines to the zero-alloc budget and race
     them over identical flood rounds. *)
  let saturated_csr ~jobs =
    let st = Sim_csr.create ~jobs csr ~source:0 in
    for v = 0 to n - 1 do
      Sim_csr.inform st v
    done;
    ignore (Sim_csr.step st Sim_csr.flood (Rng.create 7));
    (st, Rng.create 7)
  in
  let st1, r1 = saturated_csr ~jobs:1 in
  let dw_csr = measure_steady_alloc (fun () -> ignore (Sim_csr.step st1 Sim_csr.flood r1)) in
  check "simscale: csr steady-state step allocates zero minor words"
    ~instance:(Printf.sprintf "%d saturated flood steps, jobs=1" alloc_steps)
    ~predicted:0.0 ~measured:dw_csr (dw_csr < alloc_budget);
  (* Decay on the same saturated network: one Rng coin per vertex per
     step, still inside the zero-alloc budget. *)
  let std, rd = saturated_csr ~jobs:1 in
  let dw_decay = measure_steady_alloc (fun () -> ignore (Sim_csr.step std Sim_csr.decay rd)) in
  check "simscale: csr steady-state decay step allocates zero minor words"
    ~instance:(Printf.sprintf "%d saturated decay steps, jobs=1" alloc_steps)
    ~predicted:0.0 ~measured:dw_decay (dw_decay < alloc_budget);
  let net = Network.create g 0 in
  for v = 0 to n - 1 do
    Network.inform net v
  done;
  ignore (Network.step net (Network.informed net));
  let dw_legacy =
    measure_steady_alloc (fun () -> ignore (Network.step net (Network.informed net)))
  in
  check "simscale: legacy steady-state step allocates zero minor words"
    ~instance:(Printf.sprintf "%d saturated flood steps" alloc_steps)
    ~predicted:0.0 ~measured:dw_legacy (dw_legacy < alloc_budget);

  let steps = if quick then 64 else 32 in
  let (), legacy_dt =
    timed (fun () ->
        for _ = 1 to steps do
          ignore (Network.step net (Network.informed net))
        done)
  in
  row "legacy scatter" steps legacy_dt;
  let (), csr1_dt =
    timed (fun () ->
        for _ = 1 to steps do
          ignore (Sim_csr.step st1 Sim_csr.flood r1)
        done)
  in
  row "csr gather (j=1)" steps csr1_dt;
  let stj, rj = saturated_csr ~jobs in
  let (), csrj_dt =
    timed (fun () ->
        for _ = 1 to steps do
          ignore (Sim_csr.step stj Sim_csr.flood rj)
        done)
  in
  row (Printf.sprintf "csr gather (j=%d)" jobs) steps csrj_dt;
  let legacy_rate = per_sec (n * steps) legacy_dt in
  let best_rate = Float.max (per_sec (n * steps) csr1_dt) (per_sec (n * steps) csrj_dt) in
  check "simscale: csr >= 5x legacy vertex-scan throughput (saturated flood)"
    ~instance:(Printf.sprintf "gnm n=%d, %d steady rounds" n steps)
    ~predicted:5.0
    ~measured:(best_rate /. legacy_rate)
    (best_rate >= 5.0 *. legacy_rate);

  (* 4. end-to-end decay broadcast at scale (informational rate) *)
  let decay_cap = 150 in
  let out, decay_dt =
    timed (fun () ->
        Sim_csr.run ~max_rounds:decay_cap csr ~source:0 Sim_csr.decay (Rng.create 99))
  in
  Table.add_row t
    [
      "csr decay e2e";
      Table.fi n;
      Table.fi out.Sim.rounds;
      Printf.sprintf "%.3f" decay_dt;
      Printf.sprintf "%.3e" (per_sec (n * out.Sim.rounds) decay_dt);
    ];
  (* Mean degree 8 leaves ~e^-8 of vertices isolated in expectation, so
     the spread check asks for 99% rather than completion. *)
  check "simscale: decay informs >= 99% at scale"
    ~instance:(Printf.sprintf "gnm n=%d, cap %d rounds" n decay_cap)
    ~predicted:(0.99 *. float_of_int n)
    ~measured:(float_of_int out.Sim.informed_final)
    (float_of_int out.Sim.informed_final >= 0.99 *. float_of_int n);
  Table.print t;
  verdict !ok !total

let experiment =
  {
    id = "simscale";
    title = "million-node radio rounds: flat CSR gather vs legacy scatter";
    claim = "scale engine validation + throughput (no paper claim)";
    run;
  }
