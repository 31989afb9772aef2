(** Scale engine: receiver-centric radio rounds over {!Wx_graph.Csr}.

    Functionally the same synchronous radio model as {!Network}/{!Sim}
    (silent vertex receives iff exactly one neighbor transmits; ≥ 2 is a
    counted collision), re-expressed as a {e gather}: each round scans all
    vertices, counting transmitting neighbors off the flat CSR layout with
    an early exit at 2. Per-vertex state lives in preallocated [Bytes]/int
    arrays and the scan is sharded across {!Wx_par.Pool} domains by
    contiguous vertex ranges.

    {2 Determinism}

    Protocol randomness is drawn sequentially (ascending vertex order — the
    order [Bitset.iter] gives the legacy protocols) before the scan, and
    shard results are packed ints summed in range order, so outcomes are
    bit-identical at any [jobs] {e and} identical to [Sim.run] with the
    same protocol, seed and instance (outcome, frontier history and
    collision counts — regression-tested).

    {2 Cost}

    A steady-state [step] at [jobs = 1] allocates zero minor words, for
    flood and Decay alike: the Rng draws without boxing, and Decay's coin
    ({!Decay_protocol.coin}) is an integer compare for phase slots up to
    52. A saturated network costs O(1) per vertex per round instead of the
    legacy scatter's O(m). Hot loops credit {!Wx_obs.Work.vertex_scans} and
    {!Wx_obs.Work.radio_rounds}. *)

type t
(** Mutable simulation state over one CSR instance. *)

type protocol = { name : string; fill : t -> Wx_util.Rng.t -> unit }
(** A protocol fills the transmit scratch (cleared before the call) for
    the upcoming round, drawing any randomness in ascending vertex order. *)

val create : ?jobs:int -> ?range:int -> Wx_graph.Csr.t -> source:int -> t
(** Fresh state: only [source] informed, round 0. [jobs] defaults to
    {!Wx_par.Pool.default_jobs} (a [jobs]-independent result either way);
    [range] (default 16384) is the shard granularity. *)

val step : t -> protocol -> Wx_util.Rng.t -> int
(** Execute one round; returns the newly-informed count. The scan runs
    sequentially when [jobs <= 1] or the instance fits one range —
    bypassing the pool keeps the steady-state step allocation-free. *)

val inform : t -> int -> unit
(** Seed an extra source: mark the vertex informed as of the current
    round (no-op if already informed). Multi-source broadcast, and the
    bench's handle for measuring the fully-saturated steady state. *)

val csr : t -> Wx_graph.Csr.t
val round : t -> int
val collisions : t -> int
val informed_count : t -> int
val all_informed : t -> bool
val is_informed : t -> int -> bool

val informed_since : t -> int -> int
(** Round the vertex was informed (0 for the source), -1 if not yet. *)

(** CSR counterparts of the legacy protocols, drawing identical random
    streams ([Flood], [Decay_protocol], [Uniform]); shared metric counter
    names, so [--metrics] totals do not depend on the engine. *)

val flood : protocol
val decay : protocol
val decay_with_phase_length : int -> protocol
val decay_globally_phased : protocol
val uniform : float -> protocol

val run :
  ?max_rounds:int ->
  ?jobs:int ->
  ?range:int ->
  ?on_round:(Sim.round_info -> unit) ->
  Wx_graph.Csr.t ->
  source:int ->
  protocol ->
  Wx_util.Rng.t ->
  Sim.outcome
(** Mirror of {!Sim.run} (same default {!Sim.round_limit} budget, same
    [radio.*] metrics, ["radio.round"] sink events and outcome record), so
    results compare by structural equality across engines. *)
