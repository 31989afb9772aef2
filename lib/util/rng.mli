(** Deterministic, splittable pseudo-random number generator.

    All randomized code in this repository threads an explicit [Rng.t]; there
    is no hidden global state, so every experiment in [EXPERIMENTS.md] is
    reproducible from its printed seed.

    The core generator is xoshiro256** (Blackman & Vigna); seeding and
    splitting use splitmix64, the recommended companion seeding generator.
    The four 64-bit state words live in one 32-byte buffer that each step
    reads and rewrites in place as unboxed integers, so no draw allocates
    for its state: [bits], [int], [int_in], [bool], [bernoulli],
    [bernoulli_pow2] and [geometric] cost zero minor words. Only results
    typed [int64] or [float] are boxed ({!int64} always; {!float} when the
    call is not inlined). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator deterministically from [seed] by running
    splitmix64 to fill the four xoshiro words. Distinct seeds give
    (practically) independent streams. *)

val split : t -> t
(** [split t] returns a fresh generator seeded from the next outputs of [t].
    The child stream is independent of further draws from [t]; use it to hand
    private randomness to sub-computations (e.g. one per simulated node). *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the same
    future stream. Used by tests that check determinism. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** Next 62-bit non-negative integer (uniform on [0, 2^62)). *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); [bound] must be positive.
    Uses rejection sampling, so the distribution is exactly uniform. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi]. *)

val float : t -> float
(** Uniform float in [0, 1), with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val bernoulli_pow2 : t -> int -> bool
(** [bernoulli_pow2 t k] is [true] with probability [2^-k], for
    [0 <= k <= 52] (raises [Invalid_argument] otherwise). It answers and
    advances the stream exactly as [bernoulli t (1. /. 2^k)] does — [k = 0]
    draws nothing, any other [k] one 53-bit value — but compares integers,
    with no float arithmetic. The Decay protocols' coin. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success in
    Bernoulli(p) trials (support {0, 1, ...}). [p] must be in (0, 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t n k] draws [k] distinct values from
    [0..n-1], in random order. Requires [0 <= k <= n]. Uses Floyd's
    algorithm, so it is O(k) in expectation for any [n]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val subset_bernoulli : t -> int -> float -> int list
(** [subset_bernoulli t n p] includes each of [0..n-1] independently with
    probability [p]; returns the chosen indices in increasing order. This is
    the sampling primitive of the decay argument (Lemma 4.2). *)
