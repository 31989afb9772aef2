(** The Decay protocol of Bar-Yehuda, Goldreich and Itai [5].

    Time is divided into phases of [k = ⌈log₂ n⌉ + 1] rounds. An informed
    processor in slot [i] of a phase (slots counted from 0, relative to the
    round it got the message) transmits with probability [2^{-i}]. Every
    processor with an informed neighbor receives within O(log n) phases
    w.h.p. — the classical O((D + log n)·log n)-style upper bound that the
    Section 5 lower bound complements. *)

val phase_length : int -> int
(** [⌈log₂ n⌉ + 1] for an n-vertex network. *)

val coin : Wx_util.Rng.t -> int -> bool
(** [coin rng slot] is the transmit decision of a vertex in phase slot
    [slot] ([>= 0]): true with probability [2^-slot]. It answers and draws
    exactly as [Rng.bernoulli rng (1. /. float_of_int (1 lsl slot))], with
    integer arithmetic ({!Wx_util.Rng.bernoulli_pow2}) for slots up to 52.
    Both engines' Decay protocols flip it. *)

val protocol : Protocol.t

val with_phase_length : int -> Protocol.t
(** Override the phase length (ablation: decay aggressiveness). *)

val globally_phased : Protocol.t
(** The variant with globally aligned phases (slot = round mod k for every
    node, instead of per-node offsets from reception time). Globally
    aligned slots make same-slot neighbors collide more coherently —
    compared against the per-node variant in ablation A9. *)
