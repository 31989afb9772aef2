(** Bucket queue over small integer keys with lowest-index extraction.

    Members are the integers [0 .. size-1], each held under at most one
    key in [0 .. max_key]. Every key owns a bitset row of
    ⌈size/63⌉ words, so a query returns the {e lowest} member of the
    highest (or lowest) occupied key by a word scan and one lowest-bit
    extraction. This is the "first maximum in index order" rule of the
    spokesmen selection loops, served without rescoring every candidate.

    Cost: [set] and [remove] are O(1); [max_elt] / [min_elt] are
    O(size/63) plus the key range they skip, amortised over the [set]s
    that raised (or lowered) the extreme key. Memory is
    [(max_key + 1) · ⌈size/63⌉] words. No operation allocates. *)

type t

val create : size:int -> max_key:int -> t
(** An empty queue. Raises [Invalid_argument] if [size] or [max_key] is
    negative. *)

val mem : t -> int -> bool

val set : t -> int -> int -> unit
(** [set q x k] inserts [x] under key [k], or moves it there. Raises
    [Invalid_argument] if [k] is outside [0 .. max_key]. *)

val remove : t -> int -> unit
(** Removes [x]; no-op when absent. *)

val max_elt : t -> int
(** The lowest member among those with the highest key; [-1] when empty. *)

val min_elt : t -> int
(** The lowest member among those with the lowest key; [-1] when empty. *)
