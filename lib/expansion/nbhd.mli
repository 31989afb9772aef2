(** Neighborhood operators from Section 2.1.

    All set arguments and results are {!Wx_util.Bitset.t} over the graph's
    vertex universe. Notation matches the paper:
    - [Γ(S)]: all neighbors of S (may intersect S),
    - [Γ⁻(S) = Γ(S) \ S]: external neighbors,
    - [Γ¹(S)]: vertices outside S with {e exactly one} neighbor in S,
    - [Γ¹_S(S′)]: vertices outside S with exactly one neighbor in S′ ⊆ S
      (the S-excluding unique neighborhood — the quantity wireless
      expansion maximizes). *)

module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph

val gamma : Graph.t -> Bitset.t -> Bitset.t
val gamma_minus : Graph.t -> Bitset.t -> Bitset.t
val gamma1 : Graph.t -> Bitset.t -> Bitset.t

val gamma1_excluding : Graph.t -> Bitset.t -> Bitset.t -> Bitset.t
(** [gamma1_excluding g s s'] is [Γ¹_S(S′)]. Requires [S′ ⊆ S]. *)

val deg_in : Graph.t -> int -> Bitset.t -> int
(** [deg_in g v s] is [deg(v, S)], the number of v's neighbors inside [s]. *)

val expansion_of_set : Graph.t -> Bitset.t -> float
(** [|Γ⁻(S)| / |S|]; [nan] on the empty set. *)

val unique_expansion_of_set : Graph.t -> Bitset.t -> float
(** [|Γ¹(S)| / |S|]. *)

(** Incremental neighborhood counters — the delta-scoring arena behind the
    exact measures.

    An [Inc.t] maintains a current set S under single-vertex [add]/[remove]
    in O(deg v) time with zero allocation, exposing O(1) reads of [|S|],
    [|Γ⁻(S)| ] and [|Γ¹(S)|]. Driven by {!Wx_util.Combi}'s delta
    enumerators, this replaces the O(|S|·Δ + n) fresh-bitset scoring of
    {!expansion_of_set}/{!unique_expansion_of_set} per enumerated subset.

    Arena discipline: one [Inc.t] per worker shard, reused across the whole
    enumeration. [reset] restores the empty-set state in O(touched) — it
    walks a dirty list of the vertices whose entries may be stale rather
    than clearing the full n-sized arrays. Not domain-safe: never share one
    arena between domains. *)
module Inc : sig
  type t

  val create : Graph.t -> t
  (** Fresh arena for [g] with S = ∅. O(n) allocation, done once per shard. *)

  val add : t -> int -> unit
  (** Add a vertex to S. O(deg v). Raises [Invalid_argument] if already
      present. *)

  val remove : t -> int -> unit
  (** Remove a vertex from S. O(deg v). Raises [Invalid_argument] if not
      present. *)

  val reset : t -> unit
  (** Restore S = ∅ in O(vertices touched since the last reset). *)

  val cardinal : t -> int  (** [|S|]. O(1). *)

  val boundary : t -> int  (** [|Γ(S) \ S|] = [|Γ⁻(S)|]. O(1). *)

  val unique : t -> int  (** [|Γ¹(S)|]. O(1). *)

  val mem : t -> int -> bool  (** Membership in S. O(1). *)

  val deg_in : t -> int -> int
  (** Number of the vertex's neighbors currently in S. O(1). *)

  val expansion : t -> float
  (** [boundary / cardinal]; [nan] on the empty set. Bit-identical to
      {!expansion_of_set} on the same set: both divide the same two exact
      integers. *)

  val unique_expansion : t -> float
  (** [unique / cardinal]; [nan] on the empty set. *)

  (** {2 Branch-and-bound floors}

      Monotone lower bounds on the numerators of the expansion measures,
      valid for {e every} superset T ⊇ S reachable with at most [budget]
      further {!add}s. They follow from the per-vertex deltas the arena
      maintains: an added vertex removes at most itself from [Γ⁻(S)], and
      at most [1 + deg v] vertices from [Γ¹(S)]. Dividing a floor by the
      maximum final size gives a lower bound on the measure over the whole
      subtree of extensions — the pruning test of
      {!Wx_expansion.Measure}. O(1), no allocation. *)

  val boundary_floor : t -> budget:int -> int
  (** [boundary_floor t ~budget] is [max 0 (boundary t - budget)]
      — [|Γ⁻(T)| ≥ boundary_floor] for every T ⊇ S with
      [|T| - |S| <= budget]. *)

  val unique_floor : t -> budget:int -> max_add_degree:int -> int
  (** [unique_floor t ~budget ~max_add_degree] is
      [max 0 (unique t - budget * (1 + max_add_degree))] — a floor on
      [|Γ¹(T)|] when every addable vertex has degree at most
      [max_add_degree]. *)
end

(** The same operators on a bipartite instance [(S, N, E)], where subsets
    live on side S and neighborhoods on side N. *)
module Bip : sig
  module Bipartite = Wx_graph.Bipartite

  val covered : Bipartite.t -> Bitset.t -> Bitset.t
  (** N-vertices with ≥ 1 neighbor in the S-subset. *)

  val unique : Bipartite.t -> Bitset.t -> Bitset.t
  (** N-vertices with exactly one neighbor in the S-subset — [Γ¹_S(S′)] when
      the instance is the graph between S and its neighborhood. *)

  val unique_count : Bipartite.t -> Bitset.t -> int
  (** [cardinal (unique t s')] without materializing the set. *)

  val iter_gray_unique :
    Bipartite.t -> int array -> (Bitset.t -> covered:int -> unique:int -> unit) -> unit
  (** [iter_gray_unique t elts f] enumerates every subset [S′] of the given
      S-vertices in Gray-code order (the order of {!Bitset.iter_subsets}
      when [elts] is ascending), maintaining per-N counts, [|Γ(S′)|] and
      [|Γ¹(S′)|] incrementally (O(deg) per step instead of O(m)), and calls
      [f s' ~covered ~unique] for each, starting with the empty set. The
      bitset is a reused buffer. Requires [Array.length elts <= 30]. This
      is the kernel of exact bipartite wireless and ordinary expansion. *)
end
