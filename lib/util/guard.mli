(** Shared work-guard contract for exponential enumeration kernels.

    Every 2^k subset enumeration in the tree — [Bitset.iter_subsets],
    the wireless inner maximisations (Gray-code walk or subset DFS), the
    measure layer's single-set guard — admits or rejects inputs through this one test, so callers
    catch a single exception regardless of which layer refused the work.
    {!Wx_expansion.Measure.Too_large} is a rebinding of {!Too_large}:
    handlers written against either name match both. *)

exception Too_large of string
(** Raised when an enumeration would exceed its work limit (or the
    native-int ceiling on step counts). *)

val max_gray_bits : int
(** Largest [k] for which [1 lsl k] is a positive int (61 on 64-bit) —
    the hard ceiling on Gray-code step counts. *)

val check_gray_work : string -> int -> int -> unit
(** [check_gray_work name k work_limit] raises {!Too_large} when [2^k]
    Gray-code steps exceed [min work_limit 2^max_gray_bits]. The message
    reports the effective bound and names the native-int ceiling when it,
    rather than the caller's limit, is what rejected the work. *)
