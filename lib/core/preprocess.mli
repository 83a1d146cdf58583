(** Optional key pre-processing (paper Section 3.4, Figure 12).

    For uniformly distributed keys (random integers, hashes), eight zero
    bits are injected into the first four key bytes — two into the low bits
    of each of the four bytes following the first output byte — reducing
    the entropy of the leading bytes so that fewer, larger third-level
    containers emerge (2^26 instead of 2^32).  The transformation is
    injective, invertible and preserves binary-comparable order; the key
    grows by exactly one byte.

    Only valid when every key is at least 4 bytes long (the paper evaluates
    it on 8-byte integers). *)

val min_key_len : int
(** 4: the shortest key {!encode} accepts. *)

val encode : string -> string
(** @raise Invalid_argument when the key is shorter than 4 bytes. *)

val encode_sub : Bytes.t -> pos:int -> len:int -> string
(** {!encode} of the [len] bytes of a buffer at [pos], copying them once. *)

val decode : string -> string
(** Inverse of {!encode}.  @raise Invalid_argument on strings that are not
    in the image of {!encode}. *)
