(** Bottom-up construction of a trie from a sorted run of keys.

    Hyperion's containers are pre-order byte streams of T/S records
    (paper Section 3.1), so a strictly ascending run can be written out
    in one pass, each container's bytes laid down once, instead of paying
    a descent, a splice and jump-table upkeep per key.  The result is a
    trie the put path could have produced: record heads and child bodies
    come from {!Encode}, jump fields and tables follow {!Jumps}, multi-key
    children embed when they fit [min 255 embedded_max] bytes, a top
    region over [embedded_eject_parent_limit] ejects its largest embedded
    children, and content past [split_a] is spread over CEB slots on
    32-key boundaries as {!Ops} splits would.  Containers are exact-fit
    (free tail under 32 bytes); no chunk is freed along the way. *)

val build :
  Types.trie -> string array -> int64 option array -> lo:int -> hi:int -> unit
(** [build trie keys vals ~lo ~hi] makes the empty [trie] hold the keys
    [keys.(lo) .. keys.(hi - 1)] with the terminals [vals] ([None]: a key
    stored without a value).  The keys must be strictly ascending,
    non-empty and at most 2^20 bytes; {!Store.of_sorted} checks that.
    @raise Hyperion_error.Error on allocator failure or
    [Container_overflow]; the trie is then unusable and must be dropped. *)
