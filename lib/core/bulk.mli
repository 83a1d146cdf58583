(** Bottom-up construction of a trie from a sorted run of keys.

    Hyperion's containers are exact-fit pre-order byte streams of T/S
    records (paper Section 3.1), so a strictly ascending run can be
    written straight into its chunks instead of paying a descent, a
    splice and jump-table upkeep per key.  Each key range takes two
    passes:

    - a {e size} pass in integers only: one fixed-stride entry per T- and
      S-node on a reusable int scratch stack, recording head sizes
      ({!Node.t_head_size}, {!Node.s_head_size}), child body sizes,
      embed-or-container decisions, ejection over
      [embedded_eject_parent_limit], jump fields ({!Jumps}) and the CEB
      cuts over [split_a];
    - a {e write} pass that lays the records straight into their final
      bytes — a container's or CEB slot's chunk, or, for an embedded
      child, its parent's — through {!Encode}'s buffer writers, the one
      byte encoding the put path uses too.

    No string, [Buffer], list or per-group record is made per key.
    Children are built before their parents, in the order the put path
    would allocate them, so the result is a trie the put path could have
    produced, and byte for byte the one the string-building builder this
    replaced made.  Multi-key children embed when they fit
    [min 255 embedded_max] bytes; content past [split_a] is spread over
    CEB slots on 32-key boundaries as {!Ops} splits would.  Containers
    are exact-fit (free tail under 32 bytes); no chunk is freed along the
    way. *)

val build :
  Types.trie ->
  string array ->
  int64 option array ->
  lcp:int array ->
  lo:int ->
  hi:int ->
  unit
(** [build trie keys vals ~lcp ~lo ~hi] makes the empty [trie] hold the
    keys [keys.(lo) .. keys.(hi - 1)] with the terminals [vals] ([None]: a
    key stored without a value).  [lcp.(i)] is the length of the prefix
    [keys.(i)] shares with [keys.(i - 1)] ({!prefix_lengths}).  The keys
    must be strictly ascending, non-empty and at most 2^20 bytes;
    {!Store.of_sorted} checks that.
    @raise Hyperion_error.Error on allocator failure or
    [Container_overflow]; the trie is then unusable and must be dropped. *)

val prefix_lengths : string array -> int array
(** [prefix_lengths keys] is the [lcp] array {!build} needs: entry [i]
    is the length of the prefix [keys.(i)] shares with [keys.(i - 1)]
    (entry 0 is 0).
    @raise Invalid_argument when the keys are not strictly ascending. *)
