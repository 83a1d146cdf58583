(** Trie operations: point queries, order-preserving insertion, deletion,
    and the structural maintenance around them — embedded-container
    ejection (paper Fig. 8), path-compression bursts, jump-successor /
    jump-table upkeep (Section 3.3) and vertical container splits
    (Fig. 11, Eq. 4).

    A [trie] is single-threaded here; {!Store} adds arena locking. *)

val create : Config.t -> Types.trie
(** A fresh empty trie with its own memory manager. *)

type container_probe =
  | P_done of int64 option option
  | P_child of Hp.t * int
      (** child container HP and the key level the descent continues at *)

(** One container's worth of point-query descent.  [probe_container t hp
    key level] opens the container behind [hp], consults its
    negative-lookup tag byte, and scans until the key either resolves
    ([P_done], with the same [int64 option option] convention as {!find})
    or exits through an HP child ([P_child]).  Embedded containers are
    descended inline — a probe step is exactly one heap chunk.

    {!find} is a loop over this function; the batched memory-level-parallel
    path ({!Getmany.find_many}) interleaves many such loops, prefetching
    each [P_child] target before resuming other operations.  Both paths
    run the identical per-container code, which is what makes batched
    results bit-identical to sequential ones.

    The key must be non-empty and [level < String.length key]; callers are
    expected to have validated it (as {!find} does). *)
val probe_container : Types.trie -> Hp.t -> string -> int -> container_probe

val find : Types.trie -> string -> int64 option option
(** [find t key] is [None] when absent, [Some None] when the key is stored
    without a value (type-10 terminal), [Some (Some v)] when it maps to
    [v].  @raise Invalid_argument on the empty key. *)

val put : Types.trie -> string -> int64 option -> bool
(** [put t key value] inserts or updates; [value = None] stores the key
    alone (set semantics).  Returns [true] when the key was not present
    before.  @raise Invalid_argument on the empty key.
    @raise Hyperion_error.Error on allocation failure, arena saturation or
    an exceeded restart budget; the trie is left exactly as it was before
    the call (failed splices roll back). *)

val put_checked :
  Types.trie -> string -> int64 option -> (bool, Hyperion_error.t) result
(** [put_checked] is [put] with every failure — including key-validation
    errors ([Empty_key], [Key_too_long]) — routed through the typed result
    channel instead of exceptions. *)

val max_key_len : int
(** 2^20: the longest key the trie holds. *)

val key_error : string -> Hyperion_error.t option
(** The typed validation error for a key as the trie stores it, if any
    ({!Store.key_error} adds the rules of pre-processing). *)

val delete : Types.trie -> string -> bool
(** Remove a key (valued or not); [true] iff it was present.  Vacated
    records are spliced out, empty containers freed, and the path cleaned
    up bottom-up. *)
