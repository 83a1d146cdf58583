(** Hyperion key-value store: the public API.

    A store owns one or more tries (256 when arenas are enabled, paper
    Section 3.2) with one memory manager and one lock per arena.  Keys are
    arbitrary non-empty byte strings in binary-comparable form (see
    {!Kvcommon.Key_codec}); values are 64-bit words.  Keys can also be
    stored without a value (type-10 terminals, set semantics).

    When [config.preprocess] is on, keys are transparently transformed with
    {!Preprocess} on the way in and restored on the way out. *)

type t

val name : string

val create : ?config:Config.t -> unit -> t
val create_default : unit -> t
(** [create_default ()] is [create ()] — the {!Kv_intf} creation hook. *)

val config : t -> Config.t

val put : t -> string -> int64 -> unit
val add : t -> string -> unit
(** Store the key without a value. *)

val get : t -> string -> int64 option
val mem : t -> string -> bool
val delete : t -> string -> bool

(** {1 Batched reads}

    The memory-level-parallel read path: up to [width] (default 32)
    descents per arena are software-pipelined, each operation's next
    container prefetched while the others advance, and per-container
    negative-lookup tags cut probe misses short.  Results are
    bit-identical to the equivalent sequential loop — both paths share
    the per-container probe code, and each routed group runs under its
    arena lock, so a batch linearizes against concurrent mutators at
    per-arena granularity exactly like a sequential loop would. *)

val get_many : ?width:int -> t -> string array -> int64 option array
(** [get_many t keys] is observably [Array.map (get t) keys],
    positionally (duplicates included).  Keys are validated up front, so
    an invalid key raises before any trie is touched. *)

val mem_many : ?width:int -> t -> string array -> bool array
(** [mem_many t keys] is observably [Array.map (mem t) keys]. *)

(** {1 Typed-result mutation API}

    [put]/[add]/[delete] raise [Hyperion_error.Error] when the store cannot
    complete a mutation (arena saturation, allocation failure, injected
    fault); these variants surface the same failures as values instead.  A
    failed mutation leaves the store exactly as it was: splices roll back
    before any byte moves, and reads keep working on a saturated arena. *)

val put_result : t -> string -> int64 -> (unit, Hyperion_error.t) result
val add_result : t -> string -> (unit, Hyperion_error.t) result
val delete_result : t -> string -> (bool, Hyperion_error.t) result

val key_error : Config.t -> string -> Hyperion_error.t option
(** The key rules every mutation checks before anything is logged or
    applied: [Empty_key], [Key_too_long] (for the key, or under
    pre-processing for its one-byte-longer stored form) and, under
    pre-processing, [Key_too_short] for a key under 4 bytes.  The typed
    mutations below, the durable front-end ({!Persist}) and the sharded
    front door all use this one check. *)

(** {1 Bottom-up construction} *)

val stored_key : Config.t -> string -> string
(** The form a key takes inside the trie under [config]: the key itself,
    or its {!Preprocess} encoding when [config.preprocess] is on.
    Stored-key order is the order {!iter} visits keys in.
    @raise Invalid_argument when pre-processing rejects the key. *)

val stored_key_sub : Config.t -> Bytes.t -> pos:int -> len:int -> string
(** {!stored_key} of the [len] bytes of a buffer at [pos], copied once.
    @raise Invalid_argument as {!stored_key} does. *)

val of_sorted :
  ?config:Config.t ->
  string array ->
  int64 option array ->
  (t, Hyperion_error.t) result
(** [of_sorted ~config keys values] is a fresh store holding [keys.(i)]
    with [values.(i)] ([None]: stored without a value), built bottom-up in
    one pass ({!Bulk}) instead of one put per key.  The keys are
    {e stored} keys ({!stored_key}) in strictly ascending order.  Errors:
    [Empty_key] / [Key_too_long] for an invalid key, [Container_overflow]
    or an allocator failure while building.
    @raise Invalid_argument when the arrays differ in length or the keys
    are not strictly ascending. *)

(** {1 Fault injection and saturation} *)

val set_fault_plan : t -> Fault.t -> unit
(** Install a fault-injection plan on every arena's memory manager
    ({!Fault.none} disables injection).  The plan object is shared, so a
    single operation budget spans all arenas. *)

val fault_plan : t -> Fault.t
(** The currently installed plan (of the first arena). *)

val saturated_arenas : t -> int
(** Arenas currently read-only because their memory pool is exhausted.
    Saturation is sticky until a delete frees memory in that arena. *)

val range : t -> ?start:string -> (string -> int64 option -> bool) -> unit
(** Ordered callback iteration from [start] (paper's range queries). *)

val length : t -> int
(** Number of stored keys.  Safe under concurrent mutators: the per-trie
    counters are [Atomic.t], so the sum never contains torn values (it may
    lag in-flight mutations by design). *)

val memory_usage : t -> int
(** Exact resident bytes of all memory managers (initialized bin segments,
    metabin metadata, extended-bin heap segments).  Takes each arena's lock
    while reading its manager, so it is safe under concurrent mutators. *)

val stats : t -> Stats.t
(** Full structural walk.  Each trie is walked under its arena lock, so
    calling this while other threads mutate the store yields a well-formed
    (per-arena-consistent) snapshot instead of parsing mid-splice bytes. *)

val superbin_profile : t -> Memman.superbin_stats array
(** Aggregated over all arenas; drives Figures 14 and 16. *)

val allocated_chunks : t -> int

(**/**)

val internal_tries : t -> Types.trie array
(** For {!Validate} and white-box tests only. *)

(** {1 Convenience iteration} *)

val iter : t -> (string -> int64 option -> unit) -> unit
(** Visit every binding in ascending key order. *)

val fold : t -> init:'a -> f:('a -> string -> int64 option -> 'a) -> 'a
(** Left fold over all bindings in ascending key order. *)

val prefix_iter : t -> prefix:string -> (string -> int64 option -> bool) -> unit
(** [prefix_iter t ~prefix f] invokes [f] for every stored key beginning
    with [prefix], in order, until [f] returns [false].  A common trie
    idiom built on {!range}; an empty prefix visits everything. *)
