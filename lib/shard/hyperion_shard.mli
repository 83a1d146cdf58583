(** Multi-domain sharded front-end over {!Hyperion.Store}.

    The keyspace is partitioned by the first key byte into [D] contiguous
    ranges (shard [i] owns bytes [[i*256/D, (i+1)*256/D)]), one private
    {!Hyperion.Store.t} per range.  Each store is {e single-writer}: all
    mutations are executed by one worker domain that drains a bounded
    mutex+condvar ring mailbox in batches, so the stores themselves never
    see concurrent mutators.  Point reads bypass the mailbox and run on the
    caller's domain — the store's arena locks make a read racing the worker
    safe, and a read issued after a mutation was acknowledged observes it.

    Because the partition is an order-preserving byte-range split, visiting
    the shards in index order yields the global ascending key order; {!iter}
    and friends do exactly that under a {e quiescence barrier} (every worker
    parked between requests), so cross-shard reads are a consistent
    point-in-time cut of the whole keyspace.

    With {!open_durable}, each shard owns a private snapshot+WAL generation
    directory ([<dir>/shard-NNN], see {!Persist}) recovered in parallel at
    open; mutations are logged through the shard's {!Persist.t} handle by
    its worker domain, so the WAL order equals the apply order.

    {b Key compression.}  When the store's {!Hyperion.Config.t.compress}
    selects the trained-dictionary encoder ({!Compress}), every front-door
    key is encoded before it reaches a store (and before WAL logging), and
    decoded on the way back out of {!iter}/{!fold}.  Routing happens over
    encoded bytes — the encoder is order-preserving, so the contiguous
    byte-range partition and global iteration order are unchanged.
    {!with_quiesced} deliberately stays below the boundary: it exposes the
    raw stores, whose keys are {e encoded}.

    {b Supervision.}  Worker domains are supervised: an unexpected
    exception in a worker never strands a client.  The dying worker fails
    every pending request with a typed
    {!Hyperion.Hyperion_error.t.Shard_down}, honours quiesce barriers it
    already joined, seals its mailbox, and exits; sibling shards keep
    serving.  {!health} reports per-shard liveness, {!restart_shard}
    rebuilds a dead shard from its persist directory in place.  Blocking
    enqueues carry a deadline: a mailbox that stays full past it yields
    [Overloaded] instead of blocking forever. *)

type t

val create :
  ?config:Hyperion.Config.t ->
  ?compress:Compress.t ->
  ?shards:int ->
  ?mailbox:int ->
  ?enqueue_timeout_ms:int ->
  unit ->
  t
(** [create ()] starts [shards] worker domains (default 4, clamped to
    [1, 64]) over fresh in-memory stores.  [mailbox] bounds each shard's
    request ring (default 1024 requests; senders block when full, for at
    most [enqueue_timeout_ms] — default 30_000; [0] waits forever).
    [compress] supplies the trained key encoder and must agree with
    [config.compress]; when [config.compress = 1] it is mandatory (an
    in-memory store has no snapshot to adopt a dictionary from).
    @raise Invalid_argument on out-of-range [shards], [mailbox], a
    negative [enqueue_timeout_ms], or an encoder/config disagreement. *)

type shard_recovery = {
  shard : int;
  recovery : Persist.recovery;
}

val open_durable :
  ?config:Hyperion.Config.t ->
  ?compress:Compress.t ->
  ?shards:int ->
  ?sync_every_ops:int ->
  ?sync_every_bytes:int ->
  ?rotate_bytes:int ->
  ?mailbox:int ->
  ?enqueue_timeout_ms:int ->
  ?io_for_shard:(int -> Persist.Io.t) ->
  string ->
  (t, Hyperion.Hyperion_error.t) result
(** [open_durable dir] opens (creating when absent) one {!Persist}
    durability directory per shard under [dir] and recovers all of them in
    parallel (bounded waves of recovery domains).  The shard count is
    recorded in [dir/MANIFEST] on first creation; reopening uses the
    recorded count, and passing [?shards] that contradicts it is an
    [Io_error].  The per-shard knobs ([sync_every_ops], [sync_every_bytes],
    [rotate_bytes]) are forwarded to {!Persist.open_or_create}.

    [io_for_shard i] supplies the syscall-interposition handle shard [i]'s
    durability layer runs through (default {!Persist.Io.none}); the chaos
    harness uses it to arm per-shard disk-fault plans.  The same function
    is consulted again by {!restart_shard}.

    [compress] forwards to each shard's {!Persist.open_or_create}: on a
    fresh directory it seeds the persisted dictionary; on reopen it is
    verified against the persisted one ([Version_mismatch] on
    disagreement).  When omitted over an existing directory, the persisted
    encoder is adopted — shard 0's, with every other shard required to
    agree ([Corrupt_snapshot] otherwise). *)

val shards : t -> int
val durable : t -> bool
val config : t -> Hyperion.Config.t

val compress : t -> Compress.t
(** The key encoder every front-door key passes through (adopted from the
    persisted dictionary when {!open_durable} was given none). *)

val recoveries : t -> shard_recovery list
(** What each shard's recovery found, ascending by shard; [[]] for
    in-memory stores. *)

val shard_of_key : t -> string -> int
(** The shard owning a (non-empty) raw key:
    [first_encoded_byte * shards / 256] (see {!Compress.first_byte}). *)

(** {1 Blocking operations}

    Mirror {!Hyperion.Store}: the call returns once the owning worker has
    applied (and, when durable, logged) the mutation.  The exception-based
    variants raise {!Hyperion.Hyperion_error.Error} exactly as the store
    does; the [_result] variants return the same failures as values.
    [get]/[mem] run immediately on the calling domain.

    Three failure modes are specific to the sharded front-end: [Shard_down]
    when the owning worker died (see {!restart_shard}), [Overloaded] when
    its mailbox stayed full past the enqueue deadline, and [Degraded] when
    the shard's durability layer entered read-only mode (see {!heal}). *)

val put : t -> string -> int64 -> unit
val add : t -> string -> unit
val delete : t -> string -> bool
val get : t -> string -> int64 option
val mem : t -> string -> bool

val get_many : ?width:int -> t -> string array -> int64 option array
(** [get_many t keys] is observably [Array.map (get t) keys]: like [get]
    it runs immediately on the calling domain through the lock-free
    direct door (it serves down and degraded shards), but the keys are
    grouped per owning shard and each group descends through the store's
    memory-level-parallel batch path ({!Hyperion.Store.get_many}) with
    software-pipelined, prefetching descents of [width] (default 32). *)

val mem_many : ?width:int -> t -> string array -> bool array
(** [mem_many t keys] is observably [Array.map (mem t) keys]. *)

val put_result : t -> string -> int64 -> (unit, Hyperion.Hyperion_error.t) result
val add_result : t -> string -> (unit, Hyperion.Hyperion_error.t) result
val delete_result : t -> string -> (bool, Hyperion.Hyperion_error.t) result

(** {1 Non-blocking submission}

    The blocking mutations above are built on these.  A {!job} binds a
    mutation (or a whole {!Batch}, see {!Batch.job}) to a completion
    callback; {!submit} moves it into the owning shard mailboxes without
    ever blocking, and the callback then receives exactly the result the
    blocking call would have returned, with the same supervision
    guarantees (pending work of a dying worker fails with [Shard_down]).
    An event loop uses this to keep many mutations in flight from one
    thread. *)

type job

val put_job : t -> string -> int64 -> ((unit, Hyperion.Hyperion_error.t) result -> unit) -> job
val add_job : t -> string -> ((unit, Hyperion.Hyperion_error.t) result -> unit) -> job
val delete_job : t -> string -> ((bool, Hyperion.Hyperion_error.t) result -> unit) -> job

val submit : job -> bool
(** Queue as much of the job as the mailboxes have room for; never
    blocks.  [true]: nothing is left to queue, and the callback runs
    exactly once — on the shard's worker domain, or already during this
    call when the outcome needs no worker (a rejected key, a dead shard, a
    closed store, or [Overloaded]).  [false]: a mailbox was full; the rest
    of the job waits for a later [submit].  A job still unqueued
    [enqueue_timeout_ms] after [submit] first returned [false] fails with
    [Overloaded] on the next call (never, when the timeout is [0]).

    Callbacks run on the worker between two mutations: they must be
    quick, and must not raise (an escaping exception kills the worker
    like any other). *)

(** {1 Batched mutations}

    The amortized path: accumulate mutations locally, then {!Batch.flush}
    ships each shard's slice as one mailbox message and blocks until every
    involved worker has applied its slice.  One flush costs one mailbox
    round-trip per {e involved shard} instead of one per operation — this
    is what makes sharded ingest scale (see bench [shards]). *)

module Batch : sig
  type b

  val create : t -> b
  (** An empty reusable batch bound to the store. *)

  val put : b -> string -> int64 -> unit
  val add : b -> string -> unit
  val delete : b -> string -> unit
  val length : b -> int  (** Operations buffered and not yet flushed. *)

  type shard_flush = {
    fr_shard : int;  (** shard index *)
    fr_ops : int;  (** mutations in this shard's slice *)
    fr_applied : int;  (** prefix of the slice actually applied *)
    fr_error : Hyperion.Hyperion_error.t option;
        (** what stopped the slice, if anything *)
  }

  val flush_report : b -> shard_flush list
  (** Apply all buffered operations, per shard in buffer order, empty the
      batch, and report per-shard outcomes (ascending by shard).  A shard
      stops applying its slice at the first error — including a worker
      death mid-slice, where [fr_applied] still counts exactly the applied
      prefix — but {e other} shards still apply theirs (shards are
      independent). *)

  val job : b -> (shard_flush list -> unit) -> job
  (** The non-blocking {!flush_report}: takes every buffered operation
      (emptying the batch) into a job whose callback receives the
      per-shard report once every involved shard has answered. *)

  val outcome : shard_flush list -> (int, Hyperion.Hyperion_error.t) result
  (** A report reduced to the historical shape: [Ok n] is the total
      number of mutations applied; on failure the first error (lowest
      shard index) is returned, and [n] applied mutations in other shards
      are not rolled back. *)

  val flush : b -> (int, Hyperion.Hyperion_error.t) result
  (** [outcome (flush_report b)]. *)
end

(** {1 Quiesced cross-shard reads}

    All of these pause every worker at a barrier between two requests, so
    they observe a single consistent point in time of the whole keyspace:
    every acknowledged mutation is visible, no mutation is half-visible,
    and concurrent quiesced readers serialize.  Dead shards (see
    {!health}) don't take the barrier — their stores are frozen, which is
    as quiescent as it gets. *)

val with_quiesced : t -> (Hyperion.Store.t array -> 'a) -> 'a
(** [with_quiesced t f] runs [f] over the quiescent per-shard stores
    (index = shard id).  [f] must only read; the workers resume when it
    returns (or raises).  The stores hold {e encoded} keys — decode with
    {!compress} (as {!iter}/{!fold} do) before showing them to anyone. *)

val iter : t -> (string -> int64 option -> unit) -> unit
(** Every binding in global ascending key order (shard ranges are
    contiguous, so shard order is key order).  Keys are decoded back to
    their raw form; a stored key that fails to decode raises
    [Error (Chunk_corrupt _)]. *)

val fold : t -> init:'a -> f:('a -> string -> int64 option -> 'a) -> 'a
val length : t -> int
val stats : t -> Hyperion.Stats.t
val memory_usage : t -> int
val saturated_arenas : t -> int

(** {1 Supervision}

    A worker that dies on an unexpected exception marks its shard
    unhealthy and fails all of its pending and future requests with
    [Shard_down]; everything else keeps working.  Recovery is explicit:
    {!restart_shard} reopens the shard's persist directory (replaying its
    WAL, exactly like a process restart scoped to one shard) and spawns a
    fresh worker, while sibling shards keep serving throughout. *)

type shard_health = {
  hs_shard : int;  (** shard index *)
  hs_alive : bool;  (** worker domain is serving *)
  hs_down : string option;  (** the exception that killed the worker *)
  hs_degraded : string option;
      (** the shard's durability layer is in degraded read-only mode
          (see {!Persist.degraded}) *)
  hs_backlog : int;  (** messages waiting in the shard's mailbox *)
}

val health : t -> shard_health list
(** Per-shard liveness, ascending by shard.  Cheap: no quiescence. *)

val restart_shard :
  t -> int -> (Persist.recovery option, Hyperion.Hyperion_error.t) result
(** [restart_shard t i] rebuilds dead shard [i]: reaps the dead worker
    domain, drops the old durability handle ({!Persist.crash} — its
    unsynced WAL tail is recovered like a crash), reopens the shard's
    persist directory, and spawns a fresh worker.  Returns what recovery
    found ([None] for in-memory stores, which restart {e empty}: their
    data died with the worker's store being orphaned).  Restarting a
    healthy shard is an error.  Siblings serve throughout; requests racing
    the restart are failed or retried onto the new mailbox, never hung.
    @raise Invalid_argument on an out-of-range index. *)

val heal : t -> (unit, Hyperion.Hyperion_error.t) result
(** {!Persist.heal} every shard's durability handle: re-arm degraded
    shards (fresh snapshot generation + WAL).  [Ok] for shards that are
    not degraded.  No-op on in-memory stores. *)

(** {1 Durability control}

    No-ops ([Ok ()]) on in-memory stores. *)

val sync : t -> (unit, Hyperion.Hyperion_error.t) result
(** Group-commit every shard's WAL now (worker-ordered: issued through the
    mailboxes, so everything acknowledged before [sync] is durable when it
    returns [Ok]). *)

val snapshot_now : t -> (unit, Hyperion.Hyperion_error.t) result
(** Rotate every shard into a fresh snapshot generation. *)

val close : t -> (unit, Hyperion.Hyperion_error.t) result
(** Drain and stop all workers, then close the per-shard durability
    handles.  Further mutations are rejected ([Io_error]); quiesced reads
    keep working on the final state.  Idempotent. *)

val crash : t -> unit
(** Simulate a process kill for crash tests: stop workers without the
    final sync and poison the durability handles ({!Persist.crash}). *)

(**/**)

val shard_dir : dir:string -> int -> string
val manifest_file : dir:string -> string
(** On-disk layout of {!open_durable}, for tests and tooling. *)

val poison : t -> shard:int -> reason:string -> bool
(** Test hook: enqueue a message whose handling raises in the worker,
    simulating an unexpected worker exception.  [true] when the message
    was accepted (the worker will die when it drains it). *)
