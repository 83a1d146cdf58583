(** Durability for a Hyperion store: snapshot + write-ahead log.

    A durability directory holds one {e generation} — a base snapshot
    ([snapshot-<gen>.hyp], see {!Snapshot}) plus an append-only log of the
    mutations acknowledged since it was taken ([wal-<gen>.log], see
    {!Wal}).  {!open_or_create} recovers the store as {e latest valid
    snapshot + WAL tail}, built in one sorted pass: the log's records are
    folded to one final binding per key ({!Wal.step}), merged with the
    snapshot's ascending run, and handed to {!Hyperion.Store.of_sorted}
    once, never replayed one put at a time.  The logged mutation API
    appends each record to the WAL before applying it to the in-memory
    store (append-first, with truncation as compensation when the store
    rejects), makes records durable in groups (fsync every
    [sync_every_ops] records or [sync_every_bytes] bytes, whichever comes
    first), and rotates the log into a fresh snapshot generation once it
    outgrows [rotate_bytes].

    Recovery invariants (chaos-tested, DESIGN.md section 8):
    - a mutation whose record was fsynced before a crash is always
      recovered;
    - an unacknowledged tail of mutations may be lost, but only as a
      clean prefix cut — never a corrupt or reordered store;
    - a crash at any point of a rotation leaves either the old or the new
      generation fully recoverable.

    The handle serialises mutations internally and is safe to share
    across threads; reads go straight to {!store}. *)

module Crc32 = Crc32
module Frame = Frame
module Io = Io
module Snapshot = Snapshot
module Wal = Wal
(** The building blocks, re-exported for tests and tooling (the library is
    wrapped, so they are not reachable under their bare names).  {!Io} is
    the fault-aware syscall layer every durability syscall goes through. *)

type t

type recovery = {
  generation : int;  (** generation the store was recovered from *)
  snapshot_keys : int;  (** bindings loaded from the base snapshot *)
  replayed_ops : int;  (** WAL records folded in on top *)
  wal_truncated : bool;  (** a torn WAL tail was cut off *)
  skipped : string list;
      (** newer snapshot files that failed validation and were passed over,
          plus stale [.tmp] leftovers removed *)
}

val open_or_create :
  ?config:Hyperion.Config.t ->
  ?compress:Compress.t ->
  ?io:Io.t ->
  ?sync_every_ops:int ->
  ?sync_every_bytes:int ->
  ?rotate_bytes:int ->
  string ->
  (t, Hyperion.Hyperion_error.t) result
(** [open_or_create dir] creates [dir] (and an empty generation 0) when
    absent, otherwise recovers from the latest valid snapshot plus its WAL.
    Defaults: [sync_every_ops = 64], [sync_every_bytes = 1 MiB],
    [rotate_bytes = 64 MiB].  Every syscall the handle ever issues goes
    through [io] (default {!Io.none}), the fault-injection and retry
    layer.  All failures — corrupt snapshot, foreign format version, torn
    WAL header, OS errors — come back as typed errors; a logged key the
    store cannot hold fails recovery with the error a put of it returns
    ([Key_too_long], or [Io_error] naming the record when pre-processing
    rejects it).  This function never raises (except on a
    [compress]/[config.compress] id disagreement, which is a wiring
    bug).

    {b Key compression.}  This layer stores and logs keys {e exactly as
    given} — when [config.compress] is non-zero the caller (shard layer,
    CLI) encodes keys before every mutation.  [compress] declares the
    encoder those keys are under: on a fresh directory it is persisted
    into every snapshot and WAL header; on an existing directory the
    persisted dictionary is adopted (retraining-free recovery) and
    [compress], when given, is verified against it
    ([Version_mismatch] on a different dictionary).  Opening a fresh
    directory with [config.compress = 1] and no [compress] fails with
    [Io_error] — a dictionary cannot be conjured from the scheme id.
    {!compress} exposes the adopted encoder.

    Before the handle is returned, the recovered store's arenas pass the
    {!Analyze.Heapcheck} mark-and-sweep heap audit; a leaked or
    double-referenced chunk surfaces as [Error (Chunk_corrupt _)] rather
    than a handle over a silently corrupt heap. *)

val store : t -> Hyperion.Store.t
(** The live in-memory store.  Read through it freely; mutations applied
    to it directly bypass the log and will not survive a restart — use the
    logged API below. *)

val config : t -> Hyperion.Config.t

val compress : t -> Compress.t
(** The encoder this directory's keys are encoded with (persisted in the
    snapshot; adopted on recovery). *)

val dir : t -> string
val recovery : t -> recovery  (** What {!open_or_create} found. *)

(** {1 Logged mutations}

    Same contracts as the [Store] result API; [Ok] additionally means the
    mutation is in the log (durable after the next group commit).

    Mutations follow the {e append-first} protocol: validate the key,
    append the WAL record, apply to the store, and truncate the record
    back off if the store rejects the mutation — so the log and the store
    never disagree about the acknowledged history.

    A persistent storage failure (append, group-commit fsync, or rotation
    failing after bounded retries) flips the handle into {e sticky
    degraded read-only mode}: mutations return [Degraded] and leave the
    store unchanged, reads keep serving, and {!heal} re-arms writes.  A
    group-commit or rotation failure degrades the handle but the mutation
    that triggered it is still acknowledged — its record is in the log;
    what is lost is the durability promise for the not-yet-synced tail,
    the same window every group-commit scheme has. *)

val put : t -> string -> int64 -> (unit, Hyperion.Hyperion_error.t) result
val add : t -> string -> (unit, Hyperion.Hyperion_error.t) result
val delete : t -> string -> (bool, Hyperion.Hyperion_error.t) result

val sync : t -> (unit, Hyperion.Hyperion_error.t) result
(** Force the group commit: fsync all appended records now.  Failure
    degrades the handle (a failed fsync is never retried — the kernel may
    have dropped the dirty pages). *)

val snapshot_now : t -> (unit, Hyperion.Hyperion_error.t) result
(** Force a rotation: write a fresh snapshot generation and start an empty
    WAL, regardless of [rotate_bytes]. *)

val degraded : t -> string option
(** [Some why] when the handle is in degraded read-only mode. *)

val heal : t -> (unit, Hyperion.Hyperion_error.t) result
(** Re-arm a degraded handle: snapshot the live in-memory store (the
    authoritative state — the old WAL may be torn) into generation
    [gen + 1], open a fresh WAL, drop the old generation's files, and
    clear the degraded flag.  [Ok] immediately on a healthy handle.  On
    failure the handle stays degraded and [heal] can be retried — disarm
    any injected fault plan on {!io} first. *)

val io : t -> Io.t
(** The syscall-interposition handle this store was opened with. *)

val close : t -> (unit, Hyperion.Hyperion_error.t) result
(** [sync] and release the WAL descriptor (degraded handles skip the
    final sync — the device is already failing).  The handle rejects
    further mutations. *)

(** {1 Observability}

    Counters over the mutations logged {e through this handle} since
    [open_or_create]; the chaos harness uses them to know exactly which
    prefix of its workload a post-crash recovery must reproduce. *)

val generation : t -> int
val applied_ops : t -> int  (** mutations logged since open *)

val snapshot_base : t -> int
(** Of {!applied_ops}, how many are captured by the current generation's
    base snapshot (reset point of the last rotation). *)

val durable_ops : t -> int
(** Mutations guaranteed to survive a crash right now:
    [snapshot_base + fsynced WAL records]. *)

val rotations : t -> int
val wal_size : t -> int
val wal_synced_bytes : t -> int

val crash : t -> unit
(** Simulate a process kill: drop the WAL descriptor without syncing and
    poison the handle.  Unsynced appends may or may not reach disk — the
    chaos harness then tears the file at a chosen offset before reopening. *)

(** {1 One-shot snapshot I/O}

    Directory-less convenience wrappers around {!Snapshot} for the CLI
    [save]/[load] verbs. *)

val save_snapshot :
  ?io:Io.t -> ?compress:Compress.t -> Hyperion.Store.t -> string ->
  (int, Hyperion.Hyperion_error.t) result

val load_snapshot :
  ?config:Hyperion.Config.t -> ?expect:Compress.t -> string ->
  (Hyperion.Store.t * Compress.t, Hyperion.Hyperion_error.t) result
(** Like {!Snapshot.load}, but when [config] is omitted it is inferred
    from the header (stock config families, the preprocess flag and the
    persisted encoder).  Returns the store together with the encoder its
    keys are encoded under. *)

val snapshot_file : dir:string -> gen:int -> string
val wal_file : dir:string -> gen:int -> string
(** The naming scheme, for tests and tooling. *)
