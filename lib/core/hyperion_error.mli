(** The typed error channel of the store.

    Every recoverable failure of a mutating operation is a value of {!t},
    surfaced through the [( _, t) result] API of {!Store} and {!Ops}.  The
    historical exception API is a thin wrapper: it raises {!Error} carrying
    the same value.  A mutation that returns an error leaves the container
    chain exactly as it was (put-side rollback); see DESIGN.md section 7. *)

type t =
  | Arena_saturated
      (** The arena's memory-manager pools are exhausted.  The arena
          degrades to read-only until chunks are freed. *)
  | Alloc_failed of string
      (** A single allocation request failed (today: only via injected
          faults; the payload names the requesting site). *)
  | Container_overflow
      (** A container would exceed the 19-bit size limit (paper §3.1). *)
  | Restart_budget_exceeded of int
      (** An operation restarted more than the given budget of times
          (ejections, bursts, splits, or an injected restart storm). *)
  | Chunk_corrupt of string
      (** A container chunk read back corrupt (today: only via injected
          faults). *)
  | Empty_key  (** Hyperion does not store the empty key. *)
  | Key_too_long of int  (** Key length exceeds 2^20 bytes. *)
  | Corrupt_snapshot of string
      (** A persisted snapshot failed structural validation (bad magic,
          CRC mismatch, short read, count mismatch, or a config
          fingerprint that does not match the opening configuration).
          The payload names the file and the failing check. *)
  | Torn_log of string
      (** A write-ahead log's header is unreadable — the file exists but
          was torn before its header was made durable.  Torn {e record}
          tails are not errors: they are truncated silently on open (see
          DESIGN.md section 8). *)
  | Version_mismatch of { found : int; expected : int }
      (** A persisted file carries a format version this build does not
          speak. *)
  | Io_error of string
      (** An operating-system I/O failure while reading or writing the
          durability directory (payload: the [Unix] error and path). *)
  | Degraded of string
      (** The durability handle is in sticky degraded read-only mode after
          a persistent storage failure: mutations are rejected (and leave
          the store unchanged), reads keep serving, and {!Persist.heal}
          re-arms writes.  The payload is the root-cause failure. *)
  | Overloaded of string
      (** A shard mailbox stayed full past the enqueue deadline — back
          off and retry; nothing was applied or logged. *)
  | Shard_down of string
      (** The owning shard's worker domain died on an unexpected
          exception (payload: that exception).  The mutation was not
          applied; the shard can be restarted from its persist
          directory ({!Hyperion_shard.restart_shard}). *)
  | Key_too_short of int
      (** Under key pre-processing ({!Config.t.preprocess}) a key must be
          at least 4 bytes long (paper Section 3.4); the payload is the
          key's length.  Nothing is logged or applied for it. *)

exception Error of t
(** The exception-API wrapper around {!t}. *)

val fail : t -> 'a
(** [fail e] raises [Error e]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
