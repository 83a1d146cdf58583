(** Append-only write-ahead log of acknowledged mutations.

    File layout: the {!Frame} header (magic ["HYPWAL\x00\x01"], aux = the
    generation number tying the log to its base snapshot) followed by one
    CRC-framed record per logged mutation.  Record payloads are
    [op · key · value?]: op [1] = put (8-byte LE value appended), op [2] =
    add (value-less key), op [3] = delete.

    Appends are single unbuffered [write]s; durability is explicit via
    {!sync} (the group-commit policy lives in {!Persist}).  On open for
    replay, a torn tail — a record cut short, an impossible length word, or
    a CRC mismatch at the physical end — is truncated away silently; only
    an unreadable {e header} is an error ([Torn_log]), and by construction
    (the header is fsynced before the first append is acknowledged) that
    can only happen to a log holding zero durable records. *)

val format_version : int
val magic : string

type op = Put of string * int64 | Add of string | Delete of string

val step : int64 option option -> op -> int64 option option
(** [step state op] is one key's binding after [op], given its binding
    [state] before: [None] is absent, [Some None] a member without a value
    (type-10 key), [Some (Some v)] the value [v].  [Put] sets the value,
    [Delete] removes the key, and [Add] is insert-if-absent: it leaves a
    present key, and its value, alone.  Pure; the key inside [op] is not
    read.  Recovery folds each key's log records with it, and the chaos
    oracle applies acknowledged mutations with it. *)

(** {1 Writing} *)

type writer

val create :
  ?io:Io.t -> ?compress:Compress.t -> config:Hyperion.Config.t -> gen:int ->
  string -> (writer, Hyperion.Hyperion_error.t) result
(** Create (truncating any existing file) and make the header durable.
    All syscalls go through [io] (default {!Io.none}).  [compress]
    (default [Identity]) is the key encoder this log's records are
    written under: keys are logged {e post}-encoding, the header
    fingerprint is {!Compress.mix_fingerprint}ed, and flags bits 1-2
    carry the scheme id — so recovery needs no retraining and a log can
    never replay under the wrong dictionary. *)

val open_append :
  ?io:Io.t -> config:Hyperion.Config.t -> gen:int -> string ->
  (writer, Hyperion.Hyperion_error.t) result
(** Reopen an existing (already replayed, hence already truncated-to-valid)
    log for further appends.  Everything on disk at open counts as synced. *)

val append : writer -> op -> (int, Hyperion.Hyperion_error.t) result
(** Append one record (no fsync); returns the record's size in bytes. *)

val sync : writer -> (unit, Hyperion.Hyperion_error.t) result
val size : writer -> int  (** Bytes written so far, header included. *)

val truncate_writer : writer -> len:int -> (unit, Hyperion.Hyperion_error.t) result
(** Cut the log back to [len] bytes — the compensation step of the
    append-first mutation protocol: when the in-memory store rejects a
    mutation whose record was already appended, the record is truncated
    off so log and store stay identical.  [len] must lie between the
    header and the current write offset. *)

val synced_bytes : writer -> int
(** Durable watermark: file offset up to which records survive any crash. *)

val close : writer -> (unit, Hyperion.Hyperion_error.t) result
(** [sync] then close the descriptor. *)

val abort : writer -> unit
(** Drop the descriptor {e without} syncing — the crash-simulation exit
    used by the chaos harness. *)

(** {1 Replay} *)

type replay = {
  records : int;  (** complete records applied *)
  valid_bytes : int;  (** offset of the last complete record's end *)
  truncated : bool;  (** a torn tail was cut off *)
}

val replay :
  ?io:Io.t -> ?compress:Compress.t -> config:Hyperion.Config.t -> gen:int ->
  string -> f:(op -> (unit, Hyperion.Hyperion_error.t) result) ->
  (replay, Hyperion.Hyperion_error.t) result
(** Apply every complete record to [f] in append order, then truncate the
    file to [valid_bytes] if a torn tail was found.  [Torn_log] when the
    header is unreadable or names a different generation/config;
    [Version_mismatch] on a foreign format version; [f]'s first error
    aborts the replay. *)
