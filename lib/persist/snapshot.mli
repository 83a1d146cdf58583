(** Versioned, CRC-framed binary snapshots of a whole store.

    A snapshot (format v2) is the {!Frame} header (magic ["HYPSNAP\x01"],
    aux = key count; flags bit 0 = preprocess, bits 1-2 = key-encoder
    scheme id), then one CRC-framed {e dictionary record} (empty payload
    for the identity encoder, the 258-byte {!Compress.dict_to_string}
    blob for the dict scheme), then one CRC-framed record per binding,
    written by streaming {!Hyperion.Store.iter}'s ordered enumeration.
    Record payloads are [tag · key · value?]: tag [0] is a value-less
    (type-10) key, tag [1] appends the 8-byte LE value.  Keys are stored
    exactly as the trie holds them — {e post}-encoding when a key
    compressor is active — so recovery needs no retraining and no
    re-encoding pass.

    The header fingerprint is {!Compress.mix_fingerprint} of the config
    fingerprint and the encoder, so a dictionary swap changes the
    fingerprint even though the config is equal.  Format v1 files (no
    dictionary record, identity encoder, plain config fingerprint) are
    still read: identity mixes as a no-op, so their fingerprints verify
    unchanged.

    [save] is atomic: it writes [path ^ ".tmp"], fsyncs, renames over
    [path], then fsyncs the directory — a crash mid-snapshot leaves at
    worst a stale [.tmp] and the previous generation intact.

    Load checks and decodes every record where it lies in the file
    buffer ({!Frame.record}), copies each key out once in its stored form
    ({!Hyperion.Store.stored_key_sub}) and builds the trie bottom-up in
    one ascending pass ({!Hyperion.Store.of_sorted}); a file whose stored
    keys are not strictly ascending is corrupt. *)

val format_version : int
(** 2.  Files at version 1 are accepted by {!load}; anything else is
    [Version_mismatch]. *)

val magic : string

type header = {
  version : int;
  preprocess : bool;
  encoder : int;  (** key-encoder scheme id (0 identity, 1 dict) *)
  fingerprint : int64;  (** already encoder-mixed *)
  count : int;
}

val read_header : ?io:Io.t -> string -> (header, Hyperion.Hyperion_error.t) result
(** Header of the snapshot at [path], without loading records. *)

val probe :
  ?io:Io.t -> string -> (header * Compress.t, Hyperion.Hyperion_error.t) result
(** Header {e and} the persisted encoder (dictionary parsed and
    validated), without loading records — what config inference needs. *)

val save :
  ?io:Io.t -> ?compress:Compress.t -> Hyperion.Store.t -> string ->
  (int, Hyperion.Hyperion_error.t) result
(** [save ~compress store path] writes atomically and returns the
    snapshot's size in bytes.  [compress] (default [Identity]) is the
    encoder the store's keys were encoded with; it is persisted alongside
    them.  All syscalls go through [io] (default {!Io.none}); errors are
    [Io_error].  A refused directory fsync is tolerated and counted (see
    {!Io.fsync_dir}).
    @raise Invalid_argument when the store config's [compress] id
    disagrees with [compress] — that is a wiring bug, not a disk state. *)

val load_sorted :
  ?io:Io.t -> ?expect:Compress.t -> config:Hyperion.Config.t -> string ->
  ( string array * int64 option array * Compress.t,
    Hyperion.Hyperion_error.t )
  result
(** The decode half of {!load}: every binding of [path] as {e stored}
    keys ({!Hyperion.Store.stored_key}) in strictly ascending order, with
    their values and the encoder the keys are encoded under.  Every check
    {!load} makes on the file is made here; what is left is
    {!Hyperion.Store.of_sorted}.  Recovery merges this run with the folded
    WAL tail before building. *)

val load :
  ?io:Io.t -> ?expect:Compress.t -> config:Hyperion.Config.t -> string ->
  (Hyperion.Store.t * Compress.t, Hyperion.Hyperion_error.t) result
(** {!load_sorted} then {!Hyperion.Store.of_sorted}: rebuild a store
    from [path], returning it with the encoder its keys are encoded
    under.  [Version_mismatch] when the format version is
    neither 1 nor 2, when the file's encoder scheme differs from
    [config.compress], or when [expect] is given and the file's encoder
    is not {!Compress.equal} to it (the [found]/[expected] ints carry
    {!Compress.tag}s); [Corrupt_snapshot] on bad magic, any CRC mismatch,
    a malformed dictionary, truncation, trailing bytes, a header record
    count that is negative, exceeds what the file can hold or disagrees
    with the records, stored keys that are not strictly ascending, or a
    mixed fingerprint differing from [config]'s; [Key_too_long] for a
    key the trie cannot hold; [Io_error] on OS failures.  Never raises on
    file contents. *)
