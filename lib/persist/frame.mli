(** Shared on-disk framing of the durability formats.

    Both persisted files open with the same 32-byte header shape —

    {v
      0  magic            8 bytes   ("HYPSNAP\x01" / "HYPWAL\x00\x01")
      8  format version   u16 LE
      10 flags            u16 LE    (bit 0: preprocess)
      12 config fingerprint u64 LE  ({!Hyperion.Config.fingerprint})
      20 aux              u64 LE    (snapshot: key count; WAL: generation)
      28 CRC-32 of bytes [0, 28)    u32 LE
    v}

    — followed by CRC-framed records: [u32 LE payload length · payload ·
    u32 LE CRC-32(payload)].  All integers little-endian. *)

val header_size : int
val frame_overhead : int
(** Bytes a record adds around its payload: 8 (length + CRC words). *)

val max_payload : int
(** Upper bound accepted for one record payload (a touch over the 2^20-byte
    key limit); anything larger read back is treated as corruption. *)

val make_header :
  magic:string -> version:int -> flags:int -> fingerprint:int64 -> aux:int64 ->
  Bytes.t

type header = { version : int; flags : int; fingerprint : int64; aux : int64 }

type header_error = Short | Bad_magic | Bad_crc

val parse_header : magic:string -> Bytes.t -> (header, header_error) result
(** Validates magic and header CRC only — version and fingerprint checks
    are the caller's (they map to different {!Hyperion.Hyperion_error.t}
    variants per format). *)

val frame : string -> Bytes.t
(** [frame payload] is the full record: length word, payload, CRC word. *)

type record_error = Rec_short | Rec_bad_crc | Rec_bad_len

val record : Bytes.t -> pos:int -> int
(** [record buf ~pos] checks the record framed at [pos] where it lies:
    its payload length [len] when it is whole and its CRC matches (the
    payload is [buf]'s [len] bytes at [pos + 4]; the next record starts
    at [pos + len + frame_overhead]), else a negative code for
    {!record_error}.  Nothing is copied or allocated.  Any of the three
    errors at the physical end of a WAL is a torn tail.  Whole-file reads
    live in {!Io.read_file}: this module is pure. *)

val record_error : int -> record_error
(** The error a negative {!record} result stands for.
    @raise Invalid_argument on a length. *)
