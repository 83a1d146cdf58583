(** CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.

    Every frame of the snapshot and write-ahead-log formats carries a CRC
    of its payload so corruption — torn writes, bit rot, truncation mid
    record — is detected on read instead of silently decoded.  Implemented
    here because the container ships no zlib binding. *)

val bytes : ?crc:int32 -> Bytes.t -> pos:int -> len:int -> int32
(** [bytes b ~pos ~len] is the CRC-32 of the slice; [?crc] continues a
    running checksum (as [crc32()] in zlib does). *)

val bytes_int : Bytes.t -> pos:int -> len:int -> int
(** {!bytes} as an unsigned 32-bit [int]: no boxed [int32], for checks
    made once per record. *)

val string : ?crc:int32 -> string -> pos:int -> len:int -> int32
