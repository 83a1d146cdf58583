(** Container header and container jump-table codec (paper Figures 3
    and 11, Section 3.3).

    A top-level container is laid out as:
    {v
    [5-byte header][container jump table: J*7 entries x 4 bytes][records...][zeroed free tail]
    v}
    The first 4 header bytes pack (little-endian 32-bit word): size (19
    bits, total allocated bytes), free (8 bits, zeroed bytes at the end),
    J (3 bits, jump-table size in 7-entry steps), S (2 bits, split
    delay).  The fifth byte is the container's {e negative-lookup tag}:
    an 8-bit Bloom filter over the top-region T-node keys (bit
    [t_key mod 8] set for every present T-node), consulted by lookups
    before any scan so probe misses terminate early.  Header-word
    rewrites never touch the tag byte.

    A container jump-table entry is 4 bytes: the target T-node's key (u8)
    and its offset from the container base (u24 little-endian); offset 0
    marks an unused/invalidated entry.

    An embedded container has a 1-byte header holding its total size
    including the header itself. *)

val header_size : int
(** 5: the 4-byte packed word plus the tag byte. *)

val tag_pos : int
(** Offset of the tag byte within the header (4). *)

val read_tag : Bytes.t -> int -> int
(** The container's negative-lookup tag byte. *)

val write_tag : Bytes.t -> int -> int -> unit
(** Overwrite the tag byte (low 8 bits of the argument). *)

val max_container_size : int
(** 2^19 - 1, the largest encodable container size. *)

val read_size : Bytes.t -> int -> int
val read_free : Bytes.t -> int -> int
val read_jump_levels : Bytes.t -> int -> int
(** The J field (0..7); the jump table holds [7 * J] entries. *)

val read_split_delay : Bytes.t -> int -> int

val write_header :
  Bytes.t -> int -> size:int -> free:int -> jump_levels:int -> split_delay:int -> unit

val set_size : Bytes.t -> int -> int -> unit
val set_free : Bytes.t -> int -> int -> unit
val set_jump_levels : Bytes.t -> int -> int -> unit
val set_split_delay : Bytes.t -> int -> int -> unit

val jt_entry_size : int
(** 4. *)

val jt_count : Bytes.t -> int -> int
(** Number of jump-table entries ([7 * J]). *)

val jt_area_size : Bytes.t -> int -> int
(** Bytes occupied by the jump table. *)

val payload_start : Bytes.t -> int -> int
(** Offset (relative to the container base) of the first record: header
    plus jump-table area. *)

val content_end : Bytes.t -> int -> int
(** Offset (relative to the container base) one past the last record byte:
    [size - free]. *)

val jt_key : Bytes.t -> int -> int -> int
(** [jt_key buf base i] is the key byte of entry [i]. *)

val jt_off : Bytes.t -> int -> int -> int
(** [jt_off buf base i] is the offset of entry [i], relative to the
    container base; 0 when the entry is unused. *)

val jt_write : Bytes.t -> int -> int -> key:int -> off:int -> unit

val emb_header_size : int
(** 1. *)

val emb_total_size : Bytes.t -> int -> int
(** Total size of an embedded container whose header byte is at the given
    position (includes the header byte). *)

val set_emb_total_size : Bytes.t -> int -> int -> unit
