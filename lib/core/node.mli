(** T-node and S-node flag-byte codec (paper Section 3.1, Figure 5).

    Every record inside a container starts with one flag byte:

    - bits 0–1: node type [t] — 00 invalid (zeroed over-allocated tail),
      01 inner node, 10 terminal without value, 11 terminal with value;
    - bit 2: partial-key index [k] — 0 for T-nodes (first 8 bits of the
      16-bit partial key), 1 for S-nodes (second 8 bits);
    - bits 3–5: delta [d] — when non-zero the record's key byte is
      [previous sibling's key + d] and no explicit key byte is stored;
    - T-nodes: bit 6 [js] jump-successor present, bit 7 [jt] T-node jump
      table present;
    - S-nodes: bits 6–7 child flag [c] — 00 no child, 01 Hyperion Pointer,
      10 embedded container, 11 path-compressed node.

    Record layout after the flag byte:
    T-node: [key byte if d=0] [js: u16 offset] [jt: 15 × (key u8, offset
    u16)] [value: 8 bytes if t=11], then its S-node children.
    S-node: [key byte if d=0] [value: 8 bytes if t=11], then the child body
    (nothing / 5-byte HP / embedded container / PC node).

    Deviation from the paper documented in DESIGN.md: T-node jump-table
    entries carry the target's key byte (3 bytes per entry instead of 2),
    which makes jump targets decodable without forcing synthetic
    destination nodes. *)

type typ = Invalid | Inner | Leaf_no_value | Leaf_value

type child = No_child | Child_hp | Child_embedded | Child_pc

val typ_code : typ -> int
val typ_of_code : int -> typ

val child_code : child -> int
(** The 2-bit child field value (0 none, 1 HP, 2 embedded, 3 PC). *)

val child_of_code : int -> child

(** {1 Flag-byte accessors} *)

val typ_of_flag : int -> typ
val is_snode : int -> bool
val delta_of_flag : int -> int
val has_js : int -> bool
(** T-nodes only. *)

val has_jt : int -> bool
(** T-nodes only. *)

val child_of_flag : int -> child
(** S-nodes only. *)

val t_flag : typ:typ -> delta:int -> js:bool -> jt:bool -> int
val s_flag : typ:typ -> delta:int -> child:child -> int

val with_typ : int -> typ -> int
(** Same flag byte with the type field replaced. *)

val with_child : int -> child -> int
(** Same S-node flag byte with the child field replaced. *)

val with_js : int -> bool -> int
val with_jt : int -> bool -> int
val with_delta : int -> int -> int

(** {1 Field sizes} *)

val value_size : int
(** 8 — values are 64-bit words. *)

val js_size : int
(** 2 — jump-successor offset (u16). *)

val jt_entries : int
(** 15 — S-node references per T-node jump table. *)

val jt_size : int
(** Bytes of a T-node jump table (15 entries × 3). *)

val t_head_size : int -> int
(** [t_head_size flag] is the byte size of a T-node record head (flag,
    optional key byte, js, jt, value) — everything before its S-children. *)

val s_head_size : int -> int
(** [s_head_size flag] is the byte size of an S-node record head (flag,
    optional key byte, value) — everything before the child body. *)

(** {1 Path-compressed node header} *)

val pc_header : len:int -> has_value:bool -> int
(** One byte: bit 7 = value attached, bits 0–6 = suffix length (1..127). *)

val pc_len : int -> int
val pc_has_value : int -> bool

val pc_body_size : int -> int
(** Total PC body bytes for a given header byte: header + optional value +
    suffix. *)
