(** Byte-level parsing of T-/S-node records inside a container region.

    All positions here are absolute offsets into the backing buffer; the
    engine translates to container-relative coordinates where needed.
    Record layouts are documented in {!Node}. *)

val read_u16 : Bytes.t -> int -> int
val write_u16 : Bytes.t -> int -> int -> unit
val read_value : Bytes.t -> int -> int64
val write_value : Bytes.t -> int -> int64 -> unit

type tnode = {
  t_pos : int;  (** record start *)
  t_flag : int;
  t_key : int;  (** decoded key byte *)
  t_head_end : int;  (** first byte after the head = first S-child or next record *)
  t_value_pos : int;  (** -1 when the node carries no value *)
  t_js_pos : int;  (** position of the u16 jump-successor offset, -1 if absent *)
  t_jt_pos : int;  (** position of the 15-entry jump table, -1 if absent *)
}

type snode = {
  s_pos : int;
  s_flag : int;
  s_key : int;
  s_head_end : int;  (** start of the child body *)
  s_value_pos : int;  (** -1 when the node carries no value *)
  s_end : int;  (** first byte after the whole record including child body *)
}

val parse_t : Bytes.t -> int -> prev_key:int -> tnode
(** [parse_t buf pos ~prev_key] decodes the T-node record at [pos];
    [prev_key] is the preceding T-sibling's key (any negative value when
    there is none) used to resolve delta encoding. *)

val parse_t_known : Bytes.t -> int -> key:int -> tnode
(** Like {!parse_t} when the key is already known (after a jump-table
    jump), ignoring the record's delta field. *)

val parse_s : Bytes.t -> int -> prev_key:int -> snode
val parse_s_known : Bytes.t -> int -> key:int -> snode

val s_record_size : Bytes.t -> int -> int
(** Total bytes of the S-node record at [pos], including its child body
    (HP / embedded container / path-compressed node). *)

val next_t_pos : Bytes.t -> tnode -> limit:int -> int
(** Position of the T-node record following [t] (via its jump successor
    when present, otherwise by walking its S-children); at most [limit]
    (the region's content end). *)

val jt_key : Bytes.t -> int -> int -> int
(** [jt_key buf jt_pos i] is the key byte of T-node jump-table entry [i]. *)

val jt_off : Bytes.t -> int -> int -> int
(** [jt_off buf jt_pos i] is the offset of T-node jump-table entry [i],
    relative to the T-record start; 0 means unused. *)

val jt_set_entry : Bytes.t -> int -> int -> key:int -> off:int -> unit

(** {1 Path-compressed child bodies} *)

type pc = {
  pc_pos : int;
  pc_header : int;
  pc_value_pos : int;  (** -1 when no value attached *)
  pc_suffix_pos : int;
  pc_suffix_len : int;
  pc_end : int;
}

val parse_pc : Bytes.t -> int -> pc
