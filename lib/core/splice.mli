(** Order-preserving byte splicing inside a container (paper Sections 3.1
    and 3.3: exact-fit growth in 32-byte increments, shifting of byte-array
    segments, zero-initialization of vacated memory, and offset maintenance
    for jump successors and jump tables).

    All positions are absolute offsets into the container's current buffer;
    a splice invalidates every previously derived position, so callers
    re-navigate afterwards. *)

val round32 : int -> int
(** Round up to the trie's 32-byte growth granularity. *)

val open_container :
  Types.trie -> Hp.t -> tkey:int -> where:Types.where -> Types.cbox
(** Resolve a container HP.  When the HP designates a chained extended bin,
    the slot responsible for T-node key [tkey] is opened (paper Fig. 11). *)

val refresh : Types.cbox -> unit
(** Re-derive [buf]/[base] after an operation that may have moved the
    container. *)

val alloc_container : ?jump_levels:int -> Types.trie -> int -> Hp.t
(** [alloc_container trie len] allocates a fresh container sized for [len]
    content bytes, 32-byte granular and exact fit, and writes its header.
    [jump_levels] (default 0) reserves an empty container jump table of
    that many 7-entry levels in front of the content, which the caller
    fills ({!Jumps.fill_cjt}).  The caller writes the content at
    {!Layout.payload_start} and then recomputes the tag byte
    ({!Tag.recompute}): the chunk's tag is stale until then.
    @raise Hyperion_error.Error [Container_overflow] past the 19-bit size
    limit, or the allocator's failures. *)

val alloc_slot :
  ?jump_levels:int -> Types.trie -> Hp.t -> int -> int -> Bytes.t * int
(** [alloc_slot trie ceb slot len] populates the void CEB slot [slot] as
    {!alloc_container} populates a chunk, and returns its buffer and
    base. *)

val new_container : Types.trie -> string -> Hp.t
(** {!alloc_container} holding the given record content, tag byte
    recomputed. *)

val write_slot : Types.trie -> Hp.t -> int -> string -> Bytes.t * int
(** {!alloc_slot} holding [content].  The tag byte is left stale: the
    caller recomputes it ({!Tag.recompute}) once the content is final. *)

val container_size : Types.cbox -> int
(** Current size field of the open container. *)

val splice :
  Types.cbox ->
  emb_chain:Types.emb_chain ->
  at:int ->
  remove:int ->
  ins:string ->
  keep_at:bool ->
  unit
(** Replace the [remove] bytes at [at] with [ins], growing or shrinking the
    container as needed (the container may move; parent HP slots are
    patched through [cbox.where]).  Enclosing embedded-container sizes in
    [emb_chain] are adjusted; the caller must have verified they stay
    within bounds.  Jump-successor offsets, T-node jump tables and the
    container jump table are patched: [keep_at] declares that the inserted
    bytes start a new T-sibling record, so jump successors pointing exactly
    at [at] keep pointing there (the new record becomes the successor). *)

val adjust_record_offsets : Bytes.t -> int -> int -> unit
(** [adjust_record_offsets buf t_pos d] adds [d] to the jump-successor and
    jump-table offsets of the T-node record at [t_pos] — used after a
    splice changed the size of the record's own flag/key fragment, which
    shifts its interior fields relative to the record start. *)
