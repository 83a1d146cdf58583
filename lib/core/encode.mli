(** The byte encoding of records and of the children holding key
    suffixes: path-compressed nodes, (recursively) embedded containers
    and real child containers (paper Section 3.1).  Buffer writers lay an
    encoding at a position; the string builders the put path splices in
    are made on top of them, so the put path and the bottom-up builder
    ({!Bulk}) share one encoding.

    The builders apply delta encoding whenever the gap to the preceding
    sibling fits the 3-bit delta field (Section 3.3). *)

val delta_for : prev_key:int -> key:int -> int
(** The delta to store: [key - prev_key] when [prev_key >= 0] and the gap
    is in [1, 7], else 0 (explicit key byte). *)

(** {1 Buffer writers}

    Each writes one encoding at [pos] and returns the position after it.
    The put path's string builders below and the bottom-up builder
    ({!Bulk}) both go through these, so there is one byte encoding. *)

val write_t_head :
  Bytes.t ->
  int ->
  prev_key:int ->
  key:int ->
  typ:Node.typ ->
  value:int64 option ->
  int
(** A T-node record head without jump fields.  [value] must be [Some]
    iff [typ] is [Leaf_value]. *)

val write_t_head_jumps :
  Bytes.t ->
  int ->
  js:bool ->
  jt:bool ->
  prev_key:int ->
  key:int ->
  typ:Node.typ ->
  value:int64 option ->
  int
(** {!write_t_head} whose flag announces a jump successor ([js]) and a
    T-node jump table ([jt]); their bytes are skipped, for the caller to
    fill ({!Records.write_u16}, {!Jumps.fill_tjt}). *)

val write_s_head :
  Bytes.t ->
  int ->
  prev_key:int ->
  key:int ->
  typ:Node.typ ->
  value:int64 option ->
  child:Node.child ->
  int
(** An S-node record head; the child body follows. *)

val write_pc : Bytes.t -> int -> string -> off:int -> len:int -> int64 option -> int
(** A path-compressed body for the [len] bytes of [src] at [off]
    ([len] in [1, 127]). *)

val write_hp : Bytes.t -> int -> Hp.t -> int
(** A 5-byte HP body. *)

(** {1 The same encodings as fresh strings} *)

val t_record :
  prev_key:int -> key:int -> typ:Node.typ -> value:int64 option -> string
(** A fresh T-node record head (no jump successor / jump table).  [value]
    must be [Some] iff [typ] is [Leaf_value]. *)

val s_record :
  prev_key:int ->
  key:int ->
  typ:Node.typ ->
  value:int64 option ->
  child:Node.child ->
  string
(** A fresh S-node record head; the child body is appended by the caller. *)

val pc_body : string -> int64 option -> string
(** Path-compressed child body for a suffix of length in [1, 127]. *)

val hp_body : Hp.t -> string
(** 5-byte HP child body. *)

val re_encode_head : Bytes.t -> int -> key:int -> new_prev:int -> string * int
(** [re_encode_head buf pos ~key ~new_prev] re-encodes the flag/key
    fragment of the record at [pos] (whose decoded key byte is [key])
    against a new preceding sibling ([-1] = none): returns the replacement
    fragment and the size difference vs. the old fragment (-1, 0 or +1).
    Used when inserting or removing a sibling changes a record's
    predecessor. *)

val head_frag_size : int -> int
(** Size of a record's flag/key fragment for a given flag byte (1 or 2). *)

(** {1 Children holding a whole key suffix}

    A suffix's child is a path-compressed node when it fits, otherwise a
    chain of (T, S) pairs, each embedded while it fits the budget and
    otherwise given a real container.  It is made in three steps: size it
    ({!layout_child}, integers only), allocate its containers bottom-up,
    each written straight into its chunk ({!alloc_child}), then write
    what lies above the topmost container where the caller wants it
    ({!write_child}). *)

type chain
(** Scratch the three steps share: reusable across suffixes, never across
    domains. *)

val chain : unit -> chain

val layout_child : Types.trie -> chain -> len:int -> has_value:bool -> int
(** The child body for a [len]-byte suffix ([len >= 1]), packed: see
    {!child_kind} and {!child_size}. *)

val child_kind : int -> Node.child
val child_size : int -> int

val alloc_child :
  Types.trie -> chain -> string -> off:int -> len:int -> int64 option -> Hp.t
(** [alloc_child trie ch key ~off ~len value] allocates the containers of
    the child for [key]'s [len] bytes at [off] ending with [value], and
    returns the HP its top part links to ({!Hp.null} when none).
    @raise Hyperion_error.Error on allocator failure. *)

val write_child :
  ?bare:bool ->
  Types.trie ->
  chain ->
  string ->
  off:int ->
  len:int ->
  int64 option ->
  hp:Hp.t ->
  Bytes.t ->
  int ->
  int
(** Write that child's body at [pos], linking to [hp] (from
    {!alloc_child}); the position after it.  With [~bare:true] an
    embedded body goes without its size byte: what a container of its
    own would hold when it is ejected. *)

val make_child :
  ?dry:bool -> Types.trie -> string -> int64 option -> Node.child * string
(** [make_child trie suffix value] encodes a child holding the whole
    [suffix] (length >= 1) terminating with [value] through the three
    steps above.  With [~dry:true] no container is allocated but the
    returned body has the exact final length — used to size an insertion
    before committing to it. *)

val value_string : int64 -> string
(** 8-byte little-endian encoding of a value. *)

val region_for : Types.trie -> string -> int64 option -> string
(** Full region content (a T record, optionally with an S record and child)
    indexing exactly one key [suffix] (length >= 1). *)
