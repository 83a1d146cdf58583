(** Jump-structure rules (paper Section 3.3): which T-nodes get a jump
    successor or a T-node jump table, how large a container jump table
    grows, and which records each table names.  The single home of these
    rules — shared by the put path's incremental upkeep and the bottom-up
    builder ({!Bulk}). *)

val wants_js : Config.t -> children:int -> bool
(** A T-node with [children] S-children carries a jump successor. *)

val wants_tjt : Config.t -> children:int -> bool
(** A T-node with [children] S-children carries a T-node jump table (it
    always carries a jump successor too: [js_threshold <=
    tnode_jt_threshold]). *)

val span_fits : int -> bool
(** Whether a T-node whose record plus S-children (jump fields included)
    span this many bytes can carry jump fields at all: their offsets are
    16-bit. *)

val cjt_levels : t_nodes:int -> int
(** Container jump-table levels (0..7) for a container whose top region
    holds [t_nodes] T-nodes. *)

val fill_tjt : Bytes.t -> int -> n:int -> (int -> int * int) -> unit
(** [fill_tjt buf jt_pos ~n entry] writes all 15 entries of the T-node
    jump table at [jt_pos] for a T-node with [n] S-children; [entry j] is
    child [j]'s key and offset from the T-record start. *)

val fill_cjt : Bytes.t -> int -> n:int -> (int -> int * int) -> unit
(** [fill_cjt buf base ~n entry] writes every entry of the container jump
    table of the container at [base] (sized by its header's J field) for
    [n] top-region T-nodes; [entry j] is T-node [j]'s key and
    container-relative offset. *)
