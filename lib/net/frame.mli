(** hyperion.net wire protocol: the length-prefixed binary frame codec.

    Every message on a binary connection is one frame:

    {v
    +-----------+-----------+----------+------------------+
    | len u32le | id  u32le | tag u8   | payload (len-5)  |
    +-----------+-----------+----------+------------------+
    v}

    [len] counts everything after itself ([id] + [tag] + payload), so a
    complete frame occupies [4 + len] bytes.  [id] is a client-chosen
    request identifier echoed verbatim in the response; because the server
    may answer pipelined requests {e out of order} (lock-free gets overtake
    mailbox-acknowledged mutations), clients correlate by [id], never by
    arrival order.  [tag] is the request opcode on the way in and the
    response status on the way out.  All integers are little-endian;
    lengths are unsigned.  Frames larger than {!max_frame_len} are a
    protocol error: the decoder refuses them without buffering (a torn or
    hostile length prefix must not allocate gigabytes).

    This module is pure (no I/O): encoders append to a [Buffer.t], and the
    streaming {!Decoder} consumes arbitrarily-split byte chunks, yielding
    complete frames as they close — exactly what a socket reader loop
    needs for pipelined traffic.  See DESIGN.md section 13 for the full
    protocol specification. *)

val max_frame_len : int
(** Upper bound on [len] (16 MiB). *)

val max_key_len : int
(** Upper bound on a key ([2^20], the store's own limit). *)

val max_batch_ops : int
(** Upper bound on operations in one [Batch] frame (65536). *)

(** {1 Requests} *)

type batch_op =
  | Bput of string * int64
  | Badd of string
  | Bdel of string

type request =
  | Put of string * int64
  | Add of string
  | Get of string
  | Mem of string
  | Delete of string
  | Batch of batch_op array
  | Stats
  | Health

val opcode : request -> int
(** The wire opcode (Put=1, Add=2, Get=3, Mem=4, Delete=5, Batch=6,
    Stats=7, Health=8). *)

(** {1 Responses} *)

(** Typed protocol error codes, a superset of {!Hyperion.Hyperion_error.t}
    (codes 1–15 map its constructors; 100+ are protocol-layer errors). *)
type err_code =
  | E_arena_saturated  (** 1 *)
  | E_alloc_failed  (** 2 *)
  | E_container_overflow  (** 3 *)
  | E_restart_budget  (** 4 *)
  | E_chunk_corrupt  (** 5 *)
  | E_empty_key  (** 6 *)
  | E_key_too_long  (** 7 *)
  | E_corrupt_snapshot  (** 8 *)
  | E_torn_log  (** 9 *)
  | E_version_mismatch  (** 10 *)
  | E_io  (** 11 *)
  | E_degraded  (** 12 *)
  | E_overloaded  (** 13 *)
  | E_shard_down  (** 14 *)
  | E_key_too_short  (** 15: under 4 bytes with key pre-processing on *)
  | E_bad_request  (** 100: malformed frame, unknown opcode, bad key *)
  | E_too_large  (** 101: frame or batch beyond the protocol bounds *)
  | E_internal  (** 102: unexpected server-side exception *)

val err_code_int : err_code -> int
val err_code_of_int : int -> err_code option
val err_of_hyperion : Hyperion.Hyperion_error.t -> err_code

type shard_health = {
  sh_shard : int;
  sh_alive : bool;
  sh_degraded : bool;
  sh_backlog : int;
}

type stats = {
  st_keys : int64;
  st_resident_bytes : int64;
  st_shards : int;
  st_saturated_arenas : int;
}

type response =
  | Ack  (** Put/Add applied (and logged when durable) *)
  | Value of int64 option  (** Get: [None] = key absent or valueless *)
  | Found of bool  (** Mem / Delete *)
  | Applied of int  (** Batch: mutations applied *)
  | Stats_r of stats
  | Health_r of shard_health array
  | Err of err_code * string  (** status <> 0; payload is the message *)

(** {1 Encoding} *)

val encode_request : Buffer.t -> id:int -> request -> unit
(** Append one request frame.  [id] is truncated to 32 bits. *)

val encode_response : Buffer.t -> id:int -> response -> unit
(** Append one response frame. *)

(** {1 Streaming decode}

    Feed raw bytes in whatever chunks the transport delivers; pop complete
    frames.  The decoder owns an internal accumulation buffer and is not
    thread-safe (one per connection side). *)

type decoded =
  | Frame of int * int * string
      (** [(id, tag, payload)] — one complete frame *)
  | Need_more  (** no complete frame buffered yet *)
  | Corrupt of string
      (** unrecoverable framing error (oversized or short length);
          the connection must be closed *)

module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> int -> unit
  (** [feed t buf off len] appends a received chunk. *)

  val feed_string : t -> string -> unit

  val next : t -> decoded
  (** Pop the next complete frame.  After [Corrupt] the decoder is
      poisoned and keeps returning it. *)

  val buffered : t -> int
  (** Bytes held, for backpressure accounting and tests. *)
end

(** {1 Payload parsing} *)

val parse_request : tag:int -> string -> (request, string) result
(** Decode the payload of a request frame.  [Error] is a human-readable
    reason (the server answers [Err (E_bad_request, reason)]). *)

val parse_response : tag:int -> string -> (response, string) result
(** Decode the payload of a response frame (client side). *)
