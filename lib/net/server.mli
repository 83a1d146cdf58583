(** hyperion.net — the TCP serving front-end over {!Hyperion_shard}.

    {b Threading.}  A server runs exactly one thread of its own, whatever
    the connection count: an event loop that owns both listening sockets
    and every connection.  Sockets are nonblocking with [TCP_NODELAY]; each
    connection has a frame decoder and an output buffer.  One loop turn
    waits in [poll(2)], accepts, reads and parses what arrived, and ends
    with one [write] per connection carrying every answer produced in the
    turn.

    {b Reads} ([Get]/[Mem]) are answered inline: consecutive pipelined
    read frames of a connection go through one batched descent
    ({!Hyperion_shard.get_many}/[mem_many]), so they never queue behind a
    mutation.  [Stats] and [Health] are answered inline too; [Stats] is
    the only request on which the loop waits for the shards (it needs the
    quiescent cut).

    {b Mutations} ([Put]/[Add]/[Delete]/[Batch]) are handed to the shard
    mailboxes as {!Hyperion_shard.job}s, never blocking the loop.  The
    shard worker that applies one calls its completion callback, which
    pushes [(connection, id, response)] onto one mutex-guarded completion
    queue and, if the queue was empty, writes a byte to the loop's
    self-pipe; the loop drains the queue at the start of every turn.

    {b Back-pressure.}  When a mutation finds its shard mailbox full, its
    connection is parked: nothing more is read or parsed from it until the
    job is queued (retried every millisecond), and a job still unqueued
    after the store's enqueue timeout is answered [Overloaded].  Reading
    also pauses while a connection has 4 MiB of unread answers.

    {b Ordering.}  Binary responses leave in completion order, not arrival
    order (reads overtake mutations): pipelined clients correlate by
    request id (see {!Frame}).  Typed store failures
    ({!Hyperion.Hyperion_error.t}, including [Degraded]/[Shard_down]/
    [Overloaded]) map to protocol error codes; a malformed frame is
    answered [E_bad_request] without closing the connection, while an
    unrecoverable framing error (oversized length prefix) closes it.

    An optional second listener speaks a memcached-text subset
    ([get]/[set]/[delete]/[stats]/[version]/[quit]) so off-the-shelf
    clients can talk to the store: values are decimal 64-bit integers
    (an empty data block stores a valueless member).  Its replies are in
    command order, as that protocol requires: the loop does not parse a
    connection's next command while it has a mutation in flight.

    Telemetry (when enabled): [hyperion_net_connections] /
    [hyperion_net_inflight] gauges, [hyperion_net_requests_total]
    counters per op, [hyperion_net_protocol_errors_total], and
    [hyperion_net_server_latency_ns{op=...}] histograms measured from
    frame decode to response queued on the connection. *)

type t

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** binary listener; [0] picks an ephemeral port *)
  memcached_port : int option;
      (** when set, also serve the memcached-text subset there
          ([Some 0] = ephemeral) *)
  max_connections : int;  (** accepted connections beyond this are closed *)
}

val default_config : config

val start : ?config:config -> Hyperion_shard.t -> (t, string) result
(** Bind, listen and start the loop thread.  The server borrows the store:
    {!stop} does not close it. *)

val port : t -> int
(** The bound binary port (resolves an ephemeral request). *)

val memcached_port : t -> int option

val connections : t -> int
(** Currently-open connections across both listeners. *)

val stop : t -> unit
(** Close the listeners, stop reading, wait for the mutations already in
    the shard mailboxes to answer (answers that can still be written are),
    close every connection and join the loop thread.  Idempotent. *)
