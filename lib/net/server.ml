(* TCP serving front-end: one event-loop thread per server owns both
   listeners and every connection, answers reads inline and hands
   mutations to the shard mailboxes without blocking.  See server.mli and
   DESIGN.md §13. *)

module Sh = Hyperion_shard
module E = Hyperion.Hyperion_error

type config = {
  host : string;
  port : int;
  memcached_port : int option;
  max_connections : int;
}

let default_config =
  { host = "127.0.0.1"; port = 7791; memcached_port = None; max_connections = 1024 }

(* ---- telemetry ------------------------------------------------------- *)

let g_conns =
  Telemetry.Gauge.make "hyperion_net_connections"
    ~help:"Open client connections (binary + memcached listeners)"

let g_inflight =
  Telemetry.Gauge.make "hyperion_net_inflight"
    ~help:"Mutations handed to shard mailboxes and not yet answered"

let c_proto_errors =
  Telemetry.Counter.make "hyperion_net_protocol_errors_total"
    ~help:"Malformed frames, unknown opcodes and framing corruption"

let op_names =
  [| "put"; "add"; "get"; "mem"; "delete"; "batch"; "stats"; "health" |]

let c_requests =
  Array.map
    (fun op ->
      Telemetry.Counter.make "hyperion_net_requests_total"
        ~help:"Requests received per opcode" ~labels:[ ("op", op) ])
    op_names

let h_latency =
  Array.map
    (fun op ->
      Telemetry.Histogram.make "hyperion_net_server_latency_ns"
        ~help:"Server-side latency from frame decode to response enqueue"
        ~labels:[ ("op", op) ])
    op_names

(* opcode (1-based on the wire) -> metric index *)
let metric_ix req = Frame.opcode req - 1

let observe_latency ix t0 =
  if Telemetry.enabled () && t0 >= 0 then
    Telemetry.Histogram.observe_ns h_latency.(ix) (Telemetry.now_ns () - t0)

let count_request req =
  if Telemetry.enabled () then Telemetry.Counter.incr c_requests.(metric_ix req)

let count_proto_error () =
  if Telemetry.enabled () then Telemetry.Counter.incr c_proto_errors

(* ---- sockets --------------------------------------------------------- *)

(* See poll_stubs.c: [flags.(i)] goes in as the interest in [fds.(i)] and
   comes back as its readiness. *)
external poll : Unix.file_descr array -> int array -> int -> int -> int
  = "hyperion_net_poll"

let want_read = 1
let want_write = 2

let quiet_close fd =
  match Unix.close fd with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) -> ignore err

let would_block = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

(* ---- responses ------------------------------------------------------- *)

let err e = Frame.Err (Frame.err_of_hyperion e, E.to_string e)
let of_result = function Ok () -> Frame.Ack | Error e -> err e

let bad_key k =
  if k = "" then Some (Frame.Err (Frame.E_empty_key, "empty key"))
  else if String.length k > Frame.max_key_len then
    Some
      (Frame.Err
         ( Frame.E_key_too_long,
           Printf.sprintf "key length %d exceeds %d" (String.length k)
             Frame.max_key_len ))
  else None

(* The requests answered on the loop itself: reads, and the two
   introspection ops ([Stats] is the one place the loop waits on the
   shards: it needs the quiescent cut). *)
let exec_inline store (req : Frame.request) : Frame.response =
  match req with
  | Get k -> (
      match bad_key k with Some e -> e | None -> Frame.Value (Sh.get store k))
  | Mem k -> (
      match bad_key k with Some e -> e | None -> Frame.Found (Sh.mem store k))
  | Stats ->
      let keys, bytes, saturated =
        Sh.with_quiesced store (fun stores ->
            Array.fold_left
              (fun (k, b, s) st ->
                ( k + Hyperion.Store.length st,
                  b + Hyperion.Store.memory_usage st,
                  s + Hyperion.Store.saturated_arenas st ))
              (0, 0, 0) stores)
      in
      Frame.Stats_r
        {
          st_keys = Int64.of_int keys;
          st_resident_bytes = Int64.of_int bytes;
          st_shards = Sh.shards store;
          st_saturated_arenas = saturated;
        }
  | Health ->
      Frame.Health_r
        (Array.of_list
           (List.map
              (fun h ->
                {
                  Frame.sh_shard = h.Sh.hs_shard;
                  sh_alive = h.Sh.hs_alive;
                  sh_degraded = h.Sh.hs_degraded <> None;
                  sh_backlog = h.Sh.hs_backlog;
                })
              (Sh.health store)))
  | Put _ | Add _ | Delete _ | Batch _ ->
      Frame.Err (Frame.E_internal, "mutation on the inline path")

let exec_safe store req =
  match exec_inline store req with
  | resp -> resp
  | exception E.Error e -> err e
  | exception Invalid_argument msg -> Frame.Err (Frame.E_bad_request, msg)
  | exception exn -> Frame.Err (Frame.E_internal, Printexc.to_string exn)

(* The shard job for a mutation frame, its reply going to [reply]; a bad
   key is answered at once instead. *)
let mutation_job store (req : Frame.request) reply =
  let checked k make = match bad_key k with Some e -> Error e | None -> Ok (make ()) in
  match req with
  | Put (k, v) -> checked k (fun () -> Sh.put_job store k v (fun r -> reply (of_result r)))
  | Add k -> checked k (fun () -> Sh.add_job store k (fun r -> reply (of_result r)))
  | Delete k ->
      checked k (fun () ->
          Sh.delete_job store k (function
            | Ok existed -> reply (Frame.Found existed)
            | Error e -> reply (err e)))
  | Batch ops -> (
      let key = function Frame.Bput (k, _) | Frame.Badd k | Frame.Bdel k -> k in
      match Array.find_map (fun op -> bad_key (key op)) ops with
      | Some e -> Error e
      | None ->
          let b = Sh.Batch.create store in
          Array.iter
            (function
              | Frame.Bput (k, v) -> Sh.Batch.put b k v
              | Frame.Badd k -> Sh.Batch.add b k
              | Frame.Bdel k -> Sh.Batch.delete b k)
            ops;
          Ok
            (Sh.Batch.job b (fun report ->
                 match Sh.Batch.outcome report with
                 | Ok n -> reply (Frame.Applied n)
                 | Error e -> reply (err e))))
  | Get _ | Mem _ | Stats | Health ->
      Error (Frame.Err (Frame.E_internal, "inline request on the mutation path"))

(* ---- state shared with the shard workers ----------------------------- *)

(* One answered mutation on its way back to the loop.  [c_id] is the
   binary request id, or for memcached 1 when the reply is suppressed
   ([noreply]) and 0 otherwise. *)
type completion = {
  c_conn : int;
  c_id : int;
  c_op : int;  (* metric index *)
  c_t0 : int;  (* decode time, -1 untimed *)
  c_resp : Frame.response;
}

type core = {
  wake_r : Unix.file_descr;  (* self-pipe: a byte means "completions queued" *)
  wake_w : Unix.file_descr;
  cq_m : Mutex.t;
  mutable cq : completion list; [@guarded_by cq_m]  (* newest first *)
  mutable woken : bool; [@guarded_by cq_m]
      (* a wake byte is owed or pending since the loop last took [cq] *)
  outstanding : int Atomic.t;
      (* mutation callbacks armed and not yet returned: the pipe stays
         open until this drops to 0 *)
  open_conns : int Atomic.t;
  stopping : bool Atomic.t;
}

let wake core =
  match Unix.single_write_substring core.wake_w "!" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (e, _, _) ->
      (* EAGAIN: the pipe is full, so the loop is due to wake anyway *)
      ignore e

(* Runs on the shard worker that answered (or on the loop, for answers
   that needed no worker).  Only the first push after the loop drained the
   queue writes to the pipe. *)
let complete core c =
  Mutex.lock core.cq_m;
  core.cq <- c :: core.cq;
  let first = not core.woken in
  core.woken <- true;
  Mutex.unlock core.cq_m;
  if first then wake core;
  Atomic.decr core.outstanding

(* The loop drains the pipe before taking the queue, so a push racing the
   take either lands in this batch or writes a fresh wake byte. *)
let take_completions core =
  Mutex.lock core.cq_m;
  let l = core.cq in
  core.cq <- [];
  core.woken <- false;
  Mutex.unlock core.cq_m;
  List.rev l

let drain_wake core =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read core.wake_r b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error (e, _, _) -> ignore e
  in
  go ()

(* ---- connections (owned by the loop thread) -------------------------- *)

type proto =
  | Binary of Frame.Decoder.t
  | Text of Buffer.t  (* memcached: received bytes not yet parsed *)

type phase =
  | Open  (* reading and parsing *)
  | Parked of Sh.job
      (* a mutation waits for mailbox room: nothing more is parsed (or
         read) until it is queued *)
  | Closing  (* peer gone or framing lost: close once answered *)
  | Closed

type conn = {
  cid : int;
  fd : Unix.file_descr;
  proto : proto;
  out : Buffer.t;  (* answers not yet written *)
  mutable inflight : int;  (* mutations submitted and not yet answered *)
  mutable phase : phase;
}

(* [phase] carries a job (closures): test it by matching, never with [=]. *)
let is_open c = match c.phase with Open -> true | Parked _ | Closing | Closed -> false
let is_closed c = match c.phase with Closed -> true | Open | Parked _ | Closing -> false

type loop = {
  core : core;
  store : Sh.t;
  cfg : config;
  listeners : (Unix.file_descr * bool) list;  (* socket, memcached? *)
  conns : (int, conn) Hashtbl.t;
  rbuf : Bytes.t;
}

(* Reading pauses while this much output waits for a slow reader. *)
let max_out = 4 lsl 20

(* Cap on reads drained into one batched descent: bounds the latency of
   the first response in a burst. *)
let max_read_burst = 256

let note_conns lp =
  let n = Hashtbl.length lp.conns in
  Atomic.set lp.core.open_conns n;
  if Telemetry.enabled () then Telemetry.Gauge.set g_conns n

let drop lp c =
  (match c.phase with
  | Parked _ ->
      (* never queued, so its callback will never run *)
      Atomic.decr lp.core.outstanding
  | Open | Closing | Closed -> ());
  if not (is_closed c) then begin
    c.phase <- Closed;
    quiet_close c.fd;
    Hashtbl.remove lp.conns c.cid;
    note_conns lp
  end

let respond c ~id resp = Frame.encode_response c.out ~id resp

let start_job lp c job =
  c.inflight <- c.inflight + 1;
  Atomic.incr lp.core.outstanding;
  if not (Sh.submit job) then c.phase <- Parked job

(* ---- binary protocol ------------------------------------------------- *)

(* Pipelined Get/Mem frames, oldest first, go through one batched descent
   per opcode; a bad key is answered per frame and a failing batch is
   re-run per frame, so every response carries its own outcome. *)
let answer_reads lp c reads =
  let frames = Array.of_list reads in
  let resps = Array.make (Array.length frames) (Frame.Value None) in
  let gets = ref [] and mems = ref [] in
  Array.iteri
    (fun i (_, _, req) ->
      match req with
      | Frame.Get k -> (
          match bad_key k with Some e -> resps.(i) <- e | None -> gets := (i, k) :: !gets)
      | Frame.Mem k -> (
          match bad_key k with Some e -> resps.(i) <- e | None -> mems := (i, k) :: !mems)
      | _ -> resps.(i) <- exec_safe lp.store req)
    frames;
  let scatter group run =
    match List.rev group with
    | [] -> ()
    | l -> (
        let idx = Array.of_list (List.map fst l) in
        match run (Array.of_list (List.map snd l)) with
        | rs -> Array.iteri (fun j r -> resps.(idx.(j)) <- r) rs
        | exception (E.Error _ | Invalid_argument _) ->
            Array.iter
              (fun i ->
                let _, _, req = frames.(i) in
                resps.(i) <- exec_safe lp.store req)
              idx
        | exception exn ->
            let msg = Printexc.to_string exn in
            Array.iter (fun i -> resps.(i) <- Frame.Err (Frame.E_internal, msg)) idx)
  in
  scatter !gets (fun keys ->
      Array.map (fun v -> Frame.Value v) (Sh.get_many lp.store keys));
  scatter !mems (fun keys ->
      Array.map (fun b -> Frame.Found b) (Sh.mem_many lp.store keys));
  Array.iteri
    (fun i (id, t0, req) ->
      observe_latency (metric_ix req) t0;
      respond c ~id resps.(i))
    frames

let parse_binary lp c dec =
  let reads = ref [] and nreads = ref 0 in
  let flush_reads () =
    if !nreads > 0 then begin
      answer_reads lp c (List.rev !reads);
      reads := [];
      nreads := 0
    end
  in
  let rec go () =
    if is_open c then
      match Frame.Decoder.next dec with
      | Frame.Need_more -> ()
      | Frame.Corrupt msg ->
          count_proto_error ();
          flush_reads ();
          respond c ~id:0 (Frame.Err (Frame.E_too_large, msg));
          c.phase <- Closing
      | Frame.Frame (id, tag, payload) ->
          (match Frame.parse_request ~tag payload with
          | Error msg ->
              count_proto_error ();
              flush_reads ();
              respond c ~id (Frame.Err (Frame.E_bad_request, msg))
          | Ok req -> (
              count_request req;
              let t0 = if Telemetry.enabled () then Telemetry.now_ns () else -1 in
              let ix = metric_ix req in
              match req with
              | Get _ | Mem _ ->
                  reads := (id, t0, req) :: !reads;
                  incr nreads;
                  if !nreads >= max_read_burst then flush_reads ()
              | Stats | Health ->
                  flush_reads ();
                  let resp = exec_safe lp.store req in
                  observe_latency ix t0;
                  respond c ~id resp
              | Put _ | Add _ | Delete _ | Batch _ -> (
                  flush_reads ();
                  let reply resp =
                    complete lp.core
                      { c_conn = c.cid; c_id = id; c_op = ix; c_t0 = t0; c_resp = resp }
                  in
                  match mutation_job lp.store req reply with
                  | Ok job -> start_job lp c job
                  | Error resp ->
                      observe_latency ix t0;
                      respond c ~id resp)));
          go ()
  in
  go ();
  flush_reads ()

(* ---- memcached-text protocol ----------------------------------------- *)

(* Frames are CRLF lines (bare LF tolerated), except the [set] data block,
   which is an exact byte count.  Replies stay in command order because a
   connection's next command is not parsed while a mutation of it is in
   flight. *)

let mc_reply (resp : Frame.response) =
  match resp with
  | Ack -> "STORED\r\n"
  | Found true -> "DELETED\r\n"
  | Found false -> "NOT_FOUND\r\n"
  | Err (_, msg) -> Printf.sprintf "SERVER_ERROR %s\r\n" msg
  | Value _ | Applied _ | Stats_r _ | Health_r _ -> "SERVER_ERROR unexpected reply\r\n"

let mc_get lp c keys =
  List.iter
    (fun k ->
      if k <> "" && String.length k <= Frame.max_key_len then
        match Sh.get lp.store k with
        | Some v ->
            let data = Int64.to_string v in
            Printf.bprintf c.out "VALUE %s 0 %d\r\n%s\r\n" k (String.length data) data
        | None ->
            if Sh.mem lp.store k then Printf.bprintf c.out "VALUE %s 0 0\r\n\r\n" k)
    keys;
  Buffer.add_string c.out "END\r\n"

let mc_stats lp c =
  let keys, bytes =
    Sh.with_quiesced lp.store (fun stores ->
        Array.fold_left
          (fun (k, b) st ->
            (k + Hyperion.Store.length st, b + Hyperion.Store.memory_usage st))
          (0, 0) stores)
  in
  Printf.bprintf c.out
    "STAT curr_items %d\r\nSTAT bytes %d\r\nSTAT threads %d\r\n\
     STAT curr_connections %d\r\nEND\r\n"
    keys bytes (Sh.shards lp.store) (Hashtbl.length lp.conns)

let mc_mutate lp c ~noreply req =
  let reply resp =
    complete lp.core
      { c_conn = c.cid; c_id = (if noreply then 1 else 0); c_op = metric_ix req;
        c_t0 = -1; c_resp = resp }
  in
  match mutation_job lp.store req reply with
  | Ok job -> start_job lp c job
  | Error resp -> if not noreply then Buffer.add_string c.out (mc_reply resp)

(* The data block of [n] bytes at [at]: [Some consumed] once it and its
   line terminator are buffered. *)
let mc_block s at n =
  let avail = String.length s - at in
  if avail >= n + 2 && s.[at + n] = '\r' && s.[at + n + 1] = '\n' then Some (n + 2)
  else if avail >= n + 1 && s.[at + n] = '\n' then Some (n + 1)
  else if avail >= n + 2 then Some n
  else None

(* One command at [pos]: [Some next_pos] when it was complete. *)
let mc_command lp c s pos =
  match String.index_from_opt s pos '\n' with
  | None -> None
  | Some nl -> (
      let stop = if nl > pos && s.[nl - 1] = '\r' then nl - 1 else nl in
      let words =
        String.split_on_char ' ' (String.trim (String.sub s pos (stop - pos)))
        |> List.filter (fun w -> w <> "")
      in
      let say str = Buffer.add_string c.out str in
      let after = nl + 1 in
      match words with
      | [] -> Some after
      | "get" :: keys when keys <> [] ->
          mc_get lp c keys;
          Some after
      | "set" :: k :: _flags :: _exptime :: nbytes :: rest -> (
          let noreply = rest = [ "noreply" ] in
          let say str = if not noreply then say str in
          match int_of_string_opt nbytes with
          | Some n when n >= 0 && n <= Frame.max_frame_len -> (
              match mc_block s after n with
              | None -> None
              | Some used ->
                  let data = String.sub s after n in
                  (if k = "" || String.length k > Frame.max_key_len then
                     say "CLIENT_ERROR bad key\r\n"
                   else if data = "" then mc_mutate lp c ~noreply (Frame.Add k)
                   else
                     match Int64.of_string_opt (String.trim data) with
                     | None ->
                         say "CLIENT_ERROR value must be a decimal 64-bit integer\r\n"
                     | Some v -> mc_mutate lp c ~noreply (Frame.Put (k, v)));
                  Some (after + used))
          | _ ->
              say "CLIENT_ERROR bad data chunk\r\n";
              Some after)
      | "delete" :: k :: rest when rest = [] || rest = [ "noreply" ] ->
          let noreply = rest <> [] in
          if k = "" || String.length k > Frame.max_key_len then
            (if not noreply then say "NOT_FOUND\r\n")
          else mc_mutate lp c ~noreply (Frame.Delete k);
          Some after
      | [ "stats" ] ->
          mc_stats lp c;
          Some after
      | [ "version" ] ->
          say "VERSION hyperion-net 1.0\r\n";
          Some after
      | [ "quit" ] ->
          c.phase <- Closing;
          Some after
      | _ ->
          say "ERROR\r\n";
          Some after)

let parse_text lp c inb =
  let s = Buffer.contents inb in
  let rec go pos =
    if is_open c && c.inflight = 0 then
      match mc_command lp c s pos with Some next -> go next | None -> pos
    else pos
  in
  let pos = go 0 in
  if pos > 0 then begin
    Buffer.clear inb;
    Buffer.add_substring inb s pos (String.length s - pos)
  end;
  (* a client that never ends its line must not grow the buffer forever *)
  if Buffer.length inb > Frame.max_frame_len + 4096 then c.phase <- Closing

(* ---- the loop -------------------------------------------------------- *)

let parse lp c =
  match c.proto with Binary dec -> parse_binary lp c dec | Text inb -> parse_text lp c inb

(* A failure the request handlers did not anticipate costs the one
   connection, never the loop. *)
let guarded lp c f =
  match f () with
  | () -> ()
  | exception exn ->
      prerr_endline ("hyperion-net: dropping connection: " ^ Printexc.to_string exn);
      drop lp c

let deliver lp (cm : completion) =
  match Hashtbl.find_opt lp.conns cm.c_conn with
  | None -> ()  (* the connection is gone: the answer is discarded *)
  | Some c ->
      c.inflight <- c.inflight - 1;
      match c.proto with
      | Binary _ ->
          observe_latency cm.c_op cm.c_t0;
          respond c ~id:cm.c_id cm.c_resp
      | Text inb ->
          if cm.c_id = 0 then Buffer.add_string c.out (mc_reply cm.c_resp);
          (* the next command waited for this answer *)
          guarded lp c (fun () -> parse_text lp c inb)

let unpark lp c =
  match c.phase with
  | Parked job ->
      if Sh.submit job then begin
        c.phase <- Open;
        guarded lp c (fun () -> parse lp c)
      end
  | Open | Closing | Closed -> ()

let next_cid = Atomic.make 0

let accept lp (sock, text) =
  let rec go () =
    match Unix.accept ~cloexec:true sock with
    | exception Unix.Unix_error (e, _, _) ->
        (* EAGAIN: the backlog is empty; anything else (EMFILE, an aborted
           handshake) is retried on the next readiness *)
        ignore e
    | fd, _ ->
        if Atomic.get lp.core.stopping || Hashtbl.length lp.conns >= lp.cfg.max_connections
        then quiet_close fd
        else begin
          Unix.set_nonblock fd;
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          let cid = Atomic.fetch_and_add next_cid 1 in
          Hashtbl.replace lp.conns cid
            {
              cid;
              fd;
              proto =
                (if text then Text (Buffer.create 256)
                 else Binary (Frame.Decoder.create ()));
              out = Buffer.create 256;
              inflight = 0;
              phase = Open;
            };
          note_conns lp
        end;
        go ()
  in
  go ()

let read lp c =
  match Unix.read c.fd lp.rbuf 0 (Bytes.length lp.rbuf) with
  | 0 -> c.phase <- Closing
  | n ->
      (match c.proto with
      | Binary dec -> Frame.Decoder.feed dec lp.rbuf 0 n
      | Text inb -> Buffer.add_subbytes inb lp.rbuf 0 n);
      guarded lp c (fun () -> parse lp c)
  | exception Unix.Unix_error (e, _, _) -> if not (would_block e) then c.phase <- Closing

(* Everything answered this turn leaves in one write per connection. *)
let write lp c =
  let n = Buffer.length c.out in
  if n > 0 && not (is_closed c) then
    match Unix.single_write_substring c.fd (Buffer.contents c.out) 0 n with
    | w ->
        let rest = Buffer.sub c.out w (n - w) in
        Buffer.clear c.out;
        Buffer.add_string c.out rest
    | exception Unix.Unix_error (e, _, _) -> if not (would_block e) then drop lp c

let snapshot lp = Array.of_seq (Hashtbl.to_seq_values lp.conns)

let turn lp =
  let stopping = Atomic.get lp.core.stopping in
  let listeners = if stopping then [] else lp.listeners in
  let conns = snapshot lp in
  let nl = 1 + List.length listeners in
  let n = nl + Array.length conns in
  let fds = Array.make n lp.core.wake_r and flags = Array.make n want_read in
  List.iteri (fun i (s, _) -> fds.(i + 1) <- s) listeners;
  let parked = ref false in
  Array.iteri
    (fun i c ->
      let out = Buffer.length c.out in
      fds.(nl + i) <- c.fd;
      flags.(nl + i) <-
        (match c.phase with
        | Open when out < max_out -> want_read
        | Parked _ ->
            parked := true;
            0
        | Open | Closing | Closed -> 0)
        lor if out > 0 then want_write else 0)
    conns;
  (* a parked mutation is retried every millisecond, as the blocking
     front door polls a full mailbox *)
  ignore (poll fds flags n (if stopping || !parked then 1 else -1));
  let ready i = flags.(i) land want_read <> 0 in
  if ready 0 then drain_wake lp.core;
  List.iter (deliver lp) (take_completions lp.core);
  if !parked then Array.iter (unpark lp) conns;
  List.iteri (fun i l -> if ready (i + 1) then accept lp l) listeners;
  Array.iteri (fun i c -> if ready (nl + i) && is_open c then read lp c) conns;
  Array.iter
    (fun c ->
      write lp c;
      match c.phase with
      | Closing when c.inflight = 0 && Buffer.length c.out = 0 -> drop lp c
      | Open | Parked _ | Closing | Closed -> ())
    conns;
  if Telemetry.enabled () then
    Telemetry.Gauge.set g_inflight (Atomic.get lp.core.outstanding)

let run lp =
  while not (Atomic.get lp.core.stopping) do
    turn lp
  done;
  List.iter (fun (s, _) -> quiet_close s) lp.listeners;
  (* read no more, and let the mutations already in the shards answer; a
     parked mutation was never queued and goes with its connection *)
  Array.iter
    (fun c ->
      match c.phase with
      | Parked _ -> drop lp c
      | Open -> c.phase <- Closing
      | Closing | Closed -> ())
    (snapshot lp);
  while Atomic.get lp.core.outstanding > 0 do
    turn lp
  done;
  Array.iter
    (fun c ->
      write lp c;
      drop lp c)
    (snapshot lp)

(* ---- lifecycle ------------------------------------------------------- *)

type t = {
  core : core;
  bin_port : int;
  mc_port : int option;
  thread : Thread.t;
}

let listen_on ~host ~port =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen sock 1024;
    Unix.set_nonblock sock;
    Unix.getsockname sock
  with
  | Unix.ADDR_INET (_, bound) -> Ok (sock, bound)
  | Unix.ADDR_UNIX _ ->
      quiet_close sock;
      Error "unexpected unix-domain listener"
  | exception Unix.Unix_error (e, fn, _) ->
      quiet_close sock;
      Error
        (Printf.sprintf "cannot listen on %s:%d: %s (%s)" host port
           (Unix.error_message e) fn)

let start ?(config = default_config) store =
  if config.max_connections < 1 then Error "max_connections must be >= 1"
  else begin
    (* a peer that disappears mid-write must surface as EPIPE, not kill
       the process *)
    (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | _old -> ()
    | exception Invalid_argument msg -> ignore msg);
    let ( let* ) = Result.bind in
    let* bin = listen_on ~host:config.host ~port:config.port in
    let* mc =
      match config.memcached_port with
      | None -> Ok None
      | Some port -> (
          match listen_on ~host:config.host ~port with
          | Ok l -> Ok (Some l)
          | Error _ as e ->
              quiet_close (fst bin);
              e)
    in
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock wake_r;
    Unix.set_nonblock wake_w;
    let core =
      {
        wake_r;
        wake_w;
        cq_m = Mutex.create ();
        cq = [];
        woken = false;
        outstanding = Atomic.make 0;
        open_conns = Atomic.make 0;
        stopping = Atomic.make false;
      }
    in
    let lp =
      {
        core;
        store;
        cfg = config;
        listeners =
          (fst bin, false) :: (match mc with Some (s, _) -> [ (s, true) ] | None -> []);
        conns = Hashtbl.create 64;
        rbuf = Bytes.create 65536;
      }
    in
    Ok
      {
        core;
        bin_port = snd bin;
        mc_port = Option.map snd mc;
        thread = Thread.create run lp;
      }
  end

let port t = t.bin_port
let memcached_port t = t.mc_port
let connections t = Atomic.get t.core.open_conns

let stop t =
  if not (Atomic.exchange t.core.stopping true) then begin
    wake t.core;
    Thread.join t.thread;
    (* the loop left only once every armed callback had returned, so
       nothing can write to the pipe any more *)
    quiet_close t.core.wake_r;
    quiet_close t.core.wake_w;
    if Telemetry.enabled () then Telemetry.Gauge.set g_conns 0
  end
