module H = Hyperion
module E = Hyperion.Hyperion_error
module T = Telemetry

(* Shard-layer telemetry.  The mailbox depth gauge is owned by the worker
   domains (single writer per shard): each drain records the backlog it
   found, so the summed gauge is the backlog observed at the most recent
   drains, and the high-watermark gauge keeps the worst backlog any worker
   ever saw.  Batch sizes and quiesce stalls get histograms — both shape
   tail latency directly. *)
let g_mailbox_depth =
  T.Gauge.make "hyperion_shard_mailbox_depth"
    ~help:"Messages found in shard mailboxes at the latest drain (summed)"

let g_mailbox_hwm =
  T.Gauge.make "hyperion_shard_mailbox_depth_hwm" ~merge:`Max
    ~help:"Highest backlog any shard worker has drained at once"

let m_drain =
  T.Histogram.make "hyperion_shard_drain_msgs"
    ~help:"Messages handled per mailbox drain"

let m_batch =
  T.Histogram.make "hyperion_shard_batch_ops"
    ~help:"Mutations per batched shard slice"

let m_quiesce =
  T.Histogram.make "hyperion_shard_quiesce_duration_ns"
    ~help:"Drain-and-pause barrier duration for quiesced reads"

let c_worker_crashes =
  T.Counter.make "hyperion_shard_worker_crashes_total"
    ~help:"Shard worker domains that died on an unexpected exception"

let c_restarts =
  T.Counter.make "hyperion_shard_restarts_total"
    ~help:"Dead shard workers restarted from their persist directories"

let c_overloads =
  T.Counter.make "hyperion_shard_overload_rejections_total"
    ~help:"Mutations rejected because a shard mailbox stayed full past the \
           enqueue deadline"

(* --- one-shot synchronisation cell ------------------------------------ *)

(* The blocking front door waits on one of these; the worker fills it
   from the request's completion callback. *)

module Ivar = struct
  type 'a t = {
    m : Mutex.t;
    c : Condition.t;
    mutable v : 'a option; [@guarded_by m]
  }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  (* Idempotent: the first fill wins. *)
  let fill t v =
    Mutex.lock t.m;
    if t.v = None then begin
      t.v <- Some v;
      Condition.broadcast t.c
    end;
    Mutex.unlock t.m

  let read t =
    Mutex.lock t.m;
    let rec wait () =
      match t.v with
      | Some v ->
          Mutex.unlock t.m;
          v
      | None ->
          Condition.wait t.c t.m;
          wait ()
    in
    wait ()
end

(* --- requests --------------------------------------------------------- *)

type op = Put of string * int64 | Add of string | Delete of string

(* Workers parked between two requests; the coordinator reads all stores
   while every [arrived] worker waits for [released]. *)
type barrier = {
  bm : Mutex.t;
  bc : Condition.t;
  mutable arrived : int; [@guarded_by bm]
  mutable released : bool; [@guarded_by bm]
}

(* Raised by a [Poison] message: the supervision test hook's stand-in for
   any unexpected worker exception. *)
exception Injected_worker_crash of string

(* Mutations carry their completion callback, which the worker calls
   exactly once with the outcome. *)
type msg =
  | Mut of op * ((bool, E.t) result -> unit)
      (** one mutation; the bool is [Delete]'s "was present" *)
  | Batched of op array * (int * E.t option -> unit)
      (** a per-shard batch slice; the int counts the applied prefix, the
          error (if any) is what stopped it *)
  | Quiesce of barrier
  | Poison of string  (** test hook: handling raises {!Injected_worker_crash} *)

(* --- MPSC mailbox: bounded ring, mutex + condvar ---------------------- *)

type mailbox = {
  mm : Mutex.t;
  not_empty : Condition.t;
  ring : msg option array;
  mutable head : int; [@guarded_by mm]  (* next slot to dequeue *)
  mutable len : int; [@guarded_by mm]
  mutable accepting : bool; [@guarded_by mm]
      (* senders rejected once the store closes *)
  mutable stopping : bool; [@guarded_by mm]
      (* worker exits after draining the backlog *)
}

let mailbox_create cap =
  {
    mm = Mutex.create ();
    not_empty = Condition.create ();
    ring = Array.make cap None;
    head = 0;
    len = 0;
    accepting = true;
    stopping = false;
  }

type send_result = Sent | Full | Mailbox_closed

(* Never blocks: a full ring is the caller's to wait out (see
   [retry_with_backoff]) or to report. *)
let try_send mb msg =
  Mutex.lock mb.mm;
  let cap = Array.length mb.ring in
  let r =
    if not mb.accepting then Mailbox_closed
    else if mb.len >= cap then Full
    else begin
      mb.ring.((mb.head + mb.len) mod cap) <- Some msg;
      mb.len <- mb.len + 1;
      Condition.signal mb.not_empty;
      Sent
    end
  in
  Mutex.unlock mb.mm;
  r

(* Blocking callers wait out a full mailbox by polling [f] with a doubling
   sleep: the stdlib has no timed condvar wait, overload is the rare path,
   and a healthy worker drains whole backlogs at once, so the poll cost is
   invisible next to the full ring it is waiting on. *)
let retry_with_backoff f =
  let backoff = ref 5e-5 in
  while not (f ()) do
    Unix.sleepf !backoff;
    backoff := Float.min 1e-3 (!backoff *. 2.)
  done

(* Drain the whole backlog in one lock acquisition; [None] = shut down. *)
let drain mb =
  Mutex.lock mb.mm;
  while mb.len = 0 && not mb.stopping do
    Condition.wait mb.not_empty mb.mm
  done;
  if mb.len = 0 then begin
    Mutex.unlock mb.mm;
    None
  end
  else begin
    let cap = Array.length mb.ring in
    let n = mb.len in
    let out =
      Array.init n (fun i ->
          let slot = (mb.head + i) mod cap in
          let m = Option.get mb.ring.(slot) in
          mb.ring.(slot) <- None;
          m)
    in
    mb.head <- (mb.head + n) mod cap;
    mb.len <- 0;
    Mutex.unlock mb.mm;
    Some out
  end

let backlog mb =
  Mutex.lock mb.mm;
  let n = mb.len in
  Mutex.unlock mb.mm;
  n

let shut_down mb =
  Mutex.lock mb.mm;
  mb.accepting <- false;
  mb.stopping <- true;
  Condition.broadcast mb.not_empty;
  Mutex.unlock mb.mm

(* --- the sharded store ------------------------------------------------ *)

(* [store]/[persist]/[mb] are swapped only by {!restart_shard}, under
   [t.qlock] and only while the shard's worker is dead (its domain joined),
   so the single-writer discipline is preserved; concurrent readers of the
   swapped pointers see either the old frozen shard or the new one, both
   safe. *)
type shard = {
  id : int;
  mutable store : H.Store.t;
  mutable persist : Persist.t option;
  mutable mb : mailbox;
  health : string option Atomic.t;  (* [Some reason] = worker dead *)
  mutable domain : unit Domain.t option;
}

type shard_recovery = {
  shard : int;
  recovery : Persist.recovery;
}

(* Everything needed to rebuild a single shard after its worker died. *)
type knobs = {
  k_dir : string option;
  k_sync_every_ops : int option;
  k_sync_every_bytes : int option;
  k_rotate_bytes : int option;
  k_mailbox : int;
  k_io_for_shard : (int -> Persist.Io.t) option;
}

type t = {
  cfg : H.Config.t;
  enc : Compress.t;  (* every key is encoded through this at the front door *)
  tab : shard array;
  recs : shard_recovery list;
  knobs : knobs;
  enqueue_timeout_ns : int;
  qlock : Mutex.t;  (* serializes quiesce barriers, restart, close/crash *)
  mutable closed : bool;
}

let shards t = Array.length t.tab
let durable t = Array.length t.tab > 0 && t.tab.(0).persist <> None
let config t = t.cfg
let compress t = t.enc
let recoveries t = t.recs

let shard_dir ~dir i = Filename.concat dir (Printf.sprintf "shard-%03d" i)
let manifest_file ~dir = Filename.concat dir "MANIFEST"

let route_byte d b = b * d / 256

(* Routing happens over *encoded* bytes; the encoder is order-preserving,
   so the boundary math (first byte, fixed split) is unchanged. *)
let shard_of_encoded t ekey = route_byte (Array.length t.tab) (Char.code ekey.[0])
let shard_of_key t key = route_byte (Array.length t.tab) (Compress.first_byte t.enc key)

(* Front-door key validation + encoding: the raw key must satisfy the
   store's key rules (rejecting e.g. the empty key before it gains bytes
   from the terminator code), and so must its encoding under the shard
   stores' config ({!H.Store.key_error}: worst-case expansion can push a
   near-limit key over the length cap, and pre-processing needs 4
   bytes). *)
let front_key cfg enc key =
  match H.Ops.key_error key with
  | Some e -> Error e
  | None -> (
      let ek =
        match enc with
        | Compress.Identity -> key
        | Compress.Dict _ -> Compress.encode enc key
      in
      match H.Store.key_error cfg ek with Some e -> Error e | None -> Ok ek)

let decoded enc ekey =
  match Compress.decode enc ekey with
  | Ok k -> k
  | Error why -> E.fail (E.Chunk_corrupt ("stored key fails to decode: " ^ why))

(* --- worker ----------------------------------------------------------- *)

let apply_op sh op : (bool, E.t) result =
  match sh.persist with
  | Some p -> (
      match op with
      | Put (k, v) -> (
          match Persist.put p k v with Ok () -> Ok true | Error _ as e -> e)
      | Add k -> (
          match Persist.add p k with Ok () -> Ok true | Error _ as e -> e)
      | Delete k -> Persist.delete p k)
  | None -> (
      match op with
      | Put (k, v) -> (
          match H.Store.put_result sh.store k v with
          | Ok () -> Ok true
          | Error _ as e -> e)
      | Add k -> (
          match H.Store.add_result sh.store k with
          | Ok () -> Ok true
          | Error _ as e -> e)
      | Delete k -> H.Store.delete_result sh.store k)

let participate b =
  Mutex.lock b.bm;
  b.arrived <- b.arrived + 1;
  Condition.broadcast b.bc;
  while not b.released do
    Condition.wait b.bc b.bm
  done;
  Mutex.unlock b.bm

(* Handle [msg] up to, not including, its reply; the returned thunk sends
   the reply.  Supervision relies on the split: a message that raised
   before replying is failed, one whose reply already went out is not. *)
let perform sh = function
  | Mut (op, k) ->
      let r = apply_op sh op in
      fun () -> k r
  | Batched (ops, k) ->
      if T.enabled () then T.Histogram.observe_ns m_batch (Array.length ops);
      let n = Array.length ops in
      let rec go i =
        if i >= n then (i, None)
        else
          match apply_op sh ops.(i) with
          | Ok _ -> go (i + 1)
          | Error e -> (i, Some e)
      in
      let outcome = go 0 in
      fun () -> k outcome
  | Quiesce b ->
      participate b;
      ignore
  | Poison reason -> raise (Injected_worker_crash reason)

(* Answer a message that will never be handled. *)
let fail_msg e = function
  | Mut (_, k) -> k (Error e)
  | Batched (_, k) -> k (0, Some e)
  | Quiesce b -> participate b
  | Poison _ -> ()

let worker sh () =
  (* Supervision: an unexpected exception must never strand a client.
     The dying worker marks itself unhealthy, fails every pending request
     with a typed [Shard_down], still takes quiesce barriers it already
     received (a quiesced reader must not hang on a shard it posted to),
     seals its mailbox, and exits.  Siblings keep serving; the shard can
     be rebuilt with [restart_shard]. *)
  let cleanup exn msgs from =
    let reason = Printexc.to_string exn in
    Atomic.set sh.health (Some reason);
    if T.enabled () then T.Counter.incr c_worker_crashes;
    let fail_one = fail_msg (E.Shard_down reason) in
    for j = from to Array.length msgs - 1 do
      fail_one msgs.(j)
    done;
    shut_down sh.mb;
    let rec flush () =
      match drain sh.mb with
      | Some more ->
          Array.iter fail_one more;
          flush ()
      | None -> ()
    in
    flush ()
  in
  let rec loop () =
    match drain sh.mb with
    | None -> ()
    | Some msgs ->
        if T.enabled () then begin
          let n = Array.length msgs in
          T.Gauge.set g_mailbox_depth n;
          T.Gauge.set g_mailbox_hwm n;
          T.Histogram.observe_ns m_drain n
        end;
        let i = ref 0 in
        (try
           while !i < Array.length msgs do
             let reply = perform sh msgs.(!i) in
             incr i;
             reply ()
           done
         with exn -> cleanup exn msgs !i);
        if Atomic.get sh.health = None then begin
          if T.enabled () then T.Gauge.set g_mailbox_depth 0;
          loop ()
        end
  in
  loop ()

let start_workers tab =
  Array.iter (fun sh -> sh.domain <- Some (Domain.spawn (worker sh))) tab

(* --- construction ----------------------------------------------------- *)

let max_shards = 64  (* worker domains live for the store's lifetime *)

let check_geometry ~shards ~mailbox =
  if shards < 1 || shards > max_shards then
    invalid_arg
      (Printf.sprintf "Hyperion_shard: shards must be in [1, %d]" max_shards);
  if mailbox < 1 then invalid_arg "Hyperion_shard: mailbox must be >= 1"

let default_enqueue_timeout_ms = 30_000

let timeout_ns_of_ms ms =
  if ms < 0 then invalid_arg "Hyperion_shard: enqueue_timeout_ms must be >= 0";
  ms * 1_000_000

(* The encoder is part of the config contract: [config.compress] names
   the scheme, [?compress] supplies the trained state.  A disagreement is
   a wiring bug (invalid_arg); a missing dictionary for scheme 1 is too,
   for the in-memory constructor (the durable path can adopt one from its
   snapshots instead). *)
let check_encoder ~config compress =
  match compress with
  | Some e ->
      if Compress.id e <> config.H.Config.compress then
        invalid_arg
          (Printf.sprintf
             "Hyperion_shard: config.compress = %d but the %s encoder was \
              passed"
             config.H.Config.compress (Compress.name e));
      Some e
  | None ->
      if config.H.Config.compress = 0 then Some Compress.Identity else None

let create ?(config = H.Config.default) ?compress ?(shards = 4)
    ?(mailbox = 1024) ?(enqueue_timeout_ms = default_enqueue_timeout_ms) () =
  check_geometry ~shards ~mailbox;
  let enc =
    match check_encoder ~config compress with
    | Some e -> e
    | None ->
        invalid_arg
          "Hyperion_shard.create: config.compress selects the dict encoder; \
           pass ?compress with the trained dictionary"
  in
  let enqueue_timeout_ns = timeout_ns_of_ms enqueue_timeout_ms in
  let tab =
    Array.init shards (fun i ->
        {
          id = i;
          store = H.Store.create ~config ();
          persist = None;
          mb = mailbox_create mailbox;
          health = Atomic.make None;
          domain = None;
        })
  in
  start_workers tab;
  {
    cfg = config;
    enc;
    tab;
    recs = [];
    knobs =
      {
        k_dir = None;
        k_sync_every_ops = None;
        k_sync_every_bytes = None;
        k_rotate_bytes = None;
        k_mailbox = mailbox;
        k_io_for_shard = None;
      };
    enqueue_timeout_ns;
    qlock = Mutex.create ();
    closed = false;
  }

(* The manifest pins the shard count: reopening with a different partition
   would route keys to shards whose stores do not hold them. *)
let read_manifest dir =
  let path = manifest_file ~dir in
  if not (Sys.file_exists path) then Ok None
  else
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Error (E.Io_error msg)
    | text -> (
        match int_of_string_opt (String.trim text) with
        | Some d when d >= 1 && d <= max_shards -> Ok (Some d)
        | _ ->
            Error
              (E.Io_error
                 (Printf.sprintf "%s: unreadable shard manifest %S" path text)))

let write_manifest dir d =
  try
    Out_channel.with_open_text (manifest_file ~dir) (fun oc ->
        Printf.fprintf oc "%d\n" d);
    Ok ()
  with Sys_error msg -> Error (E.Io_error msg)

let recovery_wave = 8  (* parallel recovery domains per wave *)

let open_durable ?(config = H.Config.default) ?compress ?shards ?sync_every_ops
    ?sync_every_bytes ?rotate_bytes ?(mailbox = 1024)
    ?(enqueue_timeout_ms = default_enqueue_timeout_ms) ?io_for_shard dir =
  let ( let* ) = Result.bind in
  let expect = check_encoder ~config compress in
  let enqueue_timeout_ns = timeout_ns_of_ms enqueue_timeout_ms in
  let* () =
    match
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
      else if not (Sys.is_directory dir) then
        raise (Sys_error (dir ^ ": not a directory"))
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, fn, _) ->
        Error (E.Io_error (Printf.sprintf "%s: %s: %s" dir fn (Unix.error_message e)))
    | exception Sys_error msg -> Error (E.Io_error msg)
  in
  let* recorded = read_manifest dir in
  let* d =
    match (recorded, shards) with
    | Some d, None -> Ok d
    | Some d, Some requested when d = requested -> Ok d
    | Some d, Some requested ->
        Error
          (E.Io_error
             (Printf.sprintf
                "%s: directory is partitioned into %d shard(s), not %d"
                dir d requested))
    | None, requested ->
        let d = Option.value requested ~default:4 in
        check_geometry ~shards:d ~mailbox;
        let* () = write_manifest dir d in
        Ok d
  in
  check_geometry ~shards:d ~mailbox;
  (* Parallel recovery: one domain per shard, in bounded waves. *)
  let results = Array.make d (Error (E.Io_error "recovery never ran")) in
  let rec waves i =
    if i < d then begin
      let n = min recovery_wave (d - i) in
      let doms =
        Array.init n (fun j ->
            let io = Option.map (fun f -> f (i + j)) io_for_shard in
            Domain.spawn (fun () ->
                Persist.open_or_create ~config ?compress:expect ?io
                  ?sync_every_ops ?sync_every_bytes ?rotate_bytes
                  (shard_dir ~dir (i + j))))
      in
      Array.iteri (fun j dom -> results.(i + j) <- Domain.join dom) doms;
      waves (i + n)
    end
  in
  waves 0;
  let first_error =
    Array.fold_left
      (fun acc r ->
        match (acc, r) with None, Error e -> Some e | _ -> acc)
      None results
  in
  match first_error with
  | Some e ->
      Array.iter
        (function Ok p -> ignore (Persist.close p) | Error _ -> ())
        results;
      Error e
  | None ->
      let handles =
        Array.map
          (function
            | Ok p -> p
            | Error e ->
                (* unreachable: [first_error = None] covers every slot *)
                E.fail e)
          results
      in
      (* adopt the persisted encoder (shard 0's) and insist every shard
         agrees: divergent dictionaries would route and compare
         incoherently across the partition *)
      let enc =
        match expect with Some e -> e | None -> Persist.compress handles.(0)
      in
      let* () =
        if
          Array.for_all
            (fun p -> Compress.equal (Persist.compress p) enc)
            handles
        then Ok ()
        else begin
          Array.iter (fun p -> ignore (Persist.close p)) handles;
          Error
            (E.Corrupt_snapshot
               (dir ^ ": shards disagree about the key-compression dictionary"))
        end
      in
      let tab =
        Array.mapi
          (fun i p ->
            {
              id = i;
              store = Persist.store p;
              persist = Some p;
              mb = mailbox_create mailbox;
              health = Atomic.make None;
              domain = None;
            })
          handles
      in
      let recs =
        Array.to_list
          (Array.mapi
             (fun i p -> { shard = i; recovery = Persist.recovery p })
             handles)
      in
      start_workers tab;
      Ok
        {
          cfg = config;
          enc;
          tab;
          recs;
          knobs =
            {
              k_dir = Some dir;
              k_sync_every_ops = sync_every_ops;
              k_sync_every_bytes = sync_every_bytes;
              k_rotate_bytes = rotate_bytes;
              k_mailbox = mailbox;
              k_io_for_shard = io_for_shard;
            };
          enqueue_timeout_ns;
          qlock = Mutex.create ();
          closed = false;
        }

(* --- blocking operations ---------------------------------------------- *)

let closed_error t = E.Io_error ((if durable t then "durable " else "") ^ "sharded store closed")

type posted = Posted | Refused of E.t | No_room

(* Enqueue with supervision semantics: a dead worker refuses with
   [Shard_down], and a mailbox sealed by a concurrent restart is retried
   against the replacement. *)
let rec post t sh msg =
  match Atomic.get sh.health with
  | Some reason -> Refused (E.Shard_down reason)
  | None -> (
      let mb = sh.mb in
      match try_send mb msg with
      | Sent -> Posted
      | Full -> No_room
      | Mailbox_closed -> (
          match Atomic.get sh.health with
          | Some reason -> Refused (E.Shard_down reason)
          | None ->
              if t.closed then Refused (closed_error t)
              else if sh.mb != mb then post t sh msg
              else Refused (closed_error t)))

let overloaded sh =
  if T.enabled () then T.Counter.incr c_overloads;
  E.Overloaded
    (Printf.sprintf "shard %d mailbox stayed full past the deadline" sh.id)

(* --- non-blocking submission ------------------------------------------ *)

(* A job is a list of parts, submitted in order: messages for a shard
   mailbox, or replies that need no worker (a key rejected at the front
   door, an empty batch). *)
type part = Post of int * msg | Inline of (unit -> unit)

type job = {
  owner : t;
  parts : part array;
  mutable sent : int;  (* parts already queued or answered *)
  mutable full_since : int;  (* ns when a mailbox was first found full; -1 *)
}

let job owner parts = { owner; parts; sent = 0; full_since = -1 }

let submit j =
  let t = j.owner in
  let next () = j.sent <- j.sent + 1 in
  let rec go () =
    if j.sent >= Array.length j.parts then true
    else
      match j.parts.(j.sent) with
      | Inline reply ->
          next ();
          reply ();
          go ()
      | Post (s, msg) -> (
          let sh = t.tab.(s) in
          match post t sh msg with
          | Posted ->
              next ();
              go ()
          | Refused e ->
              next ();
              fail_msg e msg;
              go ()
          | No_room ->
              let now = T.now_ns () in
              if j.full_since < 0 then j.full_since <- now;
              if t.enqueue_timeout_ns > 0
                 && now - j.full_since >= t.enqueue_timeout_ns
              then begin
                next ();
                fail_msg (overloaded sh) msg;
                go ()
              end
              else false)
  in
  go ()

let mut_job t key op k =
  match front_key t.cfg t.enc key with
  | Error e -> job t [| Inline (fun () -> k (Error e)) |]
  | Ok ek -> job t [| Post (shard_of_encoded t ek, Mut (op ek, k)) |]

let unit_reply k = function Ok _ -> k (Ok ()) | Error e -> k (Error e)
let put_job t key v k = mut_job t key (fun ek -> Put (ek, v)) (unit_reply k)
let add_job t key k = mut_job t key (fun ek -> Add ek) (unit_reply k)
let delete_job t key k = mut_job t key (fun ek -> Delete ek) k

(* --- blocking operations ---------------------------------------------- *)

(* The blocking front door: submit, waiting out full mailboxes, then wait
   for the worker's reply. *)
let await make =
  let iv = Ivar.create () in
  let j = make (Ivar.fill iv) in
  retry_with_backoff (fun () -> submit j);
  Ivar.read iv

let put_result t key v = await (put_job t key v)
let add_result t key = await (add_job t key)
let delete_result t key = await (delete_job t key)

let ok_or_raise = function Ok v -> v | Error e -> E.fail e

let put t key v =
  if String.length key = 0 then invalid_arg "Hyperion_shard: empty key";
  ok_or_raise (put_result t key v)

let add t key =
  if String.length key = 0 then invalid_arg "Hyperion_shard: empty key";
  ok_or_raise (add_result t key)

let delete t key =
  if String.length key = 0 then invalid_arg "Hyperion_shard: empty key";
  ok_or_raise (delete_result t key)

let get t key =
  if String.length key = 0 then invalid_arg "Hyperion_shard: empty key";
  let ek = Compress.encode t.enc key in
  H.Store.get t.tab.(shard_of_encoded t ek).store ek

let mem t key =
  if String.length key = 0 then invalid_arg "Hyperion_shard: empty key";
  let ek = Compress.encode t.enc key in
  H.Store.mem t.tab.(shard_of_encoded t ek).store ek

(* --- batched reads ---------------------------------------------------- *)

(* Like [get]/[mem], batched reads use the lock-free direct door: they
   run on the calling domain against each shard's store (which takes its
   own arena locks), never the mailbox — so they serve down shards too.
   Keys are encoded, grouped by owning shard, pushed through the store's
   memory-level-parallel batch path, and scattered back in input order. *)
let encode_batch t keys =
  Array.map
    (fun k ->
      if String.length k = 0 then invalid_arg "Hyperion_shard: empty key";
      Compress.encode t.enc k)
    keys

let read_many t ekeys ~run ~default =
  let n = Array.length ekeys in
  let out = Array.make n default in
  let groups = Array.make (Array.length t.tab) [] in
  for i = n - 1 downto 0 do
    let s = shard_of_encoded t ekeys.(i) in
    groups.(s) <- i :: groups.(s)
  done;
  Array.iteri
    (fun s idxs ->
      if idxs <> [] then begin
        let idxa = Array.of_list idxs in
        let sub = Array.map (fun i -> ekeys.(i)) idxa in
        let r = run t.tab.(s).store sub in
        Array.iteri (fun j i -> out.(i) <- r.(j)) idxa
      end)
    groups;
  out

let get_many ?width t keys =
  read_many t (encode_batch t keys) ~default:None ~run:(fun store sub ->
      H.Store.get_many ?width store sub)

let mem_many ?width t keys =
  read_many t (encode_batch t keys) ~default:false ~run:(fun store sub ->
      H.Store.mem_many ?width store sub)

(* --- batched mutations ------------------------------------------------ *)

module Batch = struct
  type b = {
    owner : t;
    pending : op list array;  (* per shard, newest first *)
    mutable count : int;
  }

  type shard_flush = {
    fr_shard : int;
    fr_ops : int;
    fr_applied : int;
    fr_error : E.t option;
  }

  let create owner =
    {
      owner;
      pending = Array.make (Array.length owner.tab) [];
      count = 0;
    }

  (* keys are encoded at push time so flush routes and applies encoded
     bytes, same as the blocking front door *)
  let push b ekey op =
    let i = shard_of_encoded b.owner ekey in
    b.pending.(i) <- op :: b.pending.(i);
    b.count <- b.count + 1

  let enc_key b key =
    if String.length key = 0 then invalid_arg "Hyperion_shard: empty key";
    Compress.encode b.owner.enc key

  let put b key v =
    let ek = enc_key b key in
    push b ek (Put (ek, v))

  let add b key =
    let ek = enc_key b key in
    push b ek (Add ek)

  let delete b key =
    let ek = enc_key b key in
    push b ek (Delete ek)
  let length b = b.count

  (* One [Batched] part per involved shard, in ascending shard order.
     Each slice's reply fills its own report slot; the last one to land
     hands the whole report to [k]. *)
  let job b k =
    let slices = ref [] in
    for i = Array.length b.pending - 1 downto 0 do
      if b.pending.(i) <> [] then begin
        slices := (i, Array.of_list (List.rev b.pending.(i))) :: !slices;
        b.pending.(i) <- []
      end
    done;
    b.count <- 0;
    match !slices with
    | [] -> job b.owner [| Inline (fun () -> k []) |]
    | slices ->
        let slices = Array.of_list slices in
        let reports =
          Array.map
            (fun (i, ops) ->
              { fr_shard = i; fr_ops = Array.length ops; fr_applied = 0;
                fr_error = None })
            slices
        in
        let left = Atomic.make (Array.length slices) in
        job b.owner
          (Array.mapi
             (fun slot (i, ops) ->
               Post
                 ( i,
                   Batched
                     ( ops,
                       fun (applied, err) ->
                         reports.(slot) <-
                           { (reports.(slot)) with fr_applied = applied;
                             fr_error = err };
                         if Atomic.fetch_and_add left (-1) = 1 then
                           k (Array.to_list reports) ) ))
             slices)

  let flush_report b = await (job b)

  let outcome report =
    match List.find_map (fun r -> r.fr_error) report with
    | Some e -> Error e
    | None -> Ok (List.fold_left (fun acc r -> acc + r.fr_applied) 0 report)

  let flush b = outcome (flush_report b)
end

(* --- quiescence barrier ----------------------------------------------- *)

let with_quiesced t f =
  Mutex.lock t.qlock;
  let stores = Array.map (fun sh -> sh.store) t.tab in
  if t.closed then
    (* workers are gone; the stores are frozen already *)
    Fun.protect ~finally:(fun () -> Mutex.unlock t.qlock) (fun () -> f stores)
  else begin
    let b =
      { bm = Mutex.create (); bc = Condition.create (); arrived = 0; released = false }
    in
    let t0 = if T.enabled () then T.now_ns () else 0 in
    (* dead shards return [Mailbox_closed] and are simply not counted:
       their stores are frozen, which is as quiescent as it gets.  A full
       mailbox is waited out with no deadline — skipping a live shard's
       barrier would break the consistent cut. *)
    let posted =
      Array.fold_left
        (fun n sh ->
          let r = ref Mailbox_closed in
          retry_with_backoff (fun () ->
              r := try_send sh.mb (Quiesce b);
              !r <> Full);
          if !r = Sent then n + 1 else n)
        0 t.tab
    in
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.qlock)
      (fun () ->
        Mutex.lock b.bm;
        while b.arrived < posted do
          Condition.wait b.bc b.bm
        done;
        if T.enabled () then begin
          let d = T.now_ns () - t0 in
          T.Histogram.observe_ns m_quiesce d;
          T.Trace.maybe_record ~kind:"quiesce" ~key_len:(-1) ~dur_ns:d
        end;
        Fun.protect
          ~finally:(fun () ->
            b.released <- true;
            Condition.broadcast b.bc;
            Mutex.unlock b.bm)
          (fun () -> f stores))
  end
[@@lock_wrapper "Hyperion_shard.t.qlock"]

let iter t f =
  with_quiesced t (fun stores ->
      Array.iter
        (fun s -> H.Store.iter s (fun ekey v -> f (decoded t.enc ekey) v))
        stores)

let fold t ~init ~f =
  with_quiesced t (fun stores ->
      Array.fold_left
        (fun acc s ->
          H.Store.fold s ~init:acc ~f:(fun acc ekey v ->
              f acc (decoded t.enc ekey) v))
        init stores)

let length t =
  with_quiesced t (fun stores ->
      Array.fold_left (fun acc s -> acc + H.Store.length s) 0 stores)

let stats t =
  with_quiesced t (fun stores ->
      Array.fold_left
        (fun acc s -> H.Stats.add acc (H.Store.stats s))
        H.Stats.empty stores)

let memory_usage t =
  with_quiesced t (fun stores ->
      Array.fold_left (fun acc s -> acc + H.Store.memory_usage s) 0 stores)

let saturated_arenas t =
  with_quiesced t (fun stores ->
      Array.fold_left (fun acc s -> acc + H.Store.saturated_arenas s) 0 stores)

(* --- supervision ------------------------------------------------------ *)

type shard_health = {
  hs_shard : int;
  hs_alive : bool;
  hs_down : string option;
  hs_degraded : string option;
  hs_backlog : int;
}

let health t =
  Array.to_list
    (Array.map
       (fun sh ->
         let down = Atomic.get sh.health in
         {
           hs_shard = sh.id;
           hs_alive = down = None && not t.closed;
           hs_down = down;
           hs_degraded =
             (match sh.persist with
             | Some p -> Persist.degraded p
             | None -> None);
           hs_backlog = backlog sh.mb;
         })
       t.tab)

let restart_shard t i =
  if i < 0 || i >= Array.length t.tab then
    invalid_arg "Hyperion_shard.restart_shard: shard index out of range";
  Mutex.lock t.qlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.qlock)
    (fun () ->
      if t.closed then Error (closed_error t)
      else
        let sh = t.tab.(i) in
        match Atomic.get sh.health with
        | None ->
            Error
              (E.Io_error
                 (Printf.sprintf "shard %d is healthy; nothing to restart" i))
        | Some _ -> (
            (* the dying worker sealed its mailbox and is exiting (or has
               exited): reap its domain before rebuilding *)
            (match sh.domain with
            | Some d ->
                Domain.join d;
                sh.domain <- None
            | None -> ());
            let respawn () =
              Atomic.set sh.health None;
              sh.domain <- Some (Domain.spawn (worker sh));
              if T.enabled () then T.Counter.incr c_restarts
            in
            match sh.persist with
            | None ->
                (* in-memory shard: nothing to recover from — restart
                   empty (the data died with the worker's store being
                   orphaned; durable stores recover below) *)
                sh.store <- H.Store.create ~config:t.cfg ();
                sh.mb <- mailbox_create t.knobs.k_mailbox;
                respawn ();
                Ok None
            | Some old -> (
                (* drop the old handle's descriptors (its WAL tail may be
                   unsynced — recovery treats it like a crash), then
                   rebuild the shard from its persist dir while siblings
                   keep serving *)
                Persist.crash old;
                let dir =
                  match t.knobs.k_dir with
                  | Some d -> shard_dir ~dir:d i
                  | None -> Persist.dir old
                in
                let io = Option.map (fun f -> f i) t.knobs.k_io_for_shard in
                match
                  Persist.open_or_create ~config:t.cfg ~compress:t.enc ?io
                    ?sync_every_ops:t.knobs.k_sync_every_ops
                    ?sync_every_bytes:t.knobs.k_sync_every_bytes
                    ?rotate_bytes:t.knobs.k_rotate_bytes dir
                with
                | Error _ as e -> e
                | Ok p ->
                    sh.store <- Persist.store p;
                    sh.persist <- Some p;
                    sh.mb <- mailbox_create t.knobs.k_mailbox;
                    respawn ();
                    Ok (Some (Persist.recovery p)))))

(* Test hook: enqueue a message whose handling raises, simulating an
   unexpected worker exception at a drain boundary. *)
let poison t ~shard ~reason =
  if shard < 0 || shard >= Array.length t.tab then
    invalid_arg "Hyperion_shard.poison: shard index out of range";
  let accepted = ref false in
  retry_with_backoff (fun () ->
      match post t t.tab.(shard) (Poison reason) with
      | Posted ->
          accepted := true;
          true
      | Refused _ -> true
      | No_room -> false);
  !accepted

(* --- durability control ----------------------------------------------- *)

let first_error results =
  Array.fold_left
    (fun acc r -> match (acc, r) with None, Error e -> Some e | _ -> acc)
    None results

(* [sync]/[snapshot_now] go straight to the per-shard Persist handles: the
   handle serialises against its worker internally, and a quiescence
   barrier here would only narrow (not close) the race with in-flight
   mutations the caller has not been acknowledged for. *)
let on_handles t f =
  if t.closed then Error (closed_error t)
  else
    let results =
      Array.map
        (fun sh -> match sh.persist with Some p -> f p | None -> Ok ())
        t.tab
    in
    match first_error results with Some e -> Error e | None -> Ok ()

let sync t = on_handles t Persist.sync
let snapshot_now t = on_handles t Persist.snapshot_now
let heal t = on_handles t Persist.heal

let stop_workers t =
  Mutex.lock t.qlock;
  if t.closed then begin
    Mutex.unlock t.qlock;
    false
  end
  else begin
    t.closed <- true;
    Array.iter (fun sh -> shut_down sh.mb) t.tab;
    Array.iter
      (fun sh ->
        match sh.domain with
        | Some d ->
            Domain.join d;
            sh.domain <- None
        | None -> ())
      t.tab;
    Mutex.unlock t.qlock;
    true
  end

let close t =
  if not (stop_workers t) then Ok ()
  else begin
    let results =
      Array.map
        (fun sh ->
          match sh.persist with Some p -> Persist.close p | None -> Ok ())
        t.tab
    in
    match first_error results with Some e -> Error e | None -> Ok ()
  end

let crash t =
  if stop_workers t then
    Array.iter
      (fun sh -> match sh.persist with Some p -> Persist.crash p | None -> ())
      t.tab
