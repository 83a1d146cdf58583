module Crc32 = Crc32
module Frame = Frame
module Io = Io
module Snapshot = Snapshot
module Wal = Wal
module E = Hyperion.Hyperion_error
module T = Telemetry

(* Durability telemetry: group-commit fsync stalls are the dominant tail
   contributor under WAL-logged load, so they get a histogram, not just a
   counter; rotations (snapshot + new WAL + fsyncs) likewise. *)
let m_fsync =
  T.Histogram.make "hyperion_wal_fsync_duration_ns"
    ~help:"WAL fsync (group commit) duration in nanoseconds"

let c_fsync =
  T.Counter.make "hyperion_wal_fsync_total" ~help:"WAL fsyncs issued"

let m_rotate =
  T.Histogram.make "hyperion_wal_rotation_duration_ns"
    ~help:"Generation rotation (snapshot + WAL restart) duration"

let c_rotate =
  T.Counter.make "hyperion_wal_rotation_total" ~help:"Generation rotations"

let c_replayed =
  T.Counter.make "hyperion_wal_replayed_ops_total"
    ~help:"WAL records replayed into stores during recovery"

let c_appended =
  T.Counter.make "hyperion_wal_appended_bytes_total"
    ~help:"Bytes appended to write-ahead logs"

let c_degraded =
  T.Counter.make "hyperion_persist_degraded_transitions_total"
    ~help:"Handles flipped into sticky degraded read-only mode"

let c_healed =
  T.Counter.make "hyperion_persist_healed_total"
    ~help:"Degraded handles re-armed by a successful heal"

let c_rejected =
  T.Counter.make "hyperion_persist_degraded_rejected_ops_total"
    ~help:"Mutations rejected because the handle was degraded"

let snapshot_file ~dir ~gen = Filename.concat dir (Printf.sprintf "snapshot-%08d.hyp" gen)
let wal_file ~dir ~gen = Filename.concat dir (Printf.sprintf "wal-%08d.log" gen)

type recovery = {
  generation : int;
  snapshot_keys : int;
  replayed_ops : int;
  wal_truncated : bool;
  skipped : string list;
}

type t = {
  dir : string;
  cfg : Hyperion.Config.t;
  enc : Compress.t;  (* the encoder this directory's keys are encoded with *)
  store : Hyperion.Store.t;
  io : Io.t;
  sync_every_ops : int;
  sync_every_bytes : int;
  rotate_bytes : int;
  recovery : recovery;
  lock : Mutex.t;
  mutable gen : int; [@guarded_by lock]
  mutable wal : Wal.writer; [@guarded_by lock]
  mutable applied : int; [@guarded_by lock]  (* mutations logged since open *)
  mutable base : int; [@guarded_by lock]
      (* of those, captured by the current snapshot *)
  mutable synced_ops : int; [@guarded_by lock]  (* of (applied - base), fsynced *)
  mutable unsynced_ops : int; [@guarded_by lock]
  mutable unsynced_bytes : int; [@guarded_by lock]
  mutable rotations : int; [@guarded_by lock]
  mutable degraded_why : string option; [@guarded_by lock]
  mutable closed : bool; [@guarded_by lock]
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f
[@@lock_wrapper "Persist.t.lock"]

let store t = t.store
let config t = t.cfg
let compress t = t.enc
let dir t = t.dir
let io t = t.io
let recovery t = t.recovery

(* Stat accessors: single-field reads of lock-protected counters.  Health
   probes and progress reports tolerate staleness, so these read without
   the lock (racy-read entries in lint.allow); anything touching WAL
   writer state still takes it. *)
let generation t = t.gen
let applied_ops t = t.applied
let snapshot_base t = t.base
let durable_ops t = with_lock t (fun () -> t.base + t.synced_ops)
let rotations t = t.rotations
let wal_size t = with_lock t (fun () -> Wal.size t.wal)
let wal_synced_bytes t = with_lock t (fun () -> Wal.synced_bytes t.wal)
let degraded t = t.degraded_why

let ( let* ) = Result.bind

(* --- open / recover ------------------------------------------------- *)

let scan_generations dir =
  (* generations that have a snapshot file, descending; plus stale tmps *)
  let snaps = ref [] and tmps = ref [] in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then
        tmps := Filename.concat dir name :: !tmps
      else
        try Scanf.sscanf name "snapshot-%08d.hyp%!" (fun g -> snaps := g :: !snaps)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
    (Sys.readdir dir);
  (List.sort (fun a b -> compare b a) !snaps, !tmps)

let fresh_generation ~io ~config ~compress ~dir ~gen =
  let store = Hyperion.Store.create ~config () in
  let* _bytes = Snapshot.save ~io ~compress store (snapshot_file ~dir ~gen) in
  let* wal = Wal.create ~io ~compress ~config ~gen (wal_file ~dir ~gen) in
  Ok (store, wal)

(* The WAL tail collector.  [collect] checks one record the way a
   put-replay of it would and keeps its stored key and op in flat
   growable arrays (a hash table per key cost about twice as much in a
   prototype); the second function returns them in log order.  The key
   is checked as given, then as stored.  A delete whose stored key the
   trie cannot hold removes nothing, as [Store.delete_result] does; a key
   pre-processing refuses, which a put-replay raises on instead of
   returning an error, is an [Io_error] naming the record. *)
let tail_collector ~config ~wpath =
  let n = ref 0 and keys = ref [||] and ops = ref [||] in
  let push k op =
    if !n = Array.length !keys then begin
      let cap = max 256 (2 * !n) in
      let keys' = Array.make cap "" and ops' = Array.make cap op in
      Array.blit !keys 0 keys' 0 !n;
      Array.blit !ops 0 ops' 0 !n;
      keys := keys';
      ops := ops'
    end;
    !keys.(!n) <- k;
    !ops.(!n) <- op;
    incr n
  in
  let seen = ref 0 in
  let collect op =
    let (Wal.Put (key, _) | Wal.Add key | Wal.Delete key) = op in
    let record = !seen in
    incr seen;
    match Hyperion.Ops.key_error key with
    | Some e -> Error e
    | None -> (
        match Hyperion.Store.stored_key config key with
        | exception Invalid_argument why ->
            Error
              (E.Io_error
                 (Printf.sprintf "%s: record #%d: %s" wpath record why))
        | k -> (
            match (Hyperion.Ops.key_error k, op) with
            | Some _, Wal.Delete _ -> Ok ()
            | Some e, _ -> Error e
            | None, _ ->
                push k op;
                Ok ()))
  in
  (collect, fun () -> (Array.sub !keys 0 !n, Array.sub !ops 0 !n))

(* Fold the tail into the snapshot's ascending run.  The record indices
   are stable-sorted by key, so each key's records stay in log order and
   fold with [Wal.step] over the key's snapshot binding; keys no record
   touches pass through. *)
let merge (keys, values) (tkeys, tops) =
  let n = Array.length tkeys in
  if n = 0 then (keys, values)
  else begin
    let order = Array.init n Fun.id in
    Array.stable_sort (fun i j -> String.compare tkeys.(i) tkeys.(j)) order;
    let m = Array.length keys in
    let out_k = Array.make (m + n) "" and out_v = Array.make (m + n) None in
    let o = ref 0 and s = ref 0 and r = ref 0 in
    let emit k v =
      out_k.(!o) <- k;
      out_v.(!o) <- v;
      incr o
    in
    while !r < n do
      let k = tkeys.(order.(!r)) in
      while !s < m && String.compare keys.(!s) k < 0 do
        emit keys.(!s) values.(!s);
        incr s
      done;
      let here = !s < m && String.equal keys.(!s) k in
      let state = ref (if here then Some values.(!s) else None) in
      if here then incr s;
      while !r < n && String.equal tkeys.(order.(!r)) k do
        state := Wal.step !state tops.(order.(!r));
        incr r
      done;
      Option.iter (emit k) !state
    done;
    while !s < m do
      emit keys.(!s) values.(!s);
      incr s
    done;
    (Array.sub out_k 0 !o, Array.sub out_v 0 !o)
  end

(* Recovery builds the trie once: the snapshot's sorted run, merged with
   the WAL tail folded to one final binding per key, goes through
   [Store.of_sorted] in one pass instead of one put per log record. *)
let recover_generation ~io ~config ?expect ~dir ~gen () =
  let* keys, values, enc =
    Snapshot.load_sorted ~io ?expect ~config (snapshot_file ~dir ~gen)
  in
  let snapshot_keys = Array.length keys in
  let build (keys, values) = Hyperion.Store.of_sorted ~config keys values in
  let wpath = wal_file ~dir ~gen in
  if not (Sys.file_exists wpath) then
    (* crash between snapshot rename and WAL creation: the snapshot alone
       is the complete durable state *)
    let* store = build (keys, values) in
    let* wal = Wal.create ~io ~compress:enc ~config ~gen wpath in
    Ok (store, enc, wal, snapshot_keys, 0, false)
  else
    let collect, tail = tail_collector ~config ~wpath in
    match Wal.replay ~io ~compress:enc ~config ~gen wpath ~f:collect with
    | Ok r ->
        let* store = build (merge (keys, values) (tail ())) in
        if T.enabled () then T.Counter.add c_replayed r.Wal.records;
        let* wal = Wal.open_append ~io ~config ~gen wpath in
        Ok (store, enc, wal, snapshot_keys, r.Wal.records, r.Wal.truncated)
    | Error (E.Torn_log _) ->
        (* the header never became durable, so no record in this file was
           ever acknowledged: restart it empty *)
        let* store = build (keys, values) in
        let* wal = Wal.create ~io ~compress:enc ~config ~gen wpath in
        Ok (store, enc, wal, snapshot_keys, 0, true)
    | Error _ as e -> e

let open_or_create ?(config = Hyperion.Config.default) ?compress
    ?(io = Io.none) ?(sync_every_ops = 64) ?(sync_every_bytes = 1 lsl 20)
    ?(rotate_bytes = 64 lsl 20) dir =
  if sync_every_ops < 1 then invalid_arg "Persist: sync_every_ops must be >= 1";
  if sync_every_bytes < 1 then
    invalid_arg "Persist: sync_every_bytes must be >= 1";
  if rotate_bytes < Frame.header_size then
    invalid_arg "Persist: rotate_bytes too small";
  (match compress with
  | Some e when Compress.id e <> config.Hyperion.Config.compress ->
      invalid_arg
        (Printf.sprintf
           "Persist: config.compress = %d but the %s encoder was passed"
           config.Hyperion.Config.compress (Compress.name e))
  | _ -> ());
  let make ~gen ~enc ~wal ~store recovery =
    {
      dir;
      cfg = config;
      enc;
      store;
      io;
      sync_every_ops;
      sync_every_bytes;
      rotate_bytes;
      recovery;
      lock = Mutex.create ();
      gen;
      wal;
      applied = 0;
      base = 0;
      synced_ops = 0;
      unsynced_ops = 0;
      unsynced_bytes = 0;
      rotations = 0;
      degraded_why = None;
      closed = false;
    }
  in
  let opened =
    match
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
      else if not (Sys.is_directory dir) then
        raise (Sys_error (dir ^ ": not a directory"))
    with
    | exception e -> Io.error ~path:dir e
    | () -> (
      match scan_generations dir with
      | exception e -> Io.error ~path:dir e
      | [], tmps ->
          List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) tmps;
          let* enc =
            match compress with
            | Some e -> Ok e
            | None ->
                if config.Hyperion.Config.compress = 0 then Ok Compress.Identity
                else
                  (* a dict-encoded tree cannot be conjured from a scheme
                     id alone: the dictionary must come from the caller
                     (fresh) or from the snapshot (existing) *)
                  Error
                    (E.Io_error
                       (dir
                      ^ ": config.compress selects the dict encoder but the \
                         directory is fresh and no dictionary was passed"))
          in
          let* store, wal = fresh_generation ~io ~config ~compress:enc ~dir ~gen:0 in
          Ok
            (make ~gen:0 ~enc ~wal ~store
               {
                 generation = 0;
                 snapshot_keys = 0;
                 replayed_ops = 0;
                 wal_truncated = false;
                 skipped = tmps;
               })
      | gens, tmps ->
          List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) tmps;
          (* latest valid snapshot: fall back across corrupt ones, but a
             version or config mismatch is a real error, not corruption *)
          let rec attempt skipped = function
            | [] -> (
                match skipped with
                | last :: _ ->
                    Error
                      (E.Corrupt_snapshot
                         (Printf.sprintf "no valid snapshot in %s (last: %s)"
                            dir last))
                | [] ->
                    (* unreachable: [attempt] is only entered with at least
                       one generation, so an empty todo list implies a
                       non-empty skipped list *)
                    Error
                      (E.Corrupt_snapshot
                         (Printf.sprintf
                            "no snapshot generations to recover in %s" dir)))
            | gen :: rest -> (
                match recover_generation ~io ~config ?expect:compress ~dir ~gen () with
                | Ok (store, enc, wal, keys, replayed, truncated) ->
                    Ok
                      (make ~gen ~enc ~wal ~store
                         {
                           generation = gen;
                           snapshot_keys = keys;
                           replayed_ops = replayed;
                           wal_truncated = truncated;
                           skipped = List.rev_append skipped tmps;
                         })
                | Error (E.Corrupt_snapshot why) when rest <> [] ->
                    attempt (why :: skipped) rest
                | Error _ as e -> e)
          in
          attempt [] gens)
  in
  (* Post-recovery heap audit: the one sorted build over snapshot and WAL
     tail makes the arenas from scratch, so a bug anywhere in that path
     shows up here as a leaked or double-referenced chunk before the handle
     is ever used (DESIGN.md section 11).  On a fresh directory the store is empty and
     the sweep is effectively free. *)
  Result.bind opened (fun t ->
      match Analyze.Heapcheck.first_problem (Analyze.Heapcheck.audit_store t.store) with
      | None -> Ok t
      | Some p ->
          Error
            (E.Chunk_corrupt
               (Printf.sprintf "heap audit after recovering %s: %s" dir p)))

(* --- logged mutations ----------------------------------------------- *)

(* Flip into sticky degraded read-only mode.  Reads keep serving from the
   in-memory store; every subsequent mutation is rejected with [Degraded]
   until [heal] starts a fresh generation. *)
let note_degraded t why =
  if t.degraded_why = None then begin
    t.degraded_why <- Some why;
    if T.enabled () then T.Counter.incr c_degraded
  end
[@@requires_lock "Persist.t.lock"]

let reject_if_degraded t =
  match t.degraded_why with
  | Some why ->
      if T.enabled () then T.Counter.incr c_rejected;
      Some (E.Degraded why)
  | None -> None
[@@requires_lock "Persist.t.lock"]

let do_sync t =
  let* () =
    if T.enabled () then begin
      T.mark T.Path.wal_fsync;
      let t0 = T.now_ns () in
      let r = Wal.sync t.wal in
      let d = T.now_ns () - t0 in
      T.Histogram.observe_ns m_fsync d;
      T.Counter.incr c_fsync;
      T.Trace.maybe_record ~kind:"fsync" ~key_len:(-1) ~dur_ns:d;
      r
    end
    else Wal.sync t.wal
  in
  t.synced_ops <- t.applied - t.base;
  t.unsynced_ops <- 0;
  t.unsynced_bytes <- 0;
  Ok ()
[@@requires_lock "Persist.t.lock"]

(* Rotate into generation [gen + 1]:
     1. make the old log durable (nothing acknowledged may regress);
     2. write the new snapshot (tmp + rename + dir fsync — atomic);
     3. start the new WAL (header fsynced);
     4. only then drop the old generation's files.
   A crash anywhere leaves either the old or the new generation whole, and
   so does a {e failure} anywhere: step 1 or 2 failing keeps the old
   generation intact; step 3 failing leaves a valid next-generation
   snapshot that recovery accepts via its missing-WAL path. *)
let do_rotate_u t =
  let* () = do_sync t in
  let next = t.gen + 1 in
  let* _bytes =
    Snapshot.save ~io:t.io ~compress:t.enc t.store
      (snapshot_file ~dir:t.dir ~gen:next)
  in
  let* wal =
    Wal.create ~io:t.io ~compress:t.enc ~config:t.cfg ~gen:next
      (wal_file ~dir:t.dir ~gen:next)
  in
  let old_wal = t.wal and old_gen = t.gen in
  t.wal <- wal;
  t.gen <- next;
  t.base <- t.applied;
  t.synced_ops <- 0;
  t.unsynced_ops <- 0;
  t.unsynced_bytes <- 0;
  t.rotations <- t.rotations + 1;
  Wal.abort old_wal;
  (try Sys.remove (wal_file ~dir:t.dir ~gen:old_gen) with Sys_error _ -> ());
  (try Sys.remove (snapshot_file ~dir:t.dir ~gen:old_gen) with Sys_error _ -> ());
  Ok ()
[@@requires_lock "Persist.t.lock"]

let do_rotate t =
  if T.enabled () then begin
    T.mark T.Path.wal_rotation;
    let t0 = T.now_ns () in
    let r = do_rotate_u t in
    let d = T.now_ns () - t0 in
    T.Histogram.observe_ns m_rotate d;
    T.Counter.incr c_rotate;
    T.Trace.maybe_record ~kind:"rotate" ~key_len:(-1) ~dur_ns:d;
    r
  end
  else do_rotate_u t
[@@requires_lock "Persist.t.lock"]

(* The append-first logged-mutation protocol:
     1. the caller validated the key — nothing invalid may enter the log;
     2. append the record.  Failure degrades the handle: the tail may hold
        a torn partial record (replay truncates it on recovery) and the
        store was never touched, so log and store still agree;
     3. apply to the in-memory store;
     4. if the store rejects the mutation, truncate the record back off
        (compensation) — log and store stay identical and the handle stays
        healthy, because the disk did nothing wrong;
     5. group commit / rotate per policy.  Their failure degrades the
        handle but the op itself is acknowledged: the record is in the
        log, exactly the same ack-before-fsync window every group-commit
        scheme has.
   No prior-state capture, no undo of the store, and — crucially — never
   an applied mutation whose record is missing from the log, nor a logged
   record whose mutation was rolled back (either would let recovery
   diverge from the acknowledged history). *)
let log_then_apply t op ~apply =
  let pre = Wal.size t.wal in
  match Wal.append t.wal op with
  | Error e ->
      note_degraded t (E.to_string e);
      Error (E.Degraded (E.to_string e))
  | Ok bytes -> (
      match apply () with
      | Error e -> (
          match Wal.truncate_writer t.wal ~len:pre with
          | Ok () -> Error e
          | Error te ->
              note_degraded t
                (Printf.sprintf "%s (while compensating for: %s)"
                   (E.to_string te) (E.to_string e));
              Error e)
      | Ok result ->
          if T.enabled () then T.Counter.add c_appended bytes;
          t.applied <- t.applied + 1;
          t.unsynced_ops <- t.unsynced_ops + 1;
          t.unsynced_bytes <- t.unsynced_bytes + bytes;
          let after =
            let* () =
              if
                t.unsynced_ops >= t.sync_every_ops
                || t.unsynced_bytes >= t.sync_every_bytes
              then do_sync t
              else Ok ()
            in
            if Wal.size t.wal >= t.rotate_bytes then do_rotate t else Ok ()
          in
          (match after with
          | Ok () -> ()
          | Error e -> note_degraded t (E.to_string e));
          Ok result)
[@@requires_lock "Persist.t.lock"]

let guard t f =
  with_lock t (fun () ->
      if t.closed then Error (E.Io_error (t.dir ^ ": persist handle closed"))
      else f ())
[@@lock_wrapper "Persist.t.lock"]

let guard_mut t f =
  guard t (fun () ->
      match reject_if_degraded t with Some e -> Error e | None -> f ())
[@@lock_wrapper "Persist.t.lock"]

let put t key v =
  guard_mut t (fun () ->
      match Hyperion.Store.key_error t.cfg key with
      | Some e -> Error e
      | None ->
          log_then_apply t (Wal.Put (key, v)) ~apply:(fun () ->
              Hyperion.Store.put_result t.store key v))

let add t key =
  guard_mut t (fun () ->
      match Hyperion.Store.key_error t.cfg key with
      | Some e -> Error e
      | None ->
          log_then_apply t (Wal.Add key) ~apply:(fun () ->
              Hyperion.Store.add_result t.store key))

let delete t key =
  guard_mut t (fun () ->
      match Hyperion.Store.key_error t.cfg key with
      | Some e -> Error e
      | None ->
          (* append-first needs to know up front whether the delete will
             remove anything: absent keys are neither logged nor applied,
             keeping the one-record-per-acknowledged-mutation invariant *)
          if not (Hyperion.Store.mem t.store key) then Ok false
          else
            log_then_apply t (Wal.Delete key) ~apply:(fun () ->
                Hyperion.Store.delete_result t.store key))

let sync t =
  guard_mut t (fun () ->
      match do_sync t with
      | Ok () -> Ok ()
      | Error e ->
          note_degraded t (E.to_string e);
          Error (E.Degraded (E.to_string e)))

let snapshot_now t =
  guard_mut t (fun () ->
      match do_rotate t with
      | Ok () -> Ok ()
      | Error e ->
          note_degraded t (E.to_string e);
          Error (E.Degraded (E.to_string e)))

(* Re-arm a degraded handle: snapshot the live store — it is the
   authoritative state; the old WAL may be torn or incomplete — into a
   fresh generation, open a new WAL, and only then drop the old files.
   Failure (the disk is still bad) leaves the handle degraded; [heal] can
   simply be retried. *)
let heal t =
  with_lock t (fun () ->
      if t.closed then Error (E.Io_error (t.dir ^ ": persist handle closed"))
      else
        match t.degraded_why with
        | None -> Ok ()
        | Some _ ->
            let next = t.gen + 1 in
            let* _bytes =
              Snapshot.save ~io:t.io ~compress:t.enc t.store
                (snapshot_file ~dir:t.dir ~gen:next)
            in
            let* wal =
              Wal.create ~io:t.io ~compress:t.enc ~config:t.cfg ~gen:next
                (wal_file ~dir:t.dir ~gen:next)
            in
            let old_wal = t.wal and old_gen = t.gen in
            t.wal <- wal;
            t.gen <- next;
            t.base <- t.applied;
            t.synced_ops <- 0;
            t.unsynced_ops <- 0;
            t.unsynced_bytes <- 0;
            t.rotations <- t.rotations + 1;
            t.degraded_why <- None;
            Wal.abort old_wal;
            (try Sys.remove (wal_file ~dir:t.dir ~gen:old_gen)
             with Sys_error _ -> ());
            (try Sys.remove (snapshot_file ~dir:t.dir ~gen:old_gen)
             with Sys_error _ -> ());
            if T.enabled () then T.Counter.incr c_healed;
            Ok ())

let close t =
  with_lock t (fun () ->
      if t.closed then Ok ()
      else begin
        t.closed <- true;
        match t.degraded_why with
        | Some _ ->
            (* durability is already known-compromised; a final sync could
               only block on the failing device — just release *)
            Wal.abort t.wal;
            Ok ()
        | None -> Wal.close t.wal
      end)

let crash t =
  with_lock t (fun () ->
      t.closed <- true;
      Wal.abort t.wal)

(* --- one-shot snapshot I/O ------------------------------------------ *)

let save_snapshot ?io ?compress store path = Snapshot.save ?io ?compress store path

let load_snapshot ?config ?expect path =
  match config with
  | Some config -> Snapshot.load ?expect ~config path
  | None -> (
      (* infer the config family from the recorded preprocess flag and
         encoder; the (encoder-mixed) fingerprint still has to match, so
         only snapshots written with stock configs load without an
         explicit one *)
      match Snapshot.probe path with
      | Error _ as e -> e
      | Ok (h, enc) ->
          let stock =
            [
              Hyperion.Config.default;
              Hyperion.Config.strings;
              { Hyperion.Config.default with preprocess = true };
              { Hyperion.Config.strings with preprocess = true };
              { Hyperion.Config.strings with chunks_per_bin = 64 };
            ]
          in
          let candidates =
            List.map
              (fun c -> { c with Hyperion.Config.compress = h.Snapshot.encoder })
              stock
          in
          let matching =
            List.find_opt
              (fun c ->
                Compress.mix_fingerprint (Hyperion.Config.fingerprint c) enc
                = h.Snapshot.fingerprint)
              candidates
          in
          let config =
            Option.value matching
              ~default:
                {
                  (if h.Snapshot.preprocess then
                     { Hyperion.Config.default with preprocess = true }
                   else Hyperion.Config.default)
                  with
                  compress = h.Snapshot.encoder;
                }
          in
          Snapshot.load ?expect ~config path)
