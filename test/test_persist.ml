(* Durability layer: snapshot round-trips (bindings, length, type-10 keys,
   ordered-iteration determinism as a property), typed error surfacing
   (Corrupt_snapshot / Version_mismatch / Torn_log — never exceptions),
   WAL group commit and torn-tail truncation, snapshot rotation, and the
   crash-recovery chaos acceptance sweep. *)

module H = Hyperion
module S = H.Store
module E = H.Hyperion_error

let cfg = { H.Config.strings with chunks_per_bin = 64 }
let cfg_pre = { cfg with preprocess = true }

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hyperion_persist_test_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    d

let fresh_file () = Filename.temp_file "hyperion_snapshot" ".hyp"

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (E.to_string e)

let dump store =
  let acc = ref [] in
  S.iter store (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

(* --- snapshot round-trip -------------------------------------------- *)

let test_snapshot_roundtrip () =
  let s = S.create ~config:cfg () in
  for i = 0 to 4999 do
    S.put s (Printf.sprintf "key/%05d" i) (Int64.of_int (i * 7))
  done;
  (* value-less (type-10) keys must survive exactly *)
  S.add s "member/alpha";
  S.add s "member/beta";
  ignore (S.delete s "key/00042");
  let path = fresh_file () in
  let bytes = ok "save" (Persist.save_snapshot s path) in
  Alcotest.(check bool) "snapshot non-trivial" true (bytes > 32);
  let s2, _enc = ok "load" (Persist.Snapshot.load ~config:cfg path) in
  Alcotest.(check int) "length preserved" (S.length s) (S.length s2);
  Alcotest.(check bool) "bindings preserved" true (dump s = dump s2);
  Alcotest.(check (option int64)) "valueless stays valueless" None
    (S.get s2 "member/alpha");
  Alcotest.(check bool) "valueless stays member" true (S.mem s2 "member/alpha");
  Alcotest.(check (option int64)) "deleted stays deleted" None
    (S.get s2 "key/00042");
  Sys.remove path

let test_snapshot_empty_store () =
  let s = S.create ~config:cfg () in
  let path = fresh_file () in
  ignore (ok "save" (Persist.save_snapshot s path));
  let s2, _enc = ok "load" (Persist.Snapshot.load ~config:cfg path) in
  Alcotest.(check int) "empty round-trip" 0 (S.length s2);
  Sys.remove path

(* --- typed error surfacing ------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let expect_error what result pred =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected a typed error, got Ok" what
  | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: unexpected error %s" what (E.to_string e)

let make_snapshot () =
  let s = S.create ~config:cfg () in
  for i = 0 to 99 do
    S.put s (Printf.sprintf "k%03d" i) (Int64.of_int i)
  done;
  let path = fresh_file () in
  ignore (ok "save" (Persist.save_snapshot s path));
  path

let test_corrupt_snapshot_typed () =
  let path = make_snapshot () in
  let body = read_file path in
  (* flip one byte inside the record region *)
  let b = Bytes.of_string body in
  let off = Persist.Frame.header_size + 10 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  write_file path (Bytes.to_string b);
  expect_error "bit flip" (Persist.Snapshot.load ~config:cfg path) (function
    | E.Corrupt_snapshot _ -> true
    | _ -> false);
  (* truncation mid-record *)
  write_file path (String.sub body 0 (String.length body - 3));
  expect_error "truncated" (Persist.Snapshot.load ~config:cfg path) (function
    | E.Corrupt_snapshot _ -> true
    | _ -> false);
  (* garbage magic *)
  write_file path ("XXXXXXXX" ^ String.sub body 8 (String.length body - 8));
  expect_error "bad magic" (Persist.Snapshot.load ~config:cfg path) (function
    | E.Corrupt_snapshot _ -> true
    | _ -> false);
  Sys.remove path

let test_version_mismatch_typed () =
  let path = make_snapshot () in
  let b = Bytes.of_string (read_file path) in
  (* a future format version, with the header CRC recomputed so only the
     version check can fail *)
  Bytes.set_uint16_le b 8 99;
  Bytes.set_int32_le b 28 (Persist.Crc32.bytes b ~pos:0 ~len:28);
  write_file path (Bytes.to_string b);
  expect_error "future version" (Persist.Snapshot.load ~config:cfg path)
    (function
      | E.Version_mismatch { found = 99; expected = 2 } -> true
      | _ -> false);
  Sys.remove path

let test_fingerprint_mismatch_typed () =
  let path = make_snapshot () in
  expect_error "other config"
    (Persist.Snapshot.load ~config:{ cfg with split_a = 8192 } path)
    (function
      | E.Corrupt_snapshot msg ->
          Alcotest.(check bool) "names the fingerprint" true
            (String.length msg > 0);
          true
      | _ -> false);
  Sys.remove path

let test_open_or_create_never_raises_on_garbage () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  write_file (Persist.snapshot_file ~dir ~gen:3) "total garbage, not a snapshot";
  expect_error "garbage-only dir" (Persist.open_or_create ~config:cfg dir)
    (function E.Corrupt_snapshot _ -> true | _ -> false)

(* --- WAL: group commit, replay, torn tail --------------------------- *)

let test_wal_replay_and_counters () =
  let dir = fresh_dir () in
  let p = ok "open" (Persist.open_or_create ~config:cfg ~sync_every_ops:8 dir) in
  for i = 0 to 99 do
    ok "put" (Persist.put p (Printf.sprintf "w%03d" i) (Int64.of_int i))
  done;
  ok "add" (Persist.add p "wal/member");
  Alcotest.(check bool) "delete logged" true (ok "del" (Persist.delete p "w050"));
  Alcotest.(check bool) "no-op delete not logged" false
    (ok "del2" (Persist.delete p "nonexistent"));
  Alcotest.(check int) "applied counts logged ops" 102 (Persist.applied_ops p);
  Alcotest.(check bool) "group commit lags" true
    (Persist.durable_ops p <= Persist.applied_ops p);
  ok "sync" (Persist.sync p);
  Alcotest.(check int) "sync catches up" 102 (Persist.durable_ops p);
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  let r = Persist.recovery p2 in
  Alcotest.(check int) "all ops replayed" 102 r.Persist.replayed_ops;
  Alcotest.(check bool) "clean tail" false r.Persist.wal_truncated;
  let s = Persist.store p2 in
  Alcotest.(check int) "length" 100 (S.length s);
  Alcotest.(check (option int64)) "value survives" (Some 7L) (S.get s "w007");
  Alcotest.(check bool) "member survives" true (S.mem s "wal/member");
  Alcotest.(check bool) "delete survives" false (S.mem s "w050");
  ok "close2" (Persist.close p2)

let test_wal_torn_tail_truncated () =
  let dir = fresh_dir () in
  (* 20 ops at a group size of 7: the last commit lands at op 14, leaving a
     6-op unsynced tail to tear *)
  let p = ok "open" (Persist.open_or_create ~config:cfg ~sync_every_ops:7 dir) in
  for i = 0 to 19 do
    ok "put" (Persist.put p (Printf.sprintf "t%02d" i) (Int64.of_int i))
  done;
  let durable = Persist.durable_ops p in
  let watermark = Persist.wal_synced_bytes p in
  let size = Persist.wal_size p in
  let gen = Persist.generation p in
  Persist.crash p;
  (* tear mid-record, strictly past the durable watermark *)
  Alcotest.(check bool) "something unsynced to tear" true (size > watermark);
  Unix.truncate (Persist.wal_file ~dir ~gen) (watermark + 3);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  let r = Persist.recovery p2 in
  Alcotest.(check bool) "tear detected" true r.Persist.wal_truncated;
  Alcotest.(check int) "exactly the durable prefix survives" durable
    r.Persist.replayed_ops;
  Alcotest.(check int) "store matches prefix" durable
    (S.length (Persist.store p2));
  (* the truncated log must accept appends again *)
  ok "put after recovery" (Persist.put p2 "post" 1L);
  ok "close" (Persist.close p2);
  let p3 = ok "reopen2" (Persist.open_or_create ~config:cfg dir) in
  Alcotest.(check (option int64)) "append after tear survives" (Some 1L)
    (S.get (Persist.store p3) "post");
  ok "close3" (Persist.close p3)

let test_rotation () =
  let dir = fresh_dir () in
  let p =
    ok "open"
      (Persist.open_or_create ~config:cfg ~sync_every_ops:16 ~rotate_bytes:2048
         dir)
  in
  for i = 0 to 499 do
    ok "put" (Persist.put p (Printf.sprintf "r%04d" i) (Int64.of_int i))
  done;
  Alcotest.(check bool) "rotations happened" true (Persist.rotations p > 0);
  let gen = Persist.generation p in
  Alcotest.(check bool) "generation advanced" true (gen > 0);
  (* old generations are gone *)
  Alcotest.(check bool) "old snapshot removed" false
    (Sys.file_exists (Persist.snapshot_file ~dir ~gen:(gen - 1)));
  Alcotest.(check bool) "old wal removed" false
    (Sys.file_exists (Persist.wal_file ~dir ~gen:(gen - 1)));
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  Alcotest.(check int) "all keys recovered across rotations" 500
    (S.length (Persist.store p2));
  Alcotest.(check int) "recovered from latest generation" gen
    (Persist.recovery p2).Persist.generation;
  ok "close2" (Persist.close p2)

let test_snapshot_now () =
  let dir = fresh_dir () in
  let p = ok "open" (Persist.open_or_create ~config:cfg dir) in
  ok "put" (Persist.put p "a" 1L);
  ok "rotate" (Persist.snapshot_now p);
  Alcotest.(check int) "wal empty after rotation" (Persist.wal_synced_bytes p)
    Persist.Frame.header_size;
  ok "put2" (Persist.put p "b" 2L);
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  let r = Persist.recovery p2 in
  Alcotest.(check int) "snapshot carries pre-rotation ops" 1
    r.Persist.snapshot_keys;
  Alcotest.(check int) "wal carries post-rotation ops" 1 r.Persist.replayed_ops;
  ok "close2" (Persist.close p2)

(* --- ordered-iteration determinism across a round-trip -------------- *)

let sequences store =
  let via_iter = ref [] in
  S.iter store (fun k v -> via_iter := (k, v) :: !via_iter);
  let via_fold =
    S.fold store ~init:[] ~f:(fun acc k v -> (k, v) :: acc)
  in
  let via_prefix = ref [] in
  S.prefix_iter store ~prefix:"" (fun k v ->
      via_prefix := (k, v) :: !via_prefix;
      true);
  (List.rev !via_iter, List.rev via_fold, List.rev !via_prefix)

let roundtrip_prop config keys =
  (* bounded, deduplicated by the store itself; values keyed off the index *)
  let store = S.create ~config () in
  List.iteri
    (fun i k ->
      if i mod 7 = 3 then S.add store k else S.put store k (Int64.of_int i))
    keys;
  let before = sequences store in
  let path = fresh_file () in
  let reloaded =
    match Persist.save_snapshot store path with
    | Error e -> Alcotest.failf "save: %s" (E.to_string e)
    | Ok _ -> (
        match Persist.Snapshot.load ~config path with
        | Error e -> Alcotest.failf "load: %s" (E.to_string e)
        | Ok (s, _enc) -> s)
  in
  Sys.remove path;
  let after = sequences reloaded in
  let b1, b2, b3 = before and a1, a2, a3 = after in
  b1 = b2 && b2 = b3 && a1 = a2 && a2 = a3 && b1 = a1
  && S.length store = S.length reloaded

let key_gen =
  (* 4..20 printable bytes: valid for both plain and preprocess configs *)
  QCheck.Gen.(
    string_size (int_range 4 20)
      ~gen:(map Char.chr (int_range 33 126)))

let prop_roundtrip_strings =
  QCheck.Test.make ~name:"iter/fold/prefix_iter identical across round-trip"
    ~count:30
    QCheck.(list_of_size (Gen.int_range 0 400) (make key_gen))
    (fun keys -> roundtrip_prop cfg keys)

let prop_roundtrip_preprocess =
  QCheck.Test.make
    ~name:"iter/fold/prefix_iter identical across round-trip (preprocess)"
    ~count:30
    QCheck.(list_of_size (Gen.int_range 0 400) (make key_gen))
    (fun keys -> roundtrip_prop cfg_pre keys)

(* --- disk faults: degraded read-only mode and heal ------------------- *)

module Io = Persist.Io

let fast_io () = Persist.Io.make ~max_retries:2 ~backoff_s:1e-6 ()

let test_write_failure_degrades_sticky () =
  let dir = fresh_dir () in
  let io = fast_io () in
  let p = ok "open" (Persist.open_or_create ~config:cfg ~io dir) in
  ok "put" (Persist.put p "alive" 1L);
  Io.set_plan io (Fault.always [ Fault.Io_write_eio ]);
  (* the append fails after exhausting retries: typed Degraded, store
     untouched *)
  expect_error "put under EIO" (Persist.put p "casualty" 2L) (function
    | E.Degraded _ -> true
    | _ -> false);
  Alcotest.(check bool) "handle reports degraded" true
    (Persist.degraded p <> None);
  Alcotest.(check bool) "failed mutation not applied" false
    (S.mem (Persist.store p) "casualty");
  (* sticky: the device recovering by itself is not enough *)
  Io.disarm io;
  expect_error "still degraded after disarm" (Persist.put p "casualty" 2L)
    (function E.Degraded _ -> true | _ -> false);
  (* reads keep serving *)
  Alcotest.(check (option int64)) "reads serve while degraded" (Some 1L)
    (S.get (Persist.store p) "alive");
  (* heal re-arms writes in a fresh generation *)
  let gen = Persist.generation p in
  ok "heal" (Persist.heal p);
  Alcotest.(check (option string)) "healed" None (Persist.degraded p);
  Alcotest.(check bool) "heal bumps the generation" true
    (Persist.generation p > gen);
  ok "put after heal" (Persist.put p "recovered" 3L);
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  let s = Persist.store p2 in
  Alcotest.(check (option int64)) "pre-fault op survives" (Some 1L)
    (S.get s "alive");
  Alcotest.(check (option int64)) "post-heal op survives" (Some 3L)
    (S.get s "recovered");
  Alcotest.(check bool) "failed op never persisted" false (S.mem s "casualty");
  ok "close2" (Persist.close p2)

let test_fsync_failure_acks_but_degrades () =
  let dir = fresh_dir () in
  let io = fast_io () in
  let p =
    ok "open" (Persist.open_or_create ~config:cfg ~io ~sync_every_ops:1 dir)
  in
  Io.set_plan io (Fault.always [ Fault.Io_fsync ]);
  (* the record is in the log before the group commit fails, so the
     mutation is acknowledged; what is lost is the durability promise *)
  ok "put acked despite failed fsync" (Persist.put p "acked" 1L);
  Alcotest.(check bool) "fsync failure degrades" true
    (Persist.degraded p <> None);
  Alcotest.(check (option int64)) "acked op applied" (Some 1L)
    (S.get (Persist.store p) "acked");
  Io.disarm io;
  ok "heal" (Persist.heal p);
  ok "put after heal" (Persist.put p "later" 2L);
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  Alcotest.(check (option int64)) "acked op survives via heal snapshot"
    (Some 1L)
    (S.get (Persist.store p2) "acked");
  Alcotest.(check (option int64)) "post-heal op survives" (Some 2L)
    (S.get (Persist.store p2) "later");
  ok "close2" (Persist.close p2)

let test_store_reject_compensates_wal () =
  let dir = fresh_dir () in
  let p = ok "open" (Persist.open_or_create ~config:cfg dir) in
  ok "put" (Persist.put p "good" 1L);
  (* a store-side failure (allocation) after the append must truncate the
     record back off the log — and must NOT degrade the handle, the
     storage is fine *)
  S.set_fault_plan (Persist.store p) (Fault.always [ Fault.Alloc_fail ]);
  expect_error "store rejects" (Persist.put p "rejected" 2L) (function
    | E.Degraded _ -> false
    | _ -> true);
  Alcotest.(check (option string)) "store failure does not degrade" None
    (Persist.degraded p);
  S.set_fault_plan (Persist.store p) Fault.none;
  ok "put after clear" (Persist.put p "alsogood" 3L);
  Alcotest.(check int) "only applied mutations logged" 2
    (Persist.applied_ops p);
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  let s = Persist.store p2 in
  Alcotest.(check int) "exactly the acked ops replayed" 2
    (Persist.recovery p2).Persist.replayed_ops;
  Alcotest.(check bool) "rejected op not replayed" false (S.mem s "rejected");
  Alcotest.(check (option int64)) "acked ops replayed" (Some 3L)
    (S.get s "alsogood");
  ok "close2" (Persist.close p2)

(* --- recovery by one merge = recovery by put-replay ------------------- *)

module Wal = Persist.Wal

(* The three directory flavours the merge must agree with put-replay on:
   plain keys, pre-processed keys, and dict-encoded keys. *)
let dict_enc =
  Compress.Dict (Compress.train (Seq.init 200 (Printf.sprintf "key-%d/x")))

let flavours =
  [|
    ("plain", cfg, Compress.Identity);
    ("preprocess", cfg_pre, Compress.Identity);
    ("dict", { cfg with compress = 1 }, dict_enc);
  |]

(* Pool keys 0..19 may be in the snapshot; 20..31 appear only in the log.
   Every key is at least 4 bytes, as pre-processing needs. *)
let pool_key i = Printf.sprintf "key%02d%s" i (String.make (i mod 5) 'q')

type merge_case = {
  flavour : int;
  snap : (int * int64 option) list;  (** bindings put into the snapshot *)
  log : Wal.op list;  (** raw keys; encoded when written *)
  torn : bool;  (** one more record, cut short *)
}

let print_op = function
  | Wal.Put (k, v) -> Printf.sprintf "put %s %Ld" k v
  | Wal.Add k -> "add " ^ k
  | Wal.Delete k -> "del " ^ k

let print_merge_case c =
  Printf.sprintf "%s snap=[%s] log=[%s]%s"
    (let n, _, _ = flavours.(c.flavour) in
     n)
    (String.concat "; "
       (List.map
          (fun (i, v) ->
            Printf.sprintf "%s=%s" (pool_key i)
              (match v with Some v -> Int64.to_string v | None -> "-"))
          c.snap))
    (String.concat "; " (List.map print_op c.log))
    (if c.torn then " torn" else "")

let gen_merge_case =
  QCheck.Gen.(
    let value = map Int64.of_int (int_bound 99) in
    let op =
      map3
        (fun kind i v ->
          let k = pool_key i in
          match kind with
          | 0 | 1 -> Wal.Put (k, v)
          | 2 -> Wal.Add k
          | _ -> Wal.Delete k)
        (int_bound 3) (int_bound 31) value
    in
    map
      (fun (flavour, snap, log, torn) -> { flavour; snap; log; torn })
      (quad (int_bound 2)
         (list_size (int_bound 20) (pair (int_bound 19) (opt value)))
         (list_size (int_bound 40) op)
         bool))

let copy_file src dst = write_file dst (read_file src)

let rekey enc = function
  | Wal.Put (k, v) -> Wal.Put (Compress.encode enc k, v)
  | Wal.Add k -> Wal.Add (Compress.encode enc k)
  | Wal.Delete k -> Wal.Delete (Compress.encode enc k)

(* Write generation 0 of [c] into a fresh directory by hand, so the log can
   hold what the logged API never writes (a delete of an absent key). *)
let write_case c =
  let _, config, enc = flavours.(c.flavour) in
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let store = S.create ~config () in
  List.iter
    (fun (i, v) ->
      let k = Compress.encode enc (pool_key i) in
      match v with Some v -> S.put store k v | None -> S.add store k)
    c.snap;
  ignore (ok "save" (Persist.save_snapshot ~compress:enc store
                       (Persist.snapshot_file ~dir ~gen:0)));
  let wpath = Persist.wal_file ~dir ~gen:0 in
  let w = ok "wal" (Wal.create ~compress:enc ~config ~gen:0 wpath) in
  List.iter (fun op -> ignore (ok "append" (Wal.append w (rekey enc op)))) c.log;
  let torn_bytes =
    if c.torn then ok "append" (Wal.append w (rekey enc (Wal.Put (pool_key 0, 7L))))
    else 0
  in
  ok "wal close" (Wal.close w);
  if c.torn then
    Unix.truncate wpath ((Unix.stat wpath).Unix.st_size - (torn_bytes / 2));
  dir

(* The put-replay oracle: load the snapshot, then one typed mutation per
   log record in log order, on a copy of the files (replay truncates). *)
let put_replay c dir =
  let _, config, enc = flavours.(c.flavour) in
  let copy = fresh_dir () in
  Unix.mkdir copy 0o755;
  let snap = Persist.snapshot_file ~dir:copy ~gen:0
  and wal = Persist.wal_file ~dir:copy ~gen:0 in
  copy_file (Persist.snapshot_file ~dir ~gen:0) snap;
  copy_file (Persist.wal_file ~dir ~gen:0) wal;
  let store, _ = ok "oracle load" (Persist.Snapshot.load ~config snap) in
  let snapshot_keys = S.length store in
  let r =
    Wal.replay ~compress:enc ~config ~gen:0 wal ~f:(function
      | Wal.Put (k, v) -> S.put_result store k v
      | Wal.Add k -> S.add_result store k
      | Wal.Delete k -> Result.map ignore (S.delete_result store k))
  in
  Sys.remove snap;
  Sys.remove wal;
  Unix.rmdir copy;
  Result.map (fun r -> (store, snapshot_keys, r)) r

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* [Ok ()] when merge recovery and put-replay agree on the bindings, the
   length and every field of the recovery record; [Error why] otherwise. *)
let merge_agrees c =
  let _, config, enc = flavours.(c.flavour) in
  let dir = write_case c in
  let oracle = put_replay c dir in
  let merged = Persist.open_or_create ~config ~compress:enc dir in
  let verdict =
    match (oracle, merged) with
    | Error e, _ -> Error ("oracle failed: " ^ E.to_string e)
    | _, Error e -> Error ("merge failed: " ^ E.to_string e)
    | Ok (store, snapshot_keys, r), Ok p ->
        let rc = Persist.recovery p in
        let m = Persist.store p in
        let v =
          if dump m <> dump store then Error "bindings differ"
          else if S.length m <> S.length store then
            Error (Printf.sprintf "length %d vs %d" (S.length m) (S.length store))
          else if
            rc
            <> {
                 Persist.generation = 0;
                 snapshot_keys;
                 replayed_ops = r.Wal.records;
                 wal_truncated = r.Wal.truncated;
                 skipped = [];
               }
          then
            Error
              (Printf.sprintf "recovery record: %d keys, %d ops, truncated %b"
                 rc.Persist.snapshot_keys rc.Persist.replayed_ops
                 rc.Persist.wal_truncated)
          else if r.Wal.truncated <> c.torn then Error "torn frame not seen"
          else Ok ()
        in
        ok "close" (Persist.close p);
        v
  in
  remove_dir dir;
  verdict

let prop_merge_equals_replay =
  QCheck.Test.make ~count:120 ~name:"merge recovery = put-replay recovery"
    (QCheck.make ~print:print_merge_case gen_merge_case) (fun c ->
      match merge_agrees c with
      | Ok () -> true
      | Error why -> QCheck.Test.fail_report why)

(* Every case the fold must get right, in one log, in every flavour. *)
let test_merge_fixed_cases () =
  let k = pool_key in
  let case flavour =
    {
      flavour;
      snap = [ (0, Some 1L); (1, Some 2L); (2, None); (3, Some 4L) ];
      log =
        [
          Wal.Delete (k 0); Wal.Add (k 0);  (* add after delete: no value *)
          Wal.Add (k 1);  (* add over a valued snapshot key keeps it *)
          Wal.Add (k 2);  (* add over a value-less member *)
          Wal.Delete (k 25);  (* delete of an absent key *)
          Wal.Put (k 3, 5L); Wal.Put (k 3, 6L); Wal.Put (k 3, 7L);
          Wal.Put (k 20, 8L); Wal.Add (k 21);  (* keys only in the log *)
          Wal.Add (k 22); Wal.Put (k 22, 9L); Wal.Delete (k 22);
          Wal.Add (k 22);
        ];
      torn = true;
    }
  in
  for f = 0 to Array.length flavours - 1 do
    match merge_agrees (case f) with
    | Ok () -> ()
    | Error why -> Alcotest.failf "%s: %s" (print_merge_case (case f)) why
  done

(* A logged key the trie cannot hold fails recovery with the same typed
   error a put of it returns, and never raises. *)
let test_merge_typed_key_errors () =
  let recover_with config log =
    let dir = fresh_dir () in
    Unix.mkdir dir 0o755;
    ignore (ok "save" (Persist.save_snapshot (S.create ~config ())
                         (Persist.snapshot_file ~dir ~gen:0)));
    let w = ok "wal" (Wal.create ~config ~gen:0 (Persist.wal_file ~dir ~gen:0)) in
    List.iter (fun op -> ignore (ok "append" (Wal.append w op))) log;
    ok "wal close" (Wal.close w);
    let r = Persist.open_or_create ~config dir in
    (match r with Ok p -> ok "close" (Persist.close p) | Error _ -> ());
    remove_dir dir;
    r
  in
  let cap = String.make (1 lsl 20) 'c' in
  let over = cap ^ "c" in
  expect_error "over-long key" (recover_with cfg [ Wal.Put (over, 1L) ])
    (function E.Key_too_long n -> n = (1 lsl 20) + 1 | _ -> false);
  (* pre-processing adds a byte: the stored key is over the cap *)
  expect_error "over-long stored key"
    (recover_with cfg_pre [ Wal.Put ("keep", 1L); Wal.Add cap ])
    (function E.Key_too_long n -> n = (1 lsl 20) + 1 | _ -> false);
  expect_error "key pre-processing rejects"
    (recover_with cfg_pre [ Wal.Put ("ab", 1L) ])
    (function E.Io_error _ -> true | _ -> false);
  (* a delete of a key the trie cannot hold removes nothing *)
  match recover_with cfg_pre [ Wal.Put ("keep", 1L); Wal.Delete cap ] with
  | Error e -> Alcotest.failf "delete of an over-long key: %s" (E.to_string e)
  | Ok p ->
      Alcotest.(check int) "both records counted" 2
        (Persist.recovery p).Persist.replayed_ops;
      Alcotest.(check (option int64)) "other key kept" (Some 1L)
        (S.get (Persist.store p) "keep")

(* Under key pre-processing a key shorter than 4 bytes is refused with a
   typed error before anything is logged, so the directory still reopens
   and the log holds no record for it. *)
let test_short_key_preprocess () =
  let dir = fresh_dir () in
  let p = ok "open" (Persist.open_or_create ~config:cfg_pre dir) in
  ok "long put" (Persist.put p "long-enough" 1L);
  let before = Persist.wal_size p in
  let short = function E.Key_too_short 2 -> true | _ -> false in
  expect_error "short put" (Persist.put p "ab" 2L) short;
  expect_error "short add" (Persist.add p "ab") short;
  expect_error "short delete" (Persist.delete p "ab") short;
  Alcotest.(check int) "nothing logged" before (Persist.wal_size p);
  ok "next put" (Persist.put p "another-key" 3L);
  ok "close" (Persist.close p);
  let p = ok "reopen" (Persist.open_or_create ~config:cfg_pre dir) in
  Alcotest.(check int) "two records replayed" 2 (Persist.recovery p).Persist.replayed_ops;
  Alcotest.(check (list (pair string (option int64))))
    "bindings"
    [ ("another-key", Some 3L); ("long-enough", Some 1L) ]
    (dump (Persist.store p));
  expect_error "short put after reopen" (Persist.put p "ab" 2L) short;
  ok "close" (Persist.close p);
  remove_dir dir;
  (* the store's typed API applies the same rule *)
  let s = S.create ~config:cfg_pre () in
  expect_error "store put" (S.put_result s "abc" 1L) (function
    | E.Key_too_short 3 -> true
    | _ -> false);
  expect_error "store delete" (S.delete_result s "a") (function
    | E.Key_too_short 1 -> true
    | _ -> false);
  (* and so does the sharded front door *)
  let sh = Hyperion_shard.create ~config:cfg_pre ~shards:2 () in
  expect_error "sharded put" (Hyperion_shard.put_result sh "ab" 1L) short;
  ignore (ok "sharded close" (Hyperion_shard.close sh))

(* --- crash-recovery chaos sweep (acceptance: CI runs 100 seeds) ------ *)

let test_crash_chaos_sweep () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  for seed = 1 to 25 do
    match
      Chaos.run_crash ~config:cfg ~dir ~seed:(Int64.of_int seed) ~ops:1200 ()
    with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done

let test_diskfault_chaos_sweep () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  for seed = 1 to 10 do
    match
      Chaos.run_diskfault ~config:cfg ~per_mille:20 ~dir
        ~seed:(Int64.of_int seed) ~ops:800 ()
    with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done

let () =
  Alcotest.run "persist"
    [
      ( "snapshot",
        [
          Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "empty store" `Quick test_snapshot_empty_store;
          Alcotest.test_case "corrupt -> typed error" `Quick
            test_corrupt_snapshot_typed;
          Alcotest.test_case "version mismatch -> typed error" `Quick
            test_version_mismatch_typed;
          Alcotest.test_case "fingerprint mismatch -> typed error" `Quick
            test_fingerprint_mismatch_typed;
          Alcotest.test_case "garbage dir -> typed error" `Quick
            test_open_or_create_never_raises_on_garbage;
        ] );
      ( "wal",
        [
          Alcotest.test_case "replay + group-commit counters" `Quick
            test_wal_replay_and_counters;
          Alcotest.test_case "torn tail truncated" `Quick
            test_wal_torn_tail_truncated;
          Alcotest.test_case "rotation" `Quick test_rotation;
          Alcotest.test_case "snapshot_now" `Quick test_snapshot_now;
        ] );
      ( "merge",
        [
          Alcotest.test_case "fixed cases, every flavour" `Quick
            test_merge_fixed_cases;
          Alcotest.test_case "typed key errors" `Quick
            test_merge_typed_key_errors;
          Alcotest.test_case "short keys under pre-processing" `Quick
            test_short_key_preprocess;
          QCheck_alcotest.to_alcotest prop_merge_equals_replay;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_strings;
          QCheck_alcotest.to_alcotest prop_roundtrip_preprocess;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "write failure -> sticky degraded + heal" `Quick
            test_write_failure_degrades_sticky;
          Alcotest.test_case "fsync failure acks but degrades" `Quick
            test_fsync_failure_acks_but_degrades;
          Alcotest.test_case "store reject compensates the WAL" `Quick
            test_store_reject_compensates_wal;
        ] );
      ( "crash-chaos",
        [
          Alcotest.test_case "25-seed sweep" `Slow test_crash_chaos_sweep;
          Alcotest.test_case "10-seed diskfault sweep" `Slow
            test_diskfault_chaos_sweep;
        ] );
    ]
