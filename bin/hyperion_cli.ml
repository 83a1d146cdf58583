(* hyperion_cli — interactive / scripted driver for a Hyperion store.

   Subcommands:
     demo           load the paper's example words and dump the trie stats
     load-ints N    insert N sequential integers and report density
     load-ngrams N  insert N synthetic n-grams and report density
     audit          apply mutations from stdin, then structurally validate
                    the store; with --dir, the store is first recovered
                    from (and mutations are logged to) a durability
                    directory
     chaos          seeded differential run against the red-black-tree
                    oracle with fault injection; with --dir, the workload
                    runs on a store recovered from that directory; with
                    --crash, a crash-recovery run instead (kill at a random
                    WAL offset, reopen, diff against the oracle); with
                    --diskfault, a storage-fault run (seeded I/O faults,
                    sticky degraded read-only mode, heal, and — sharded —
                    worker kills with in-place shard restarts)
     health         open a sharded durability directory and report
                    per-shard worker liveness, degraded state and backlog,
                    plus a Prometheus-style up/degraded snapshot
     save           apply put/add/del lines from stdin, then write a
                    one-shot binary snapshot to the given file
     load           load a snapshot file, report stats, optionally dump
     recover        open a durability directory (snapshot + WAL replay),
                    print what recovery found, then structurally validate
     check          apply mutations from stdin (or load a snapshot FILE,
                    or recover --dir), then run the full analyzer suite:
                    the static passes (source lint + the typedtree
                    Racecheck lock-discipline analyzer, when run inside
                    the source tree; --json for machine-readable output)
                    followed by structural validation plus the
                    mark-and-sweep heap sanitizer (leaks, double
                    references, free-list and counter integrity)
     repl           read commands from stdin:
                      put <key> <value> | add <key> | get <key>
                      del <key> | range <start> <limit> | audit
                      save <dir> | load <dir> | stats | quit
     metrics        load a snapshot file (or recover --dir), probe it with
                    an instrumented read sweep, and print the telemetry
                    registry in the Prometheus text exposition format
                    (structural gauges, op latency summaries, jump-table
                    counters, slow-op trace ring)
     bench          run a telemetry-instrumented experiment (insert):
                    two passes (telemetry off/on) report throughput,
                    latency percentiles and the measured telemetry
                    overhead; --json DIR writes BENCH_insert.json
                    (schema 2), --metrics-every K dumps the exposition
                    every K*10k ops
     serve          run the TCP serving front-end (hyperion.net): binary
                    length-prefixed pipelined protocol on --port, plus an
                    optional memcached-text listener on --memcached-port;
                    the store is in-memory, or recovered from --dir;
                    --duration 0 serves until killed
     loadgen        open-loop load generator; by default a self-contained
                    loopback acceptance matrix (binary and memcached,
                    1 and 4 shards) with coordinated-omission-safe
                    latency percentiles, --json DIR writing
                    BENCH_serve.json; --connect HOST:PORT targets an
                    already-running server instead.  Exits 1 when any
                    request errored

   --shards D (load-ints, load-ngrams, chaos, save, load, recover) routes
   the subcommand through the multi-domain sharded front-end: D worker
   domains over a byte-range partition of the keyspace.  Sharded
   persistence is a directory tree (one snapshot+WAL generation per shard)
   rather than a one-shot snapshot file.

   Exit codes (all subcommands):
     0    success
     1    divergence, structural violation, or corruption detected — the
          store (or a recovery of it) is provably wrong
     2    invalid argument values (negative op counts, bad --per-mille …)
     3    persistence failure surfaced as a typed error: corrupt snapshot,
          torn WAL header, format version mismatch, I/O error
     124  command-line parse error (cmdliner)
     125  unexpected internal error (cmdliner)                            *)

open Cmdliner

let default_config = { Hyperion.Config.strings with chunks_per_bin = 64 }
let make_store () = Hyperion.Store.create ~config:default_config ()

let report_stats ~keys ~bytes st =
  Printf.printf "keys           : %d\n" keys;
  Printf.printf "resident bytes : %d (%.1f B/key)\n" bytes
    (float_of_int bytes /. float_of_int (max 1 keys));
  Printf.printf "containers     : %d (+%d embedded, %d split)\n"
    st.Hyperion.Stats.containers st.Hyperion.Stats.embedded_containers
    st.Hyperion.Stats.split_containers;
  Printf.printf "records        : %d T, %d S, %d delta-encoded\n"
    st.Hyperion.Stats.t_nodes st.Hyperion.Stats.s_nodes
    st.Hyperion.Stats.delta_encoded;
  Printf.printf "path compr.    : %d nodes, %d suffix bytes\n"
    st.Hyperion.Stats.pc_nodes st.Hyperion.Stats.pc_suffix_bytes;
  if st.Hyperion.Stats.saturated_arenas > 0 then
    Printf.printf "SATURATED      : %d arena(s) read-only (memory exhausted)\n"
      st.Hyperion.Stats.saturated_arenas

let report store =
  report_stats
    ~keys:(Hyperion.Store.length store)
    ~bytes:(Hyperion.Store.memory_usage store)
    (Hyperion.Store.stats store)

let report_sharded t =
  Printf.printf "shards         : %d worker domain(s)%s\n"
    (Hyperion_shard.shards t)
    (if Hyperion_shard.durable t then " (durable)" else "");
  report_stats
    ~keys:(Hyperion_shard.length t)
    ~bytes:(Hyperion_shard.memory_usage t)
    (Hyperion_shard.stats t)

let check_shards shards =
  if shards < 1 || shards > 64 then begin
    prerr_endline "--shards must be in [1, 64]";
    exit 2
  end

(* exit 3 on any typed persistence error *)
let persist_fail ctx e =
  Printf.eprintf "%s: %s\n" ctx (Hyperion.Hyperion_error.to_string e);
  exit 3

(* --- key compression (hyperion.compress) ----------------------------

   [--dict FILE] supplies a trained dictionary (written by [train]) and
   selects the dict encoder; bare [--compress] selects the dict encoder
   and adopts whatever dictionary the durability directory already
   persists.  Resolution yields the config (compress id set) plus the
   explicit encoder, if any. *)

let load_dict path =
  let blob =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let b = really_input_string ic n in
      close_in ic;
      b
    with Sys_error m ->
      Printf.eprintf "cannot read dictionary %s: %s\n" path m;
      exit 2
  in
  match Compress.dict_of_string blob with
  | Ok d -> Compress.Dict d
  | Error why ->
      Printf.eprintf "bad dictionary %s: %s\n" path why;
      exit 2

let resolve_compress compress dict =
  match dict with
  | Some f -> ({ default_config with Hyperion.Config.compress = 1 }, Some (load_dict f))
  | None when compress ->
      ({ default_config with Hyperion.Config.compress = 1 }, None)
  | None -> (default_config, None)

let report_encoder enc =
  if enc <> Compress.Identity then
    Printf.printf "encoder        : %s (hash 0x%Lx)\n" (Compress.name enc)
      (Compress.hash enc)

let open_dir ?compress ?(config = default_config) dir =
  match Persist.open_or_create ~config ?compress dir with
  | Ok p -> p
  | Error e -> persist_fail ("recovering " ^ dir) e

let print_recovery p =
  let r = Persist.recovery p in
  Printf.printf
    "recovered      : generation %d, %d snapshot key(s) + %d WAL op(s)%s\n"
    r.Persist.generation r.Persist.snapshot_keys r.Persist.replayed_ops
    (if r.Persist.wal_truncated then " (torn tail truncated)" else "");
  List.iter
    (fun s -> Printf.printf "skipped        : %s\n" s)
    r.Persist.skipped

(* Sharded (multi-domain) variants: a store partitioned into worker-owned
   byte ranges, durable under a per-shard snapshot+WAL directory tree. *)

let open_sharded_dir ?compress ?(config = default_config) ~shards dir =
  match Hyperion_shard.open_durable ~config ?compress ~shards dir with
  | Ok t -> t
  | Error e -> persist_fail ("recovering " ^ dir) e

let print_shard_recoveries t =
  List.iter
    (fun { Hyperion_shard.shard; recovery = r } ->
      Printf.printf
        "shard %-3d      : generation %d, %d snapshot key(s) + %d WAL op(s)%s\n"
        shard r.Persist.generation r.Persist.snapshot_keys r.Persist.replayed_ops
        (if r.Persist.wal_truncated then " (torn tail truncated)" else "");
      List.iter (fun s -> Printf.printf "skipped        : %s\n" s) r.Persist.skipped)
    (Hyperion_shard.recoveries t)

let shard_check ctx = function
  | Ok _ -> ()
  | Error e -> persist_fail ctx e

let demo () =
  let store = make_store () in
  List.iteri
    (fun i w -> Hyperion.Store.put store w (Int64.of_int i))
    [ "a"; "and"; "be"; "by"; "that"; "the"; "to" ];
  Hyperion.Store.range store (fun k v ->
      Printf.printf "%-6s -> %s\n" k
        (match v with Some v -> Int64.to_string v | None -> "(member)");
      true);
  report store

(* Batched sharded ingest: ship mutations to the worker domains in slices
   of 256 so a load costs one mailbox round-trip per slice per shard. *)
let sharded_load ~shards ~what n each =
  let t = Hyperion_shard.create ~config:default_config ~shards () in
  let b = Hyperion_shard.Batch.create t in
  let t0 = Unix.gettimeofday () in
  each (fun k v ->
      Hyperion_shard.Batch.put b k v;
      if Hyperion_shard.Batch.length b >= 256 then
        shard_check "flush" (Hyperion_shard.Batch.flush b));
  shard_check "flush" (Hyperion_shard.Batch.flush b);
  Printf.printf "inserted %d %s in %.2fs\n" n what (Unix.gettimeofday () -. t0);
  report_sharded t;
  shard_check "close" (Hyperion_shard.close t)

let load_ints n shards =
  check_shards shards;
  if shards > 1 then
    sharded_load ~shards ~what:"sequential integers" n (fun put ->
        for i = 0 to n - 1 do
          put (Kvcommon.Key_codec.of_u64 (Int64.of_int i)) (Int64.of_int i)
        done)
  else begin
    let store = make_store () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      Hyperion.Store.put store (Kvcommon.Key_codec.of_u64 (Int64.of_int i)) (Int64.of_int i)
    done;
    Printf.printf "inserted %d sequential integers in %.2fs\n" n
      (Unix.gettimeofday () -. t0);
    report store
  end

let load_ngrams n shards =
  check_shards shards;
  let pairs = Workload.Ngram.generate ~n () in
  if shards > 1 then
    sharded_load ~shards ~what:"n-grams" n (fun put ->
        Array.iter (fun (k, v) -> put k v) pairs)
  else begin
    let store = make_store () in
    let t0 = Unix.gettimeofday () in
    Array.iter (fun (k, v) -> Hyperion.Store.put store k v) pairs;
    Printf.printf "inserted %d n-grams in %.2fs\n" n (Unix.gettimeofday () -. t0);
    report store
  end

(* Print all structural violations; return the count. *)
let audit_store store =
  match Hyperion.Validate.check_store store with
  | [] ->
      print_endline "audit: OK, 0 violations";
      0
  | errs ->
      Printf.printf "audit: %d violation(s)\n" (List.length errs);
      List.iter
        (fun e -> Format.printf "  %a@." Hyperion.Validate.pp_error e)
        errs;
      List.length errs

(* Feed put/add/del lines from stdin into [put]/[add]/[del] callbacks. *)
let drive_stdin ~put ~add ~del =
  let rec loop lineno =
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
        (match String.split_on_char ' ' (String.trim line) with
        | [ "put"; k; v ] -> put k (Int64.of_string v)
        | [ "add"; k ] -> add k
        | [ "del"; k ] -> del k
        | [ "" ] | [ "quit" ] -> ()
        | _ -> Printf.eprintf "line %d ignored: %s\n" lineno line);
        loop (lineno + 1))
  in
  loop 1

let audit dir =
  match dir with
  | None ->
      let store = make_store () in
      drive_stdin
        ~put:(fun k v -> Hyperion.Store.put store k v)
        ~add:(fun k -> Hyperion.Store.add store k)
        ~del:(fun k -> ignore (Hyperion.Store.delete store k));
      Printf.printf "loaded %d key(s)\n" (Hyperion.Store.length store);
      exit (if audit_store store > 0 then 1 else 0)
  | Some dir ->
      let p = open_dir dir in
      print_recovery p;
      let check ctx = function
        | Ok _ -> ()
        | Error e -> persist_fail ctx e
      in
      drive_stdin
        ~put:(fun k v -> check "put" (Persist.put p k v))
        ~add:(fun k -> check "add" (Persist.add p k))
        ~del:(fun k -> check "del" (Persist.delete p k));
      Printf.printf "loaded %d key(s)\n"
        (Hyperion.Store.length (Persist.store p));
      let violations = audit_store (Persist.store p) in
      check "close" (Persist.close p);
      exit (if violations > 0 then 1 else 0)

(* --- static preflight (lint + racecheck over the source tree) -------- *)

(* [check] and the chaos preflight run the same two static passes as
   bin/lint.  They locate the source tree by walking up from the working
   directory to the directory holding dune-project + lint.allow; outside
   the tree (an installed binary) the phase is skipped rather than
   failed. *)
let find_source_root () =
  let rec up dir depth =
    if depth > 8 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lint.allow")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (depth + 1)
  in
  up (Sys.getcwd ()) 0

(* Returns [None] when skipped (no source tree above the cwd), [Some n]
   with the violation count otherwise; prints the report (text, or one
   JSON document with [~json:true]). *)
let static_analysis ~json () =
  match find_source_root () with
  | None -> None
  | Some root ->
      let allow =
        match Lint.load_allow (Filename.concat root "lint.allow") with
        | Ok a -> a
        | Error m ->
            Printf.eprintf "static: bad allow-list: %s\n" m;
            exit 2
      in
      let paths = [ "lib" ] in
      let vs = Lint.run ~allow ~root paths in
      let rc = Racecheck.run ~allow ~root paths in
      let unavailable =
        List.exists (fun v -> v.Lint.v_rule = "racecheck-unavailable") rc
      in
      (* stale-entry detection is only meaningful once Racecheck has
         consulted the allow list over the full scope *)
      let vs = vs @ rc @ (if unavailable then [] else Lint.stale allow) in
      let vs = Lint.sort_violations vs in
      if json then print_endline (Lint.to_json vs)
      else List.iter (fun v -> print_endline (Lint.to_string v)) vs;
      Some (List.length vs)

let chaos no_preflight seed ops per_mille crash diskfault dir shards
    metrics_every heapcheck compress dict =
  check_shards shards;
  if not no_preflight then begin
    match static_analysis ~json:false () with
    | None ->
        print_endline
          "chaos: static preflight skipped (outside the source tree)"
    | Some 0 -> print_endline "chaos: static preflight clean"
    | Some n ->
        Printf.eprintf
          "chaos: static preflight found %d violation(s) — fix them or rerun \
           with --no-preflight\n"
          n;
        exit 1
  end;
  if compress && (crash || diskfault || dir <> None || shards > 1) then begin
    prerr_endline
      "chaos: --compress runs the single-store in-memory mode only (no \
       --crash/--diskfault/--dir/--shards)";
    exit 2
  end;
  if per_mille < 0 || per_mille > 1000 then begin
    prerr_endline "chaos: --per-mille must be in [0, 1000]";
    exit 2
  end;
  if ops < 0 then begin
    prerr_endline "chaos: --ops must be non-negative";
    exit 2
  end;
  if metrics_every < 0 then begin
    prerr_endline "chaos: --metrics-every must be non-negative";
    exit 2
  end;
  if crash && diskfault then begin
    prerr_endline "chaos: --crash and --diskfault are mutually exclusive";
    exit 2
  end;
  if metrics_every > 0 then Telemetry.set_enabled true;
  (* single-store runs dump mid-run through the per-op hook; the sharded,
     crash and diskfault modes drive their workload internally and dump at
     the end *)
  let on_op =
    if metrics_every > 0 && shards = 1 && not crash && not diskfault then
      Some
        (fun op ->
          if (op + 1) mod (metrics_every * 1000) = 0 then
            print_string (Telemetry.dump ()))
    else None
  in
  let final_dump () =
    if metrics_every > 0 then begin
      print_string (Telemetry.dump ());
      print_string (Telemetry.Trace.dump ())
    end
  in
  let scratch_dir () =
    let d =
      match dir with
      | Some d -> d
      | None -> Filename.concat (Filename.get_temp_dir_name ()) "hyperion-chaos"
    in
    (try if not (Sys.file_exists d) then Unix.mkdir d 0o755
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "chaos: cannot create %s: %s\n" d (Unix.error_message e);
       exit 2);
    d
  in
  if diskfault then begin
    (* storage-fault mode: seeded I/O faults through the Persist.Io
       interposition layer — degraded read-only mode, heal, and (sharded)
       worker kills + restarts, ending in a crash-recovery check *)
    let dir = scratch_dir () in
    if shards > 1 then
      match
        Chaos.run_sharded_diskfault ~config:default_config ~shards ~heapcheck
          ~per_mille ~dir ~seed ~ops ()
      with
      | Ok o ->
          Format.printf "chaos --diskfault --shards %d: OK — %a@." shards
            Chaos.pp_sharded_diskfault_outcome o;
          final_dump ()
      | Error msg ->
          prerr_endline msg;
          exit 1
    else
      match
        Chaos.run_diskfault ~config:default_config ~heapcheck ~per_mille ~dir
          ~seed ~ops ()
      with
      | Ok o ->
          Format.printf "chaos --diskfault: OK — %a@."
            Chaos.pp_diskfault_outcome o;
          final_dump ()
      | Error msg ->
          prerr_endline msg;
          exit 1
  end
  else if shards > 1 then begin
    (* concurrent client domains against the sharded front-end; fault plans
       are not domain-safe, so this mode always runs fault-free *)
    let dir = if crash || dir <> None then Some (scratch_dir ()) else None in
    match
      Chaos.run_sharded ~config:default_config ~shards ~heapcheck ?dir ~seed
        ~ops ()
    with
    | Ok o ->
        Format.printf "chaos --shards %d: OK — %a@." shards
          Chaos.pp_sharded_outcome o;
        final_dump ()
    | Error msg ->
        prerr_endline msg;
        exit 1
  end
  else if crash then begin
    let dir = scratch_dir () in
    match
      Chaos.run_crash ~config:default_config ~heapcheck ~dir ~seed ~ops ()
    with
    | Ok o ->
        Format.printf "chaos --crash: OK — %a@." Chaos.pp_crash_outcome o;
        final_dump ()
    | Error msg ->
        prerr_endline msg;
        exit 1
  end
  else begin
    let plan =
      if per_mille = 0 then Fault.none
      else Fault.seeded ~seed ~per_mille ~sites:Fault.all_sites
    in
    let store, finish =
      match dir with
      | None -> (None, fun () -> ())
      | Some d ->
          let p = open_dir d in
          print_recovery p;
          (* the chaos workload mutates the store directly (not through the
             log), so drop the handle without writing anything back *)
          (Some (Persist.store p), fun () -> Persist.crash p)
    in
    let config, chaos_compress =
      if not compress then (Hyperion.Config.default, Compress.Identity)
      else
        (* the chaos key universe is closed (Chaos.key_for over the default
           4096-id space), so the dictionary can be trained on exactly the
           keys the run will generate — unless --dict supplied one *)
        let enc =
          match dict with
          | Some f -> load_dict f
          | None ->
              Compress.Dict
                (Compress.train (Seq.init 4096 Chaos.key_for))
        in
        report_encoder enc;
        ({ Hyperion.Config.default with compress = 1 }, enc)
    in
    match
      Chaos.run ~config ~compress:chaos_compress ?store ?on_op ~heapcheck
        ~plan ~seed ~ops ()
    with
    | Ok o ->
        finish ();
        Format.printf "chaos: OK — %a@." Chaos.pp_outcome o;
        Format.printf "plan : %s@." (Fault.describe plan);
        final_dump ()
    | Error msg ->
        finish ();
        prerr_endline msg;
        exit 1
  end

let save path shards compress dict =
  check_shards shards;
  let config, enc_opt = resolve_compress compress dict in
  if shards > 1 then begin
    (* sharded stores persist as a directory tree (one snapshot+WAL
       generation per shard), not a one-shot snapshot file; the shard
       front end encodes keys transparently *)
    let t = open_sharded_dir ?compress:enc_opt ~config ~shards path in
    report_encoder (Hyperion_shard.compress t);
    drive_stdin
      ~put:(fun k v -> shard_check "put" (Hyperion_shard.put_result t k v))
      ~add:(fun k -> shard_check "add" (Hyperion_shard.add_result t k))
      ~del:(fun k -> shard_check "del" (Hyperion_shard.delete_result t k));
    shard_check "snapshot" (Hyperion_shard.snapshot_now t);
    Printf.printf "saved %d key(s) across %d shard(s) -> %s\n"
      (Hyperion_shard.length t) shards path;
    shard_check "close" (Hyperion_shard.close t)
  end
  else begin
    let enc =
      match (enc_opt, compress) with
      | Some e, _ -> e
      | None, true ->
          (* a one-shot snapshot has no prior state to adopt a dictionary
             from *)
          prerr_endline "save: --compress needs --dict FILE (train one first)";
          exit 2
      | None, false -> Compress.Identity
    in
    let store = Hyperion.Store.create ~config () in
    drive_stdin
      ~put:(fun k v -> Hyperion.Store.put store (Compress.encode enc k) v)
      ~add:(fun k -> Hyperion.Store.add store (Compress.encode enc k))
      ~del:(fun k ->
        ignore (Hyperion.Store.delete store (Compress.encode enc k)));
    match Persist.save_snapshot ~compress:enc store path with
    | Ok bytes ->
        Printf.printf "saved %d key(s), %d bytes -> %s\n"
          (Hyperion.Store.length store) bytes path
    | Error e -> persist_fail ("saving " ^ path) e
  end

let load path dump shards compress dict =
  check_shards shards;
  let config, enc_opt = resolve_compress compress dict in
  if shards > 1 then begin
    let t = open_sharded_dir ?compress:enc_opt ~config ~shards path in
    print_shard_recoveries t;
    report_encoder (Hyperion_shard.compress t);
    if dump then
      Hyperion_shard.iter t (fun k v ->
          Printf.printf "%s %s\n" k
            (match v with Some v -> Int64.to_string v | None -> "-"));
    report_sharded t;
    shard_check "close" (Hyperion_shard.close t)
  end
  else
    match Persist.load_snapshot ?expect:enc_opt ~config path with
    | Error e -> persist_fail ("loading " ^ path) e
    | Ok (store, enc) ->
        report_encoder enc;
        if dump then
          Hyperion.Store.iter store (fun ek v ->
              let k =
                match Compress.decode enc ek with
                | Ok k -> k
                | Error why ->
                    Printf.eprintf "stored key fails to decode: %s\n" why;
                    exit 1
              in
              Printf.printf "%s %s\n" k
                (match v with Some v -> Int64.to_string v | None -> "-"));
        report store

let recover dir shards compress dict =
  check_shards shards;
  let config, enc_opt = resolve_compress compress dict in
  if shards > 1 then begin
    let t = open_sharded_dir ?compress:enc_opt ~config ~shards dir in
    print_shard_recoveries t;
    report_encoder (Hyperion_shard.compress t);
    report_sharded t;
    let violations =
      Hyperion_shard.with_quiesced t (fun stores ->
          Array.to_list stores
          |> List.mapi (fun i s ->
                 Printf.printf "shard %-3d      : " i;
                 audit_store s)
          |> List.fold_left ( + ) 0)
    in
    shard_check "close" (Hyperion_shard.close t);
    exit (if violations > 0 then 1 else 0)
  end
  else begin
    let p = open_dir ?compress:enc_opt ~config dir in
    print_recovery p;
    report_encoder (Persist.compress p);
    report (Persist.store p);
    let violations = audit_store (Persist.store p) in
    (match Persist.close p with
    | Ok () -> ()
    | Error e -> persist_fail "close" e);
    exit (if violations > 0 then 1 else 0)
  end

(* Operational health probe: open the sharded durability tree, report
   per-shard liveness / degradation / backlog, and emit a Prometheus-style
   snapshot.  Exits 1 unless every shard is up and writable. *)
let health dir shards compress dict =
  if shards <> 0 then check_shards shards;
  let config, enc_opt = resolve_compress compress dict in
  let t =
    match
      Hyperion_shard.open_durable ~config ?compress:enc_opt
        ?shards:(if shards = 0 then None else Some shards)
        dir
    with
    | Ok t -> t
    | Error e -> persist_fail ("recovering " ^ dir) e
  in
  print_shard_recoveries t;
  let hs = Hyperion_shard.health t in
  List.iter
    (fun h ->
      Printf.printf "shard %-3d      : %s%s, backlog=%d\n"
        h.Hyperion_shard.hs_shard
        (match h.Hyperion_shard.hs_down with
        | Some r -> "DOWN (" ^ r ^ ")"
        | None -> "up")
        (match h.Hyperion_shard.hs_degraded with
        | Some w -> Printf.sprintf ", DEGRADED read-only (%s)" w
        | None -> "")
        h.Hyperion_shard.hs_backlog)
    hs;
  List.iter
    (fun h ->
      Printf.printf "hyperion_shard_up{shard=\"%d\"} %d\n"
        h.Hyperion_shard.hs_shard
        (if h.Hyperion_shard.hs_alive then 1 else 0))
    hs;
  List.iter
    (fun h ->
      Printf.printf "hyperion_shard_degraded{shard=\"%d\"} %d\n"
        h.Hyperion_shard.hs_shard
        (if h.Hyperion_shard.hs_degraded <> None then 1 else 0))
    hs;
  let healthy =
    List.for_all
      (fun h -> h.Hyperion_shard.hs_alive && h.Hyperion_shard.hs_degraded = None)
      hs
  in
  shard_check "close" (Hyperion_shard.close t);
  exit (if healthy then 0 else 1)

(* Analyzer suite over one store: structural validation plus the
   mark-and-sweep heap sanitizer; returns the combined problem count. *)
let check_one store =
  let violations = audit_store store in
  let r = Analyze.Heapcheck.audit_store store in
  Format.printf "%a@." Analyze.Heapcheck.pp_report r;
  violations + List.length r.Analyze.Heapcheck.problems

let check_sharded t =
  Hyperion_shard.with_quiesced t (fun stores ->
      Array.to_list stores
      |> List.mapi (fun i s ->
             Printf.printf "shard %-3d      :\n" i;
             check_one s)
      |> List.fold_left ( + ) 0)

let check file dir shards json =
  check_shards shards;
  let static_problems =
    match static_analysis ~json () with
    | None ->
        if not json then
          print_endline "static analysis: skipped (outside the source tree)";
        0
    | Some n ->
        if n = 0 && not json then
          print_endline "static analysis: lint + racecheck clean";
        n
  in
  let problems =
    match (file, dir) with
    | Some _, Some _ ->
        prerr_endline "check: FILE and --dir are mutually exclusive";
        exit 2
    | Some path, None ->
        if shards > 1 then begin
          (* with --shards, the positional path is a sharded directory tree *)
          let t = open_sharded_dir ~shards path in
          print_shard_recoveries t;
          let n = check_sharded t in
          shard_check "close" (Hyperion_shard.close t);
          n
        end
        else (
          match Persist.load_snapshot ~config:default_config path with
          | Error e -> persist_fail ("loading " ^ path) e
          | Ok (store, _enc) ->
              Printf.printf "loaded %d key(s) from %s\n"
                (Hyperion.Store.length store) path;
              check_one store)
    | None, Some dir ->
        if shards > 1 then begin
          let t = open_sharded_dir ~shards dir in
          print_shard_recoveries t;
          let n = check_sharded t in
          shard_check "close" (Hyperion_shard.close t);
          n
        end
        else begin
          (* open_or_create heap-audits the recovery itself (exit 3 on a
             corrupt heap); this run re-checks and prints the report *)
          let p = open_dir dir in
          print_recovery p;
          let n = check_one (Persist.store p) in
          (match Persist.close p with
          | Ok () -> ()
          | Error e -> persist_fail "close" e);
          n
        end
    | None, None ->
        if shards > 1 then begin
          let t = Hyperion_shard.create ~config:default_config ~shards () in
          drive_stdin
            ~put:(fun k v -> shard_check "put" (Hyperion_shard.put_result t k v))
            ~add:(fun k -> shard_check "add" (Hyperion_shard.add_result t k))
            ~del:(fun k -> shard_check "del" (Hyperion_shard.delete_result t k));
          Printf.printf "loaded %d key(s)\n" (Hyperion_shard.length t);
          let n = check_sharded t in
          shard_check "close" (Hyperion_shard.close t);
          n
        end
        else begin
          let store = make_store () in
          drive_stdin
            ~put:(fun k v -> Hyperion.Store.put store k v)
            ~add:(fun k -> Hyperion.Store.add store k)
            ~del:(fun k -> ignore (Hyperion.Store.delete store k));
          Printf.printf "loaded %d key(s)\n" (Hyperion.Store.length store);
          check_one store
        end
  in
  exit (if problems + static_problems > 0 then 1 else 0)

let repl () =
  let store = ref (make_store ()) in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "quit" ] -> ()
        | [ "stats" ] ->
            report !store;
            loop ()
        | [ "audit" ] ->
            ignore (audit_store !store);
            loop ()
        | [ "put"; k; v ] ->
            Hyperion.Store.put !store k (Int64.of_string v);
            loop ()
        | [ "add"; k ] ->
            Hyperion.Store.add !store k;
            loop ()
        | [ "get"; k ] ->
            (match Hyperion.Store.get !store k with
            | Some v -> Printf.printf "%Ld\n" v
            | None ->
                print_endline
                  (if Hyperion.Store.mem !store k then "(member)" else "(nil)"));
            loop ()
        | [ "del"; k ] ->
            Printf.printf "%b\n" (Hyperion.Store.delete !store k);
            loop ()
        | [ "range"; start; limit ] ->
            let n = ref (int_of_string limit) in
            Hyperion.Store.range !store ~start (fun k v ->
                Printf.printf "%s %s\n" k
                  (match v with Some v -> Int64.to_string v | None -> "-");
                decr n;
                !n > 0);
            loop ()
        | [ "save"; path ] ->
            (match Persist.save_snapshot !store path with
            | Ok bytes -> Printf.printf "saved %d bytes -> %s\n" bytes path
            | Error e ->
                Printf.printf "save failed: %s\n"
                  (Hyperion.Hyperion_error.to_string e));
            loop ()
        | [ "load"; path ] ->
            (* the repl is identity-encoded only; snapshots written under a
               dictionary refuse to load here (Version_mismatch) instead of
               surfacing garbled keys *)
            (match Persist.load_snapshot ~config:default_config path with
            | Ok (s, _enc) ->
                store := s;
                Printf.printf "loaded %d key(s)\n" (Hyperion.Store.length s)
            | Error e ->
                Printf.printf "load failed: %s\n"
                  (Hyperion.Hyperion_error.to_string e));
            loop ()
        | [ "" ] -> loop ()
        | _ ->
            print_endline "put|add|get|del|range|save|load|audit|stats|quit";
            loop ())
  in
  loop ()

(* Structural gauges only the exporter knows how to fill: set once from a
   Stats sweep right before dumping, so the exposition carries the store's
   shape alongside the hot-path latency summaries. *)
let g_keys =
  Telemetry.Gauge.make "hyperion_store_keys" ~help:"Keys resident in the store"

let g_bytes =
  Telemetry.Gauge.make "hyperion_store_resident_bytes"
    ~help:"Arena bytes resident"

let g_containers =
  Telemetry.Gauge.make "hyperion_store_containers"
    ~help:"Containers in the trie"

let g_saturated =
  Telemetry.Gauge.make "hyperion_store_saturated_arenas"
    ~help:"Arenas gone read-only after memory exhaustion"

let set_structural_gauges ~keys ~bytes st =
  Telemetry.Gauge.set g_keys keys;
  Telemetry.Gauge.set g_bytes bytes;
  Telemetry.Gauge.set g_containers st.Hyperion.Stats.containers;
  Telemetry.Gauge.set g_saturated st.Hyperion.Stats.saturated_arenas

(* Ordered sweep collecting every key, then an instrumented point-get per
   key (capped at [probe]): populates the get-latency histogram and the
   jump-table hit/miss counters on a store that was only ever loaded. *)
let probe_sweep ~probe ~iter ~get =
  let keys = ref [] and n = ref 0 in
  iter (fun k _ ->
      if !n < probe then begin
        keys := k :: !keys;
        incr n
      end);
  List.iter (fun k -> ignore (get k)) !keys;
  !n

let metrics file dir shards probe =
  check_shards shards;
  if probe < 0 then begin
    prerr_endline "metrics: --probe must be non-negative";
    exit 2
  end;
  Telemetry.set_enabled true;
  let probed =
    match (file, dir) with
    | None, None ->
        prerr_endline "metrics: need a snapshot FILE or --dir DIR";
        exit 2
    | Some _, Some _ ->
        prerr_endline "metrics: FILE and --dir are mutually exclusive";
        exit 2
    | Some path, None ->
        if shards > 1 then begin
          (* with --shards, the positional path is a sharded directory tree *)
          let t = open_sharded_dir ~shards path in
          set_structural_gauges
            ~keys:(Hyperion_shard.length t)
            ~bytes:(Hyperion_shard.memory_usage t)
            (Hyperion_shard.stats t);
          let n =
            probe_sweep ~probe
              ~iter:(fun f -> Hyperion_shard.iter t f)
              ~get:(fun k -> Hyperion_shard.get t k)
          in
          shard_check "close" (Hyperion_shard.close t);
          n
        end
        else
          (match Persist.load_snapshot ~config:default_config path with
          | Error e -> persist_fail ("loading " ^ path) e
          | Ok (store, _enc) ->
              set_structural_gauges
                ~keys:(Hyperion.Store.length store)
                ~bytes:(Hyperion.Store.memory_usage store)
                (Hyperion.Store.stats store);
              probe_sweep ~probe
                ~iter:(fun f -> Hyperion.Store.iter store f)
                ~get:(fun k -> Hyperion.Store.get store k))
    | None, Some dir ->
        if shards > 1 then begin
          let t = open_sharded_dir ~shards dir in
          set_structural_gauges
            ~keys:(Hyperion_shard.length t)
            ~bytes:(Hyperion_shard.memory_usage t)
            (Hyperion_shard.stats t);
          let n =
            probe_sweep ~probe
              ~iter:(fun f -> Hyperion_shard.iter t f)
              ~get:(fun k -> Hyperion_shard.get t k)
          in
          shard_check "close" (Hyperion_shard.close t);
          n
        end
        else begin
          (* recovery through the durability layer also exercises the WAL
             replay counters, so they show up in the exposition *)
          let p = open_dir dir in
          let store = Persist.store p in
          set_structural_gauges
            ~keys:(Hyperion.Store.length store)
            ~bytes:(Hyperion.Store.memory_usage store)
            (Hyperion.Store.stats store);
          let n =
            probe_sweep ~probe
              ~iter:(fun f -> Hyperion.Store.iter store f)
              ~get:(fun k -> Hyperion.Store.get store k)
          in
          (match Persist.close p with
          | Ok () -> ()
          | Error e -> persist_fail "close" e);
          n
        end
  in
  Printf.printf "# probed %d key(s)\n" probed;
  print_string (Telemetry.dump ());
  print_string (Telemetry.Trace.dump ())

let bench_cmd experiment n json_dir metrics_every =
  if n < 1 then begin
    prerr_endline "bench: --n must be positive";
    exit 2
  end;
  if metrics_every < 0 then begin
    prerr_endline "bench: --metrics-every must be non-negative";
    exit 2
  end;
  let metrics_every = if metrics_every = 0 then None else Some metrics_every in
  match experiment with
  | "insert" ->
      ignore
        (Bench_util.Telemetry_bench.insert ~n ?json_dir ?metrics_every ())
  | "compress" ->
      ignore (Bench_util.Compress_bench.run ~n ?json_dir ())
  | other ->
      Printf.eprintf
        "bench: unknown experiment %S (try: insert, compress)\n" other;
      exit 2

(* ---- dictionary training --------------------------------------------- *)

(* [train OUT]: reservoir-sample keys (stdin lines, or the synthetic
   n-gram corpus with --ngrams), train the order-preserving dictionary,
   write the 258-byte blob to OUT for later --dict FILE use. *)
let train out ngrams sample seed =
  if sample < 1 then begin
    prerr_endline "train: --sample must be positive";
    exit 2
  end;
  if ngrams < 0 then begin
    prerr_endline "train: --ngrams must be non-negative";
    exit 2
  end;
  let keys =
    if ngrams > 0 then
      Seq.map fst (Array.to_seq (Workload.Ngram.generate ~n:ngrams ()))
    else
      Seq.of_dispenser (fun () ->
          match input_line stdin with
          | line -> Some line
          | exception End_of_file -> None)
  in
  let sampled = Workload.Keystream.reservoir ~seed ~k:sample keys in
  if Array.length sampled = 0 then begin
    prerr_endline "train: no keys to train on";
    exit 2
  end;
  let dict = Compress.train (Array.to_seq sampled) in
  let blob = Compress.dict_to_string dict in
  (try
     let oc = open_out_bin out in
     output_string oc blob;
     close_out oc
   with Sys_error m ->
     Printf.eprintf "cannot write %s: %s\n" out m;
     exit 2);
  Printf.printf "trained on %d sampled key(s) -> %s (%d bytes, hash 0x%Lx)\n"
    (Array.length sampled) out (String.length blob)
    (Compress.dict_hash dict)

(* ---- network serving ------------------------------------------------- *)

let serve port mc_port shards dir duration compress dict =
  check_shards shards;
  let config, enc_opt = resolve_compress compress dict in
  if duration < 0.0 then begin
    prerr_endline "serve: --duration must be non-negative";
    exit 2
  end;
  if port < 0 || port > 65535 || (match mc_port with
     | Some p -> p < 0 || p > 65535
     | None -> false)
  then begin
    prerr_endline "serve: ports must be in [0, 65535]";
    exit 2
  end;
  let t =
    match dir with
    | Some d -> open_sharded_dir ?compress:enc_opt ~config ~shards d
    | None ->
        if compress && enc_opt = None then begin
          prerr_endline
            "serve: --compress without --dir needs --dict FILE (an \
             in-memory store has no persisted dictionary to adopt)";
          exit 2
        end;
        Hyperion_shard.create ~config ?compress:enc_opt ~shards ()
  in
  report_encoder (Hyperion_shard.compress t);
  let cfg =
    {
      Hyperion_net.Server.default_config with
      port;
      memcached_port = mc_port;
    }
  in
  match Hyperion_net.Server.start ~config:cfg t with
  | Error m ->
      Printf.eprintf "serve: %s\n" m;
      shard_check "close" (Hyperion_shard.close t);
      exit 3
  | Ok srv ->
      Printf.printf "serving        : binary on %d%s, %d shard(s)%s\n%!"
        (Hyperion_net.Server.port srv)
        (match Hyperion_net.Server.memcached_port srv with
        | Some p -> Printf.sprintf ", memcached on %d" p
        | None -> "")
        shards
        (if dir <> None then " (durable)" else "");
      if duration > 0.0 then Unix.sleepf duration
      else
        (* serve until the process is killed *)
        while true do
          Unix.sleep 3600
        done;
      Hyperion_net.Server.stop srv;
      shard_check "close" (Hyperion_shard.close t)

let loadgen_scenario_label protocol shards =
  Printf.sprintf "%s-%dshard"
    (match protocol with
    | Hyperion_net.Loadgen.Binary -> "binary"
    | Hyperion_net.Loadgen.Memcached -> "memcached")
    shards

let report_loadgen label (s : Hyperion_net.Loadgen.summary) =
  let q p = Telemetry.Hist.quantile s.s_hist p /. 1e3 in
  Printf.printf
    "%-18s: %7.0f/%7.0f qps, %d sent, %d done, %d error(s), p50 %.1fus p99 \
     %.1fus p999 %.1fus\n%!"
    label s.s_achieved_qps s.s_target_qps s.s_sent s.s_completed s.s_errors
    (q 0.5) (q 0.99) (q 0.999)

(* Run one loadgen scenario against a private loopback server: fresh
   in-memory sharded store preloaded with the key universe, ephemeral
   ports, clean shutdown. *)
let loadgen_self_scenario base_cfg ks protocol shards =
  check_shards shards;
  let t = Hyperion_shard.create ~config:default_config ~shards () in
  let b = Hyperion_shard.Batch.create t in
  let store_key =
    match protocol with
    | Hyperion_net.Loadgen.Memcached -> Hyperion_net.Loadgen.memcached_key
    | Hyperion_net.Loadgen.Binary -> fun k -> k
  in
  Array.iteri
    (fun rank k ->
      Hyperion_shard.Batch.put b (store_key k) (Int64.of_int rank);
      if Hyperion_shard.Batch.length b >= 256 then
        shard_check "flush" (Hyperion_shard.Batch.flush b))
    (Workload.Keystream.keys ks);
  shard_check "flush" (Hyperion_shard.Batch.flush b);
  let scfg =
    {
      Hyperion_net.Server.default_config with
      port = 0;
      memcached_port =
        (match protocol with
        | Hyperion_net.Loadgen.Memcached -> Some 0
        | Hyperion_net.Loadgen.Binary -> None);
    }
  in
  match Hyperion_net.Server.start ~config:scfg t with
  | Error m ->
      Printf.eprintf "loadgen: %s\n" m;
      shard_check "close" (Hyperion_shard.close t);
      exit 3
  | Ok srv ->
      let port =
        match protocol with
        | Hyperion_net.Loadgen.Binary -> Hyperion_net.Server.port srv
        | Hyperion_net.Loadgen.Memcached -> (
            match Hyperion_net.Server.memcached_port srv with
            | Some p -> p
            | None -> Hyperion_net.Server.port srv)
      in
      let cfg = { base_cfg with Hyperion_net.Loadgen.protocol; port } in
      let r = Hyperion_net.Loadgen.run ~keystream:ks cfg in
      Hyperion_net.Server.stop srv;
      shard_check "close" (Hyperion_shard.close t);
      match r with
      | Error m ->
          Printf.eprintf "loadgen: %s\n" m;
          exit 3
      | Ok s ->
          let label = loadgen_scenario_label protocol shards in
          report_loadgen label s;
          (label, shards, s)

let parse_hostport s =
  match String.rindex_opt s ':' with
  | None -> None
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p <= 65535 && host <> "" -> Some (host, p)
      | Some _ | None -> None)

let loadgen_cmd connect protocol qps duration conns depth read_fraction keys
    seed arrival json_dir =
  let protocol =
    match protocol with
    | "binary" -> Hyperion_net.Loadgen.Binary
    | "memcached" -> Hyperion_net.Loadgen.Memcached
    | other ->
        Printf.eprintf "loadgen: unknown protocol %S (binary|memcached)\n"
          other;
        exit 2
  in
  let arrival =
    match arrival with
    | "poisson" -> Hyperion_net.Loadgen.Poisson
    | "uniform" -> Hyperion_net.Loadgen.Uniform
    | other ->
        Printf.eprintf "loadgen: unknown arrival %S (poisson|uniform)\n" other;
        exit 2
  in
  let base_cfg =
    {
      Hyperion_net.Loadgen.default_config with
      protocol;
      connections = conns;
      depth;
      target_qps = qps;
      duration_s = duration;
      arrival;
      read_fraction;
      n_keys = keys;
      seed;
    }
  in
  (match Hyperion_net.Loadgen.validate base_cfg with
  | Some m ->
      Printf.eprintf "loadgen: %s\n" m;
      exit 2
  | None -> ());
  let ks = Workload.Keystream.create ~seed ~n:keys () in
  let results =
    match connect with
    | Some hostport -> (
        match parse_hostport hostport with
        | None ->
            Printf.eprintf "loadgen: --connect expects HOST:PORT, got %S\n"
              hostport;
            exit 2
        | Some (host, port) -> (
            let cfg = { base_cfg with Hyperion_net.Loadgen.host; port } in
            match Hyperion_net.Loadgen.run ~keystream:ks cfg with
            | Error m ->
                Printf.eprintf "loadgen: %s\n" m;
                exit 3
            | Ok s ->
                let label =
                  match protocol with
                  | Hyperion_net.Loadgen.Binary -> "binary-external"
                  | Hyperion_net.Loadgen.Memcached -> "memcached-external"
                in
                report_loadgen label s;
                [ (label, conns, s) ]))
    | None ->
        (* the acceptance matrix: both protocols, single- and multi-shard *)
        List.map
          (fun (protocol, shards) ->
            loadgen_self_scenario base_cfg ks protocol shards)
          [
            (Hyperion_net.Loadgen.Binary, 1);
            (Hyperion_net.Loadgen.Binary, 4);
            (Hyperion_net.Loadgen.Memcached, 1);
            (Hyperion_net.Loadgen.Memcached, 4);
          ]
  in
  (match json_dir with
  | None -> ()
  | Some dir ->
      let rows =
        List.map
          (fun (label, domains, (s : Hyperion_net.Loadgen.summary)) ->
            {
              Bench_util.Json_out.label;
              domains;
              ops_per_s = s.s_achieved_qps;
              bytes_per_key = 0.0;
            })
          results
      in
      let lats =
        List.map
          (fun (label, _, s) ->
            Hyperion_net.Loadgen.latency_of_summary ~metric:label s)
          results
      in
      let config =
        [
          ("target_qps", Printf.sprintf "%.0f" qps);
          ("duration_s", Printf.sprintf "%.2f" duration);
          ("connections", string_of_int conns);
          ("depth", string_of_int depth);
          ("arrival",
           match arrival with
           | Hyperion_net.Loadgen.Poisson -> "poisson"
           | Hyperion_net.Loadgen.Uniform -> "uniform");
          ("read_fraction", Printf.sprintf "%.2f" read_fraction);
          ("seed", Int64.to_string seed);
          ("mode", if connect = None then "loopback" else "external");
        ]
      in
      let path =
        Bench_util.Json_out.write ~dir ~experiment:"serve" ~n:keys ~config
          ~telemetry:lats ~rows ()
      in
      Printf.printf "wrote          : %s\n" path);
  let errors =
    List.fold_left
      (fun acc (_, _, (s : Hyperion_net.Loadgen.summary)) ->
        acc + s.s_errors)
      0 results
  in
  if errors > 0 then begin
    Printf.eprintf "loadgen: %d request error(s)\n" errors;
    exit 1
  end

let n_arg = Arg.(value & pos 0 int 100_000 & info [] ~docv:"N")

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED"
       ~doc:"Workload and fault-plan seed (replay a failing run with it).")

let ops_arg =
  Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N"
       ~doc:"Number of random operations to execute.")

let per_mille_arg =
  Arg.(value & opt int 2 & info [ "per-mille" ] ~docv:"P"
       ~doc:"Fault probability per consultation in 1/1000 units; 0 disables \
             injection.")

let crash_arg =
  Arg.(value & flag & info [ "crash" ]
       ~doc:"Crash-recovery mode: drive the workload through the durability \
             layer, kill it at a random write-ahead-log offset, reopen and \
             diff the recovered store against the oracle.")

let dir_arg =
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR"
       ~doc:"Durability directory to recover the store from (created when \
             missing).")

let diskfault_arg =
  Arg.(value & flag & info [ "diskfault" ]
       ~doc:"Storage-fault mode: run the workload through the durability \
             layer with seeded I/O faults injected into every syscall \
             (EIO, ENOSPC, short writes, fsync failures), asserting sticky \
             degraded read-only mode, successful heal, and prefix-consistent \
             crash recovery; with $(b,--shards) > 1, also injects worker \
             crashes and restarts shards in place.")

let health_shards_arg =
  Arg.(value & opt int 0 & info [ "shards" ] ~docv:"D"
       ~doc:"Expected shard count; 0 (default) trusts the directory's \
             MANIFEST.")

let heapcheck_arg =
  Arg.(value & opt bool true & info [ "heapcheck" ] ~docv:"BOOL"
       ~doc:"Run the mark-and-sweep heap sanitizer (leaks, double \
             references, free-list and counter integrity) on every chaos \
             audit round and after crash recovery; $(b,false) keeps only \
             the structural validation.")

let dir_pos_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")

let path_pos_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

let dump_arg =
  Arg.(value & flag & info [ "dump" ] ~doc:"Print every binding, in order.")

let shards_arg =
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"D"
       ~doc:"Partition the store into $(docv) worker-domain shards (the \
             multi-domain front-end); 1 keeps the single-store code path.")

let metrics_every_arg =
  Arg.(value & opt int 0 & info [ "metrics-every" ] ~docv:"K"
       ~doc:"Enable telemetry and dump the Prometheus exposition \
             periodically: every $(docv)*1000 chaos ops (single-store \
             mode) or every $(docv)*10000 bench inserts; 0 disables.")

let file_opt_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE")

let probe_arg =
  Arg.(value & opt int 50_000 & info [ "probe" ] ~docv:"N"
       ~doc:"Cap on instrumented point lookups issued against the loaded \
             store to populate the latency and jump-table metrics.")

let experiment_arg =
  Arg.(value & pos 0 string "insert" & info [] ~docv:"EXPERIMENT"
       ~doc:"Experiment to run (currently: insert).")

let bench_n_arg =
  Arg.(value & opt int 300_000 & info [ "n" ] ~docv:"N"
       ~doc:"Keys per pass.")

let json_dir_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"DIR"
       ~doc:"Write BENCH_<experiment>.json (schema 2, with latency \
             percentiles) into $(docv).")

let port_arg =
  Arg.(value & opt int 7791 & info [ "port" ] ~docv:"PORT"
       ~doc:"Binary-protocol listener port; 0 picks an ephemeral port.")

let mc_port_arg =
  Arg.(value & opt (some int) None & info [ "memcached-port" ] ~docv:"PORT"
       ~doc:"Also serve the memcached-text subset \
             (get/set/delete/stats/version/quit) on $(docv); 0 picks an \
             ephemeral port.")

let duration_arg =
  Arg.(value & opt float 0.0 & info [ "duration" ] ~docv:"SECONDS"
       ~doc:"Serve for $(docv) seconds then shut down cleanly; 0 (default) \
             serves until the process is killed.")

let connect_arg =
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT"
       ~doc:"Drive an already-running server instead of the self-contained \
             loopback matrix.")

let protocol_arg =
  Arg.(value & opt string "binary" & info [ "protocol" ] ~docv:"P"
       ~doc:"Protocol for $(b,--connect) mode: $(b,binary) or \
             $(b,memcached).")

let qps_arg =
  Arg.(value & opt float 20_000.0 & info [ "qps" ] ~docv:"QPS"
       ~doc:"Aggregate open-loop arrival rate, split across connections.")

let lg_duration_arg =
  Arg.(value & opt float 2.0 & info [ "duration" ] ~docv:"SECONDS"
       ~doc:"Measured run length per scenario.")

let conns_arg =
  Arg.(value & opt int 4 & info [ "conns" ] ~docv:"C"
       ~doc:"Client connections (threads), each with its own socket and \
             generator stream.")

let depth_arg =
  Arg.(value & opt int 16 & info [ "depth" ] ~docv:"D"
       ~doc:"Max outstanding pipelined requests per connection; the sender \
             blocks beyond this, but latency stays measured from the \
             scheduled send time (no coordinated omission).")

let read_fraction_arg =
  Arg.(value & opt float 0.9 & info [ "read-fraction" ] ~docv:"F"
       ~doc:"Fraction of requests that are reads, in [0, 1].")

let lg_keys_arg =
  Arg.(value & opt int 10_000 & info [ "keys" ] ~docv:"N"
       ~doc:"Zipf-ranked n-gram key universe size (preloaded in loopback \
             mode).")

let lg_seed_arg =
  Arg.(value & opt int64 20190301L & info [ "seed" ] ~docv:"SEED"
       ~doc:"Keystream and schedule seed (reproducible runs).")

let arrival_arg =
  Arg.(value & opt string "poisson" & info [ "arrival" ] ~docv:"A"
       ~doc:"Inter-arrival law: $(b,poisson) (exponential gaps) or \
             $(b,uniform) (fixed gaps).")

let compress_flag_arg =
  Arg.(value & flag & info [ "compress" ]
       ~doc:"Use the trained-dictionary order-preserving key encoder \
             (hyperion.compress).  Over a durability directory the \
             persisted dictionary is adopted; elsewhere supply one with \
             $(b,--dict).")

let dict_arg =
  Arg.(value & opt (some string) None & info [ "dict" ] ~docv:"FILE"
       ~doc:"Trained dictionary blob written by $(b,train); implies \
             $(b,--compress) and is verified against any persisted \
             dictionary.")

let train_out_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT")

let train_ngrams_arg =
  Arg.(value & opt int 0 & info [ "ngrams" ] ~docv:"N"
       ~doc:"Train on $(docv) synthetic n-gram keys instead of stdin \
             lines.")

let sample_arg =
  Arg.(value & opt int 4096 & info [ "sample" ] ~docv:"K"
       ~doc:"Reservoir-sample size the dictionary is trained on.")

let no_preflight_arg =
  Arg.(value & flag & info [ "no-preflight" ]
       ~doc:"Skip the static lint/racecheck preflight over the source tree.")

let check_json_arg =
  Arg.(value & flag & info [ "json" ]
       ~doc:"Print the static-analysis report as a single JSON document \
             (the dynamic store report stays textual).")

let train_seed_arg =
  Arg.(value & opt int64 20190301L & info [ "seed" ] ~docv:"SEED"
       ~doc:"Reservoir-sampling seed (deterministic training).")

let cmds =
  [
    Cmd.v (Cmd.info "demo" ~doc:"Paper example words") Term.(const demo $ const ());
    Cmd.v (Cmd.info "load-ints" ~doc:"Sequential integer load") Term.(const load_ints $ n_arg $ shards_arg);
    Cmd.v (Cmd.info "load-ngrams" ~doc:"Synthetic n-gram load") Term.(const load_ngrams $ n_arg $ shards_arg);
    Cmd.v
      (Cmd.info "audit"
         ~doc:"Apply put/add/del lines from stdin, then validate structure; \
               with $(b,--dir), run against (and log into) a recovered \
               store.  Exits 1 when violations are found")
      Term.(const audit $ dir_arg);
    Cmd.v
      (Cmd.info "chaos"
         ~doc:"Seeded differential run against the red-black-tree oracle \
               with fault injection; $(b,--crash) switches to the \
               crash-recovery mode; $(b,--diskfault) to the storage-fault \
               mode (I/O fault injection, degraded read-only mode, heal, \
               supervised shard restarts); $(b,--dir) recovers the store \
               first; $(b,--shards) > 1 runs concurrent client domains \
               against the sharded front-end.  $(b,--heapcheck false) \
               disables the per-audit heap sanitizer; $(b,--no-preflight) \
               skips the static lint/racecheck preflight.  Exits 1 on \
               divergence or preflight violations")
      Term.(const chaos $ no_preflight_arg $ seed_arg $ ops_arg $ per_mille_arg $ crash_arg $ diskfault_arg $ dir_arg $ shards_arg $ metrics_every_arg $ heapcheck_arg $ compress_flag_arg $ dict_arg);
    Cmd.v
      (Cmd.info "health"
         ~doc:"Open a sharded durability directory and report per-shard \
               health: worker liveness, degraded read-only state, mailbox \
               backlog — plus a Prometheus-style \
               $(b,hyperion_shard_up)/$(b,hyperion_shard_degraded) \
               snapshot.  Exits 0 only when every shard is up and writable")
      Term.(const health $ dir_pos_arg $ health_shards_arg $ compress_flag_arg $ dict_arg);
    Cmd.v
      (Cmd.info "save"
         ~doc:"Apply put/add/del lines from stdin, then write a one-shot \
               binary snapshot to $(i,FILE); with $(b,--shards) > 1, \
               $(i,FILE) is a sharded durability directory instead")
      Term.(const save $ path_pos_arg $ shards_arg $ compress_flag_arg $ dict_arg);
    Cmd.v
      (Cmd.info "train"
         ~doc:"Train the order-preserving key-compression dictionary on a \
               reservoir sample of keys (stdin lines, or $(b,--ngrams) \
               $(i,N) synthetic keys) and write the blob to $(i,OUT) for \
               later $(b,--dict) use")
      Term.(const train $ train_out_arg $ train_ngrams_arg $ sample_arg $ train_seed_arg);
    Cmd.v
      (Cmd.info "load"
         ~doc:"Load a snapshot written by $(b,save) (or the repl) and \
               report stats; $(b,--dump) prints every binding; with \
               $(b,--shards) > 1, $(i,FILE) is a sharded durability \
               directory instead")
      Term.(const load $ path_pos_arg $ dump_arg $ shards_arg $ compress_flag_arg $ dict_arg);
    Cmd.v
      (Cmd.info "recover"
         ~doc:"Open a durability directory — latest valid snapshot plus \
               write-ahead-log replay — then validate the recovered store; \
               with $(b,--shards) > 1, a sharded directory recovered in \
               parallel.  Exits 1 on violations, 3 on corruption")
      Term.(const recover $ dir_pos_arg $ shards_arg $ compress_flag_arg $ dict_arg);
    Cmd.v
      (Cmd.info "check"
         ~doc:"Run the full analyzer suite — the static passes (source \
               lint plus the typedtree Racecheck lock-discipline analyzer, \
               when run inside the source tree) and then structural \
               validation plus the mark-and-sweep heap sanitizer — over a \
               store built from stdin mutations, a snapshot $(i,FILE), or \
               a recovered $(b,--dir) (sharded tree with $(b,--shards) > \
               1).  $(b,--json) prints the static report as one JSON \
               document.  Exits 1 when any check fails")
      Term.(const check $ file_opt_arg $ dir_arg $ shards_arg $ check_json_arg);
    Cmd.v (Cmd.info "repl" ~doc:"Line-oriented REPL on stdin") Term.(const repl $ const ());
    Cmd.v
      (Cmd.info "metrics"
         ~doc:"Load a snapshot $(i,FILE) (or recover $(b,--dir), or a \
               sharded tree with $(b,--shards) > 1), probe it with an \
               instrumented read sweep, and print every registered metric \
               in the Prometheus text exposition format plus the slow-op \
               trace ring")
      Term.(const metrics $ file_opt_arg $ dir_arg $ shards_arg $ probe_arg);
    Cmd.v
      (Cmd.info "bench"
         ~doc:"Run a telemetry-instrumented experiment; $(b,insert) loads \
               the same seeded n-gram workload with telemetry off then on, \
               reporting throughput, latency percentiles and the measured \
               telemetry overhead; $(b,compress) re-measures bytes/key and \
               op latency with the trained key-compression dictionary \
               against an identity arm.  $(b,--json) $(i,DIR) writes \
               BENCH_<experiment>.json (schema 2)")
      Term.(const bench_cmd $ experiment_arg $ bench_n_arg $ json_dir_arg $ metrics_every_arg);
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Run the TCP serving front-end: the length-prefixed pipelined \
               binary protocol on $(b,--port), optionally the \
               memcached-text subset on $(b,--memcached-port); the store \
               is in-memory ($(b,--shards) worker domains) or recovered \
               from a durable $(b,--dir).  $(b,--duration) 0 serves until \
               killed.  Exits 3 when the bind or recovery fails")
      Term.(const serve $ port_arg $ mc_port_arg $ shards_arg $ dir_arg $ duration_arg $ compress_flag_arg $ dict_arg);
    Cmd.v
      (Cmd.info "loadgen"
         ~doc:"Open-loop load generator with \
               coordinated-omission-safe latency (measured from scheduled \
               send times).  Default: a self-contained loopback acceptance \
               matrix — binary and memcached, 1 and 4 shards — preloading \
               the key universe and using ephemeral ports; $(b,--connect) \
               $(i,HOST:PORT) drives an external server instead.  \
               $(b,--json) $(i,DIR) writes BENCH_serve.json (schema 2).  \
               Exits 1 when any request errored, 3 when a connection \
               failed")
      Term.(const loadgen_cmd $ connect_arg $ protocol_arg $ qps_arg $ lg_duration_arg $ conns_arg $ depth_arg $ read_fraction_arg $ lg_keys_arg $ lg_seed_arg $ arrival_arg $ json_dir_arg);
  ]

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "hyperion_cli" ~version:"1.0.0"
             ~doc:"Hyperion in-memory search tree CLI")
          cmds))
