(* hyperion.net server semantics over a loopback socket: pipelined
   put/get/batch round trips with out-of-order correlation, stats and
   health, typed Degraded errors over the wire when a shard's storage
   fails, malformed frames answered without dropping the connection,
   oversized frames closing it, the memcached-text listener, reads that
   never wait behind a mutation, hundreds of connections on the one loop
   thread, and clean server shutdown. *)

module H = Hyperion
module E = H.Hyperion_error
module Sh = Hyperion_shard
module F = Hyperion_net.Frame
module Server = Hyperion_net.Server
module Client = Hyperion_net.Client
module Io = Persist.Io

let cfg = { H.Config.strings with chunks_per_bin = 64 }

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyperion_net_test_%d_%d" (Unix.getpid ()) !counter)

let wipe_tree dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun entry ->
        let p = Filename.concat dir entry in
        if Sys.is_directory p then begin
          Array.iter (fun f -> Sys.remove (Filename.concat p f)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let ok what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

let start_server ?(shards = 2) ?memcached () =
  let t = Sh.create ~config:cfg ~shards () in
  let config =
    {
      Server.default_config with
      port = 0;
      memcached_port = (if memcached = Some true then Some 0 else None);
    }
  in
  let srv = ok "server start" (Server.start ~config t) in
  (t, srv)

let stop_server (t, srv) =
  Server.stop srv;
  match Sh.close t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "close: %s" (E.to_string e)

let connect srv = ok "connect" (Client.connect ~port:(Server.port srv) ())

let expect what want got =
  if got <> want then Alcotest.failf "%s: unexpected response" what

(* --- basic round trips ------------------------------------------------- *)

let test_basic_ops () =
  let (t, srv) = start_server () in
  let cl = connect srv in
  expect "put" F.Ack (ok "put" (Client.request cl (F.Put ("alpha key", 1L))));
  expect "add" F.Ack (ok "add" (Client.request cl (F.Add "beta key")));
  expect "get hit" (F.Value (Some 1L))
    (ok "get" (Client.request cl (F.Get "alpha key")));
  expect "get valueless" (F.Value None)
    (ok "get" (Client.request cl (F.Get "beta key")));
  expect "get miss" (F.Value None)
    (ok "get" (Client.request cl (F.Get "nope")));
  expect "mem hit" (F.Found true)
    (ok "mem" (Client.request cl (F.Mem "beta key")));
  expect "mem miss" (F.Found false) (ok "mem" (Client.request cl (F.Mem "zzz")));
  expect "delete hit" (F.Found true)
    (ok "delete" (Client.request cl (F.Delete "beta key")));
  expect "delete miss" (F.Found false)
    (ok "delete" (Client.request cl (F.Delete "beta key")));
  (* empty key: typed protocol error, not a dropped connection *)
  (match ok "empty key" (Client.request cl (F.Get "")) with
  | F.Err (F.E_empty_key, _) -> ()
  | _ -> Alcotest.fail "empty key must answer E_empty_key");
  Client.close cl;
  stop_server (t, srv)

let test_batch_and_stats () =
  let (t, srv) = start_server () in
  let cl = connect srv in
  let ops =
    Array.init 100 (fun i ->
        F.Bput (Printf.sprintf "batch key %03d" i, Int64.of_int i))
  in
  expect "batch" (F.Applied 100) (ok "batch" (Client.request cl (F.Batch ops)));
  expect "batched key" (F.Value (Some 42L))
    (ok "get" (Client.request cl (F.Get "batch key 042")));
  (match ok "stats" (Client.request cl F.Stats) with
  | F.Stats_r st ->
      Alcotest.(check int64) "keys" 100L st.F.st_keys;
      Alcotest.(check int) "shards" 2 st.F.st_shards;
      Alcotest.(check bool) "bytes > 0" true (st.F.st_resident_bytes > 0L)
  | _ -> Alcotest.fail "stats response expected");
  (match ok "health" (Client.request cl F.Health) with
  | F.Health_r hs ->
      Alcotest.(check int) "health entries" 2 (Array.length hs);
      Array.iter
        (fun h ->
          Alcotest.(check bool) "alive" true h.F.sh_alive;
          Alcotest.(check bool) "not degraded" false h.F.sh_degraded)
        hs
  | _ -> Alcotest.fail "health response expected");
  Client.close cl;
  stop_server (t, srv)

(* --- pipelining: many in flight, correlate by id ----------------------- *)

let test_pipelined_out_of_order () =
  let (t, srv) = start_server () in
  let cl = connect srv in
  let n = 64 in
  for i = 0 to n - 1 do
    let req =
      if i mod 2 = 0 then F.Put (Printf.sprintf "pipe key %d" i, Int64.of_int i)
      else F.Get (Printf.sprintf "pipe key %d" (i - 1))
    in
    match Client.send cl ~id:(1000 + i) req with
    | Ok () -> ()
    | Error m -> Alcotest.failf "send %d: %s" i m
  done;
  let seen = Hashtbl.create n in
  for _ = 1 to n do
    match Client.recv cl with
    | Error m -> Alcotest.failf "recv: %s" m
    | Ok (id, resp) ->
        if id < 1000 || id >= 1000 + n then Alcotest.failf "alien id %d" id;
        if Hashtbl.mem seen id then Alcotest.failf "duplicate id %d" id;
        Hashtbl.add seen id resp
  done;
  Alcotest.(check int) "all answered" n (Hashtbl.length seen);
  (* every put acked; gets answered (Some when the put was already
     applied, None when the lock-free read overtook it — both legal) *)
  Hashtbl.iter
    (fun id resp ->
      if (id - 1000) mod 2 = 0 then expect "pipelined put" F.Ack resp
      else
        match resp with
        | F.Value _ -> ()
        | _ -> Alcotest.failf "pipelined get %d: wrong shape" id)
    seen;
  Client.close cl;
  stop_server (t, srv)

(* --- protocol errors --------------------------------------------------- *)

let test_bad_frame_keeps_connection () =
  let (t, srv) = start_server () in
  let cl = connect srv in
  (* unknown opcode: answered with E_bad_request *)
  (match Client.send cl ~id:5 (F.Get "probe") with
  | Ok () -> ()
  | Error m -> Alcotest.failf "send: %s" m);
  (match Client.recv cl with
  | Ok (5, F.Value None) -> ()
  | Ok _ -> Alcotest.fail "probe get answered wrong"
  | Error m -> Alcotest.failf "recv: %s" m);
  (* hand-craft a frame with an unknown tag *)
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.port srv));
  let raw = Bytes.create 10 in
  Bytes.set_int32_le raw 0 6l;
  (* len *)
  Bytes.set_int32_le raw 4 9l;
  (* id *)
  Bytes.set raw 8 '\x63';
  (* unknown tag *)
  Bytes.set raw 9 'x';
  let _ = Unix.write sock raw 0 10 in
  let dec = F.Decoder.create () in
  let rbuf = Bytes.create 4096 in
  let rec read_frame () =
    match F.Decoder.next dec with
    | F.Frame (id, tag, payload) -> (id, tag, payload)
    | F.Corrupt m -> Alcotest.failf "client-side corrupt: %s" m
    | F.Need_more -> (
        match Unix.read sock rbuf 0 (Bytes.length rbuf) with
        | 0 -> Alcotest.fail "server closed on a recoverable bad frame"
        | n ->
            F.Decoder.feed dec rbuf 0 n;
            read_frame ())
  in
  let id, tag, payload = read_frame () in
  Alcotest.(check int) "id echoed" 9 id;
  (match F.parse_response ~tag payload with
  | Ok (F.Err (F.E_bad_request, _)) -> ()
  | Ok _ -> Alcotest.fail "expected E_bad_request"
  | Error m -> Alcotest.failf "parse: %s" m);
  (* the same connection still serves valid requests *)
  let buf = Buffer.create 32 in
  F.encode_request buf ~id:10 (F.Mem "probe");
  let s = Buffer.contents buf in
  let _ = Unix.write_substring sock s 0 (String.length s) in
  let id2, tag2, payload2 = read_frame () in
  Alcotest.(check int) "second id" 10 id2;
  (match F.parse_response ~tag:tag2 payload2 with
  | Ok (F.Found false) -> ()
  | Ok _ -> Alcotest.fail "mem after bad frame answered wrong"
  | Error m -> Alcotest.failf "parse: %s" m);
  Unix.close sock;
  Client.close cl;
  stop_server (t, srv)

let test_oversized_frame_closes_connection () =
  let (t, srv) = start_server () in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.port srv));
  let raw = Bytes.create 4 in
  Bytes.set_int32_le raw 0 (Int32.of_int (F.max_frame_len + 1));
  let _ = Unix.write sock raw 0 4 in
  (* the server answers E_too_large (id 0) and then closes: read until EOF *)
  let rbuf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec drain () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "server kept an oversized-frame connection open"
    else
      match Unix.read sock rbuf 0 (Bytes.length rbuf) with
      | 0 -> ()
      | _ -> drain ()
  in
  drain ();
  Unix.close sock;
  stop_server (t, srv)

(* --- degraded shard: typed error over the wire ------------------------- *)

let test_degraded_over_wire () =
  let dir = fresh_dir () in
  let shards = 2 in
  let ios = Array.init shards (fun _ -> Io.make ~max_retries:0 ()) in
  let t =
    match
      Sh.open_durable ~config:cfg ~shards ~sync_every_ops:2
        ~io_for_shard:(fun i -> ios.(i)) dir
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "open_durable: %s" (E.to_string e)
  in
  let srv =
    ok "server start"
      (Server.start ~config:{ Server.default_config with port = 0 } t)
  in
  let cl = connect srv in
  expect "durable put" F.Ack
    (ok "put" (Client.request cl (F.Put ("durable key", 1L))));
  (* arm a one-shot write fault on every shard's next I/O, then mutate
     until one trips into sticky degraded mode *)
  Array.iter
    (fun io -> Io.set_plan io (Fault.fire_at [ (Fault.Io_write_eio, 1) ]))
    ios;
  let saw_degraded = ref false in
  (try
     for i = 0 to 199 do
       match
         ok "put-under-fault"
           (Client.request cl (F.Put (Printf.sprintf "fault key %d" i, 7L)))
       with
       | F.Err (F.E_degraded, _) ->
           saw_degraded := true;
           raise Exit
       | F.Err (F.E_io, _) | F.Ack -> ()
       | _ -> Alcotest.fail "unexpected response under fault"
     done
   with Exit -> ());
  Alcotest.(check bool) "Degraded surfaced over the wire" true !saw_degraded;
  (* reads still served while degraded *)
  expect "degraded read" (F.Value (Some 1L))
    (ok "get" (Client.request cl (F.Get "durable key")));
  (match ok "health" (Client.request cl F.Health) with
  | F.Health_r hs ->
      Alcotest.(check bool) "one shard reports degraded" true
        (Array.exists (fun h -> h.F.sh_degraded) hs)
  | _ -> Alcotest.fail "health response expected");
  (* disarm and heal: mutations come back *)
  Array.iter Io.disarm ios;
  (match Sh.heal t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "heal: %s" (E.to_string e));
  expect "healed put" F.Ack
    (ok "put" (Client.request cl (F.Put ("healed key", 2L))));
  Client.close cl;
  Server.stop srv;
  (match Sh.close t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "close: %s" (E.to_string e));
  wipe_tree dir

(* --- shard down: typed error over the wire ----------------------------- *)

let test_shard_down_over_wire () =
  let (t, srv) = start_server ~shards:2 () in
  let cl = connect srv in
  (* find a key owned by shard 0, then poison that worker *)
  let rec key_for i b =
    if b > 255 then Alcotest.failf "no key for shard %d" i
    else
      let k = Printf.sprintf "%c down probe" (Char.chr b) in
      if Sh.shard_of_key t k = i then k else key_for i (b + 1)
  in
  let k0 = key_for 0 1 in
  ignore (Sh.poison t ~shard:0 ~reason:"net-server test kill");
  (* the poison trips on the next op the worker dequeues *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec until_down () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "shard death never surfaced over the wire"
    else
      match ok "put at dead shard" (Client.request cl (F.Put (k0, 3L))) with
      | F.Err (F.E_shard_down, _) -> ()
      | F.Ack | F.Err _ -> until_down ()
      | _ -> Alcotest.fail "unexpected response shape"
  in
  until_down ();
  (* health reflects the dead worker *)
  (match ok "health" (Client.request cl F.Health) with
  | F.Health_r hs ->
      Alcotest.(check bool) "a shard reports dead" true
        (Array.exists (fun h -> not h.F.sh_alive) hs)
  | _ -> Alcotest.fail "health response expected");
  Client.close cl;
  Server.stop srv;
  (match Sh.close t with
  | Ok () -> ()
  | Error (E.Shard_down _) -> ()
  | Error e -> Alcotest.failf "close: %s" (E.to_string e))

(* --- memcached-text listener ------------------------------------------- *)

let mc_connect srv =
  match Server.memcached_port srv with
  | None -> Alcotest.fail "memcached listener missing"
  | Some port ->
      let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      sock

let mc_send sock s = ignore (Unix.write_substring sock s 0 (String.length s))

(* read until the accumulated reply contains [stop] *)
let mc_read_until sock stop =
  let buf = Buffer.create 256 in
  let rbuf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let contains () =
    let hay = Buffer.contents buf in
    let n = String.length hay and m = String.length stop in
    let rec at i = i + m <= n && (String.sub hay i m = stop || at (i + 1)) in
    at 0
  in
  let rec go () =
    if contains () then Buffer.contents buf
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %S; got %S" stop
        (Buffer.contents buf)
    else
      match Unix.read sock rbuf 0 (Bytes.length rbuf) with
      | 0 -> Alcotest.failf "EOF waiting for %S" stop
      | n ->
          Buffer.add_subbytes buf rbuf 0 n;
          go ()
  in
  go ()

let test_memcached_text () =
  let (t, srv) = start_server ~memcached:true () in
  let sock = mc_connect srv in
  mc_send sock "set mckey 0 0 2\r\n42\r\n";
  let r = mc_read_until sock "\r\n" in
  Alcotest.(check string) "set" "STORED\r\n" r;
  mc_send sock "get mckey\r\n";
  let r = mc_read_until sock "END\r\n" in
  Alcotest.(check string) "get" "VALUE mckey 0 2\r\n42\r\nEND\r\n" r;
  mc_send sock "get missing\r\n";
  let r = mc_read_until sock "END\r\n" in
  Alcotest.(check string) "miss" "END\r\n" r;
  mc_send sock "delete mckey\r\n";
  let r = mc_read_until sock "\r\n" in
  Alcotest.(check string) "delete" "DELETED\r\n" r;
  mc_send sock "delete mckey\r\n";
  let r = mc_read_until sock "\r\n" in
  Alcotest.(check string) "delete miss" "NOT_FOUND\r\n" r;
  (* valueless member via an empty data block *)
  mc_send sock "set member 0 0 0\r\n\r\n";
  let r = mc_read_until sock "\r\n" in
  Alcotest.(check string) "empty set" "STORED\r\n" r;
  mc_send sock "get member\r\n";
  let r = mc_read_until sock "END\r\n" in
  Alcotest.(check string) "valueless get" "VALUE member 0 0\r\n\r\nEND\r\n" r;
  (* stats mentions the store *)
  mc_send sock "stats\r\n";
  let r = mc_read_until sock "END\r\n" in
  Alcotest.(check bool) "stats has curr_items" true
    (String.length r > 0
    && String.sub r 0 (min 5 (String.length r)) = "STAT ");
  mc_send sock "quit\r\n";
  Unix.close sock;
  stop_server (t, srv)

(* Commands pipelined in one write, and a data block split across
   writes: replies come back in command order, and a get after a set on
   the same connection sees it (the loop does not parse the next command
   while a mutation is in flight). *)
let test_memcached_pipelined_in_order () =
  let (t, srv) = start_server ~memcached:true () in
  let sock = mc_connect srv in
  mc_send sock
    "set pa 0 0 1\r\n7\r\nget pa\r\nset pb 0 0 2 noreply\r\n11\r\n\
     delete pa\r\nget pa pb\r\n";
  let r = mc_read_until sock "VALUE pb 0 2\r\n11\r\nEND\r\n" in
  Alcotest.(check string) "in order"
    "STORED\r\nVALUE pa 0 1\r\n7\r\nEND\r\nDELETED\r\n\
     VALUE pb 0 2\r\n11\r\nEND\r\n"
    r;
  mc_send sock "set split 0 0 3\r\n4";
  Thread.delay 0.05;
  mc_send sock "2";
  Thread.delay 0.05;
  mc_send sock "1\r\nget split\r\n";
  let r = mc_read_until sock "END\r\n" in
  Alcotest.(check string) "split data block" "STORED\r\nVALUE split 0 3\r\n421\r\nEND\r\n" r;
  Unix.close sock;
  stop_server (t, srv)

(* --- pipelined read bursts through the batched path -------------------- *)

(* Same registered metric as lib/core — registration is idempotent, so
   this reads the engine's own counter. *)
let c_prefetch =
  Telemetry.Counter.make "hyperion_prefetch_issued_total"
    ~help:"Software prefetches issued by the batched read path"

(* A connection's queued Get/Mem frames drain into one [Sh.get_many]/
   [Sh.mem_many] call: every response must still correlate by id with the
   exact sequential answer, and the engine's prefetch counter moving
   proves the burst really went through the pipelined path. *)
let test_pipelined_get_burst () =
  let (t, srv) = start_server () in
  let n = 4000 in
  for i = 0 to n - 1 do
    Sh.put t (Printf.sprintf "burst key %05d" i) (Int64.of_int i)
  done;
  let cl = connect srv in
  let was = Telemetry.enabled () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let m = 256 in
  let expect_tbl = Hashtbl.create m in
  for j = 0 to m - 1 do
    let id = 9000 + j in
    let i = j * 97 mod n in
    let base = Printf.sprintf "burst key %05d" i in
    let req, want =
      match j mod 4 with
      | 0 -> (F.Get base, F.Value (Some (Int64.of_int i)))
      | 1 -> (F.Get (base ^ "\x01"), F.Value None)
      | 2 -> (F.Mem base, F.Found true)
      | _ -> (F.Mem (base ^ "\x01"), F.Found false)
    in
    Hashtbl.replace expect_tbl id want;
    match Client.send cl ~id req with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "send %d: %s" j msg
  done;
  for _ = 1 to m do
    match Client.recv cl with
    | Error msg -> Alcotest.failf "recv: %s" msg
    | Ok (id, resp) -> (
        match Hashtbl.find_opt expect_tbl id with
        | None -> Alcotest.failf "alien or duplicate id %d" id
        | Some want ->
            if resp <> want then Alcotest.failf "id %d: wrong response" id;
            Hashtbl.remove expect_tbl id)
  done;
  Alcotest.(check int) "all answered" 0 (Hashtbl.length expect_tbl);
  let prefetches = Telemetry.Counter.value c_prefetch in
  Telemetry.set_enabled was;
  Alcotest.(check bool) "burst served via the batched path" true
    (prefetches > 0);
  Client.close cl;
  stop_server (t, srv)

(* The burst survives sick shards: with shard 0 dead and shard 1 sticky-
   degraded, a pipelined burst of reads is still answered exactly (the
   direct read door serves down and degraded shards alike), while the
   mutation frames wedged mid-burst come back as their typed errors. *)
let test_burst_with_down_and_degraded_shards () =
  let dir = fresh_dir () in
  let shards = 2 in
  let ios = Array.init shards (fun _ -> Io.make ~max_retries:0 ()) in
  let t =
    match
      Sh.open_durable ~config:cfg ~shards ~sync_every_ops:2
        ~io_for_shard:(fun i -> ios.(i)) dir
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "open_durable: %s" (E.to_string e)
  in
  let srv =
    ok "server start"
      (Server.start ~config:{ Server.default_config with port = 0 } t)
  in
  (* sacrificial keys with a known owner, for degrading/killing workers
     and for the mid-burst mutation frames *)
  let key_owned i =
    let rec go b =
      if b > 255 then Alcotest.failf "no key for shard %d" i
      else
        let k = Printf.sprintf "%c sick shard probe" (Char.chr b) in
        if Sh.shard_of_key t k = i then k else go (b + 1)
    in
    go 1
  in
  let k0 = key_owned 0 and k1 = key_owned 1 in
  (* spread the read set over both shards: the leading byte routes *)
  let sick_key i = Printf.sprintf "%csick key %03d" (Char.chr (1 + (i mod 128))) i in
  let n = 200 in
  for i = 0 to n - 1 do
    Sh.put t (sick_key i) (Int64.of_int i)
  done;
  (* degrade shard 1: one-shot WAL write fault, mutate until sticky *)
  Io.set_plan ios.(1) (Fault.fire_at [ (Fault.Io_write_eio, 1) ]);
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec degrade () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "shard 1 never degraded"
    else
      match Sh.put_result t k1 7L with
      | Error (E.Degraded _) -> ()
      | Ok () | Error _ -> degrade ()
  in
  degrade ();
  Io.disarm ios.(1);
  (* kill shard 0: poison trips on the next op its worker dequeues *)
  ignore (Sh.poison t ~shard:0 ~reason:"burst test kill");
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec until_down () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "shard 0 never died"
    else
      match Sh.put_result t k0 7L with
      | Error (E.Shard_down _) -> ()
      | Ok () | Error _ -> until_down ()
  in
  until_down ();
  let cl = connect srv in
  (* pipelined burst: reads across both shards (hits and misses) with a
     shard-down Put and a degraded Put wedged mid-burst *)
  let m = 80 in
  let expect_tbl = Hashtbl.create m in
  for j = 0 to m - 1 do
    let id = 7000 + j in
    let req, check =
      if j = 25 then
        (F.Put (k0, 9L), fun r ->
          match r with F.Err (F.E_shard_down, _) -> true | _ -> false)
      else if j = 55 then
        (F.Put (k1, 9L), fun r ->
          match r with F.Err (F.E_degraded, _) -> true | _ -> false)
      else
        let i = j * 13 mod n in
        let base = sick_key i in
        match j mod 3 with
        | 0 -> (F.Get base, fun r -> r = F.Value (Some (Int64.of_int i)))
        | 1 -> (F.Mem base, fun r -> r = F.Found true)
        | _ -> (F.Get (base ^ "\x01"), fun r -> r = F.Value None)
    in
    Hashtbl.replace expect_tbl id check;
    match Client.send cl ~id req with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "send %d: %s" j msg
  done;
  for _ = 1 to m do
    match Client.recv cl with
    | Error msg -> Alcotest.failf "recv: %s" msg
    | Ok (id, resp) -> (
        match Hashtbl.find_opt expect_tbl id with
        | None -> Alcotest.failf "alien or duplicate id %d" id
        | Some check ->
            if not (check resp) then
              Alcotest.failf "id %d: wrong response shape" id;
            Hashtbl.remove expect_tbl id)
  done;
  Alcotest.(check int) "all answered" 0 (Hashtbl.length expect_tbl);
  Client.close cl;
  Server.stop srv;
  Array.iter Io.disarm ios;
  (match Sh.close t with
  | Ok () | Error (E.Shard_down _) -> ()
  | Error e -> Alcotest.failf "close: %s" (E.to_string e));
  wipe_tree dir

(* --- reads never wait for mutations ------------------------------------ *)

(* Wait up to 5 s for a response; a hang here means the server made a
   read wait behind a mutation that cannot complete. *)
let recv_within cl what =
  if not (Client.poll cl 5.0) then Alcotest.failf "%s: no response within 5 s" what;
  match Client.recv cl with Ok r -> r | Error m -> Alcotest.failf "%s: %s" what m

(* With every shard worker parked at a quiesce barrier, a Put cannot be
   applied; the 32 Gets pipelined behind it on the same connection must
   still all be answered, and the Put's ack must arrive only after the
   barrier lifts. *)
let test_reads_not_queued_behind_mutation () =
  let (t, srv) = start_server () in
  let key j = Printf.sprintf "%c read-through %02d" (Char.chr (65 + (j * 5))) j in
  for j = 0 to 31 do
    Sh.put t (key j) (Int64.of_int j)
  done;
  let cl = connect srv in
  let send id req =
    match Client.send cl ~id req with Ok () -> () | Error m -> Alcotest.failf "send: %s" m
  in
  Sh.with_quiesced t (fun _ ->
      send 1 (F.Put ("held key", 5L));
      for j = 0 to 31 do
        send (100 + j) (F.Get (key j))
      done;
      for _ = 0 to 31 do
        match recv_within cl "get behind a held put" with
        | 1, _ -> Alcotest.fail "put acknowledged while the shards were quiesced"
        | id, resp ->
            if id < 100 || id > 131 then Alcotest.failf "alien id %d" id;
            expect (Printf.sprintf "get %d" id)
              (F.Value (Some (Int64.of_int (id - 100))))
              resp
      done);
  (match recv_within cl "put after release" with
  | 1, F.Ack -> ()
  | id, _ -> Alcotest.failf "expected the put's ack, got id %d" id);
  expect "held key reads back" (F.Value (Some 5L))
    (ok "get" (Client.request cl (F.Get "held key")));
  Client.close cl;
  stop_server (t, srv)

(* --- many connections, one loop --------------------------------------- *)

(* One active client's pipelined rounds: 8 puts, a 4-put batch, a miss,
   and (after the first round) gets of everything the previous round
   wrote.  Returns what went wrong, if anything. *)
let active_client cl ci =
  let key r j = Printf.sprintf "%c conn %d round %02d key %02d" (Char.chr (97 + ci)) ci r j in
  let value r j = Int64.of_int ((ci * 100_000) + (r * 100) + j) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  for r = 0 to 19 do
    let want = Hashtbl.create 32 in
    let send id req expected =
      Hashtbl.replace want id expected;
      match Client.send cl ~id req with
      | Ok () -> ()
      | Error m -> problem "client %d send: %s" ci m
    in
    for j = 0 to 7 do
      send ((r * 100) + j) (F.Put (key r j, value r j)) F.Ack
    done;
    send ((r * 100) + 8)
      (F.Batch (Array.init 4 (fun b -> F.Bput (key r (10 + b), value r (10 + b)))))
      (F.Applied 4);
    send ((r * 100) + 9) (F.Get (key r 99)) (F.Value None);
    if r > 0 then
      List.iter
        (fun j -> send ((r * 100) + 20 + j) (F.Get (key (r - 1) j)) (F.Value (Some (value (r - 1) j))))
        [ 0; 1; 2; 3; 4; 5; 6; 7; 10; 11; 12; 13 ];
    for _ = 1 to Hashtbl.length want do
      match Client.recv cl with
      | Error m -> problem "client %d recv: %s" ci m
      | Ok (id, resp) -> (
          match Hashtbl.find_opt want id with
          | None -> problem "client %d: alien or duplicate id %d" ci id
          | Some w ->
              if resp <> w then problem "client %d: id %d answered wrong" ci id;
              Hashtbl.remove want id)
    done
  done;
  List.rev !problems

let test_many_connections () =
  let (t, srv) = start_server () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.port srv) in
  let active = Array.init 4 (fun _ -> connect srv) in
  let idle =
    Array.init 512 (fun _ ->
        let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect s addr;
        s)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Server.connections srv < 516 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check int) "every connection accepted" 516 (Server.connections srv);
  let results = Array.make 4 [] in
  let threads =
    Array.mapi
      (fun ci cl -> Thread.create (fun () -> results.(ci) <- active_client cl ci) ())
      active
  in
  Array.iter Thread.join threads;
  Array.iter (List.iter (fun m -> Alcotest.fail m)) results;
  Alcotest.(check int) "still 516 connections" 516 (Server.connections srv);
  let t0 = Unix.gettimeofday () in
  Server.stop srv;
  let took = Unix.gettimeofday () -. t0 in
  if took > 2.0 then Alcotest.failf "stop took %.2f s" took;
  Alcotest.(check int) "no connections after stop" 0 (Server.connections srv);
  (* the server closed its end of every socket: each read sees EOF *)
  let rbuf = Bytes.create 64 in
  Array.iteri
    (fun i s ->
      Unix.setsockopt_float s Unix.SO_RCVTIMEO 5.0;
      (match Unix.read s rbuf 0 64 with
      | 0 -> ()
      | _ -> Alcotest.failf "idle socket %d received data" i
      | exception Unix.Unix_error (e, _, _) ->
          Alcotest.failf "idle socket %d not closed by the server: %s" i
            (Unix.error_message e));
      Unix.close s)
    idle;
  Array.iteri
    (fun i cl ->
      match Client.recv cl with
      | Error _ -> Client.close cl
      | Ok _ -> Alcotest.failf "active client %d got a stray response" i)
    active;
  match Sh.close t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "close: %s" (E.to_string e)

(* --- clean shutdown under load ----------------------------------------- *)

let test_stop_with_live_connections () =
  let (t, srv) = start_server () in
  let cl = connect srv in
  expect "put" F.Ack (ok "put" (Client.request cl (F.Put ("live key", 1L))));
  (* stop with the connection still open: must not hang, and is idempotent *)
  Server.stop srv;
  Server.stop srv;
  Alcotest.(check int) "no connections after stop" 0 (Server.connections srv);
  Client.close cl;
  match Sh.close t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "close: %s" (E.to_string e)

let () =
  Alcotest.run "net-server"
    [
      ( "round-trip",
        [
          Alcotest.test_case "basic ops" `Quick test_basic_ops;
          Alcotest.test_case "batch + stats + health" `Quick
            test_batch_and_stats;
          Alcotest.test_case "pipelined out-of-order" `Quick
            test_pipelined_out_of_order;
          Alcotest.test_case "reads not queued behind a mutation" `Quick
            test_reads_not_queued_behind_mutation;
        ] );
      ( "errors",
        [
          Alcotest.test_case "bad frame keeps connection" `Quick
            test_bad_frame_keeps_connection;
          Alcotest.test_case "oversized frame closes" `Quick
            test_oversized_frame_closes_connection;
          Alcotest.test_case "degraded over the wire" `Quick
            test_degraded_over_wire;
          Alcotest.test_case "shard down over the wire" `Quick
            test_shard_down_over_wire;
        ] );
      ( "burst",
        [
          Alcotest.test_case "pipelined get burst via get_many" `Quick
            test_pipelined_get_burst;
          Alcotest.test_case "burst with down + degraded shards" `Quick
            test_burst_with_down_and_degraded_shards;
        ] );
      ( "memcached",
        [
          Alcotest.test_case "text subset" `Quick test_memcached_text;
          Alcotest.test_case "pipelined commands in order" `Quick
            test_memcached_pipelined_in_order;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "stop with live connections" `Quick
            test_stop_with_live_connections;
          Alcotest.test_case "512 idle + 4 active connections" `Quick
            test_many_connections;
        ] );
    ]
