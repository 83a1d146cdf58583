module H = Hyperion
module Wal = Persist.Wal

type outcome = {
  ops : int;
  mutations_ok : int;
  mutations_failed : int;
  injected_faults : int;
  audits : int;
  saturation_errors : int;
  final_keys : int;
}

let pp_outcome fmt o =
  Format.fprintf fmt
    "%d ops: %d mutations ok, %d rejected (%d saturation), %d faults \
     injected, %d audits, %d keys stored"
    o.ops o.mutations_ok o.mutations_failed o.saturation_errors
    o.injected_faults o.audits o.final_keys

exception Divergence of string

(* Deterministic key shapes: a mix of short, suffixed and prefixed keys so
   the workload exercises path compression, embedded containers and multi-
   container paths, while the same id always denotes the same key. *)
let key_for id =
  let base = Printf.sprintf "%06x" id in
  match id mod 5 with
  | 0 -> base
  | 1 -> base ^ "-tail"
  | 2 -> base ^ String.make (8 + (id mod 40)) 'x'
  | 3 -> "pfx/" ^ base
  | _ -> base ^ "!"

let run ?(config = H.Config.default) ?(compress = Compress.Identity)
    ?(plan = Fault.none) ?(validate_every = 1000) ?(key_space = 4096)
    ?(heapcheck = true) ?on_op ?store ~seed ~ops () =
  if ops < 0 then invalid_arg "Chaos.run: negative ops";
  if key_space <= 0 then invalid_arg "Chaos.run: key_space must be positive";
  if validate_every <= 0 then
    invalid_arg "Chaos.run: validate_every must be positive";
  let rng = Workload.Mt19937_64.create seed in
  let store =
    match store with Some s -> s | None -> H.Store.create ~config ()
  in
  H.Store.set_fault_plan store plan;
  (* The encoder sits where the shard/CLI front doors put it: the store
     only ever sees encoded keys, the oracle only raw ones, and the final
     sweep decodes on the way out — so the run also differentially tests
     the encode/decode round trip under every fault the plan fires. *)
  let enc_key = Compress.encode compress in
  let dec_key op ek =
    match Compress.decode compress ek with
    | Ok k -> k
    | Error why -> raise (Divergence (Printf.sprintf
        "chaos seed=%Ld op=%d: stored key %S fails to decode: %s"
        seed op ek why))
  in
  let oracle = Rbtree.create () in
  (* A pre-existing (e.g. just-recovered) store seeds the oracle, so the
     differential run starts from agreement instead of a false divergence. *)
  H.Store.iter store (fun ek v ->
      let k = dec_key (-1) ek in
      match v with Some v -> Rbtree.put oracle k v | None -> Rbtree.add oracle k);
  let mutations_ok = ref 0
  and mutations_failed = ref 0
  and audits = ref 0
  and saturation_errors = ref 0 in
  let diverge op fmt =
    Printf.ksprintf
      (fun msg ->
        raise
          (Divergence
             (Printf.sprintf "chaos seed=%Ld op=%d: %s; plan: %s" seed op msg
                (Fault.describe plan))))
      fmt
  in
  (* Every audit round also fires a mixed hit/miss batch through the
     pipelined cursor engine: get_many/mem_many must agree with the
     oracle key-for-key under whatever container churn (splices, ejects,
     splits, rolled-back faults) the run has produced so far — the
     negative-lookup tags in particular must still admit every present
     key.  The "\x01#" suffix never occurs in [key_for] output, so those
     probes are guaranteed misses. *)
  let batch_audit op =
    let w = 8 + Workload.Mt19937_64.next_below rng 41 in
    let keys =
      Array.init w (fun _ ->
          let key = key_for (Workload.Mt19937_64.next_below rng key_space) in
          if Workload.Mt19937_64.next_below rng 4 = 0 then key ^ "\x01#"
          else key)
    in
    let width = 1 + Workload.Mt19937_64.next_below rng 32 in
    let ekeys = Array.map enc_key keys in
    let got = H.Store.get_many ~width store ekeys in
    let mems = H.Store.mem_many ~width store ekeys in
    Array.iteri
      (fun i key ->
        let ov = Rbtree.get oracle key in
        if got.(i) <> ov then
          diverge op "batched lookup mismatch on %S (width %d): hyperion=%s \
                      oracle=%s"
            key width
            (match got.(i) with Some v -> Int64.to_string v | None -> "absent")
            (match ov with Some v -> Int64.to_string v | None -> "absent");
        if mems.(i) <> Rbtree.mem oracle key then
          diverge op "batched mem mismatch on %S (width %d): hyperion=%b \
                      oracle=%b"
            key width mems.(i)
            (Rbtree.mem oracle key))
      keys
  in
  let audit op =
    incr audits;
    (match H.Validate.check_store store with
    | [] -> ()
    | errs ->
        diverge op "audit found %d structural violation(s); first: %s"
          (List.length errs)
          (Format.asprintf "%a" H.Validate.pp_error (List.hd errs)));
    (* Heap sanitizer: the record structure can be sound while the
       allocator underneath leaks or double-references chunks, so every
       audit round also mark-and-sweeps the arenas (DESIGN.md section 11). *)
    if heapcheck then
      (match
         Analyze.Heapcheck.first_problem (Analyze.Heapcheck.audit_store store)
       with
      | None -> ()
      | Some p -> diverge op "heap audit: %s" p);
    batch_audit op
  in
  let check_key op key =
    let hv = H.Store.get store (enc_key key) and ov = Rbtree.get oracle key in
    if hv <> ov then
      diverge op "lookup mismatch on %S: hyperion=%s oracle=%s" key
        (match hv with Some v -> Int64.to_string v | None -> "absent")
        (match ov with Some v -> Int64.to_string v | None -> "absent")
  in
  let note_error e =
    incr mutations_failed;
    if e = H.Hyperion_error.Arena_saturated then incr saturation_errors
  in
  try
    for op = 0 to ops - 1 do
      let fired_before = Fault.fired_count plan in
      let id = Workload.Mt19937_64.next_below rng key_space in
      let key = key_for id in
      let dice = Workload.Mt19937_64.next_below rng 100 in
      (if dice < 55 then begin
         let v = Int64.of_int (Workload.Mt19937_64.next_below rng 1_000_000) in
         match H.Store.put_result store (enc_key key) v with
         | Ok () ->
             incr mutations_ok;
             Rbtree.put oracle key v
         | Error e ->
             note_error e;
             (* a rejected put must leave the old binding intact *)
             check_key op key
       end
       else if dice < 75 then begin
         match H.Store.delete_result store (enc_key key) with
         | Ok removed ->
             incr mutations_ok;
             let oracle_removed = Rbtree.delete oracle key in
             if removed <> oracle_removed then
               diverge op "delete %S: hyperion=%b oracle=%b" key removed
                 oracle_removed
         | Error e ->
             note_error e;
             check_key op key
       end
       else if dice < 95 then check_key op key
       else if H.Store.length store <> Rbtree.length oracle then
         diverge op "length mismatch: hyperion=%d oracle=%d"
           (H.Store.length store) (Rbtree.length oracle));
      if Fault.fired_count plan > fired_before then audit op
      else if (op + 1) mod validate_every = 0 then audit op;
      match on_op with Some f -> f op | None -> ()
    done;
    audit ops;
    (* Final full sweep: same bindings, same order. *)
    let expected = ref [] in
    Rbtree.range oracle (fun k v ->
        expected := (k, v) :: !expected;
        true);
    let expected = ref (List.rev !expected) in
    let sweep_pos = ref 0 in
    H.Store.range store (fun ek v ->
        let k = dec_key ops ek in
        (match !expected with
        | [] -> diverge ops "sweep: extra key %S in hyperion" k
        | (ek, ev) :: rest ->
            if k <> ek || v <> ev then
              diverge ops "sweep at #%d: hyperion has %S, oracle has %S"
                !sweep_pos k ek;
            expected := rest);
        incr sweep_pos;
        true);
    (match !expected with
    | [] -> ()
    | (ek, _) :: _ -> diverge ops "sweep: key %S missing from hyperion" ek);
    Ok
      {
        ops;
        mutations_ok = !mutations_ok;
        mutations_failed = !mutations_failed;
        injected_faults = Fault.fired_count plan;
        audits = !audits;
        saturation_errors = !saturation_errors;
        final_keys = H.Store.length store;
      }
  with Divergence msg -> Error msg

(* --- sharded chaos: concurrent clients over the multi-domain front-end *)

type sharded_outcome = {
  sh_shards : int;
  sh_clients : int;
  sh_ops : int;
  sh_mutations : int;
  sh_batched : int;
  sh_audits : int;
  sh_final_keys : int;
  sh_recovered_shards : int;
  sh_replayed : int;
}

let pp_sharded_outcome fmt o =
  Format.fprintf fmt
    "%d ops over %d client(s) x %d shard(s): %d mutations (%d batched), %d \
     quiesced audits, %d keys stored%s"
    o.sh_ops o.sh_clients o.sh_shards o.sh_mutations o.sh_batched o.sh_audits
    o.sh_final_keys
    (if o.sh_recovered_shards > 0 then
       Printf.sprintf "; crash-recovered %d shard(s), %d WAL op(s) replayed"
         o.sh_recovered_shards o.sh_replayed
     else "")

(* One client's acknowledged mutations, in acknowledgement order.  Clients
   own disjoint key sets (ids congruent to the client index), so the final
   store state is deterministic in the seed: replaying every client's log
   sequentially — in any client order — yields the same bindings. *)
type client_report = {
  cr_log : Wal.op list;  (* reversed: newest first *)
  cr_mutations : int;
  cr_batched : int;
  cr_error : string option;
}

let op_key (Wal.Put (k, _) | Wal.Add k | Wal.Delete k) = k

(* Apply one acknowledged mutation to a client's expected bindings, with
   the same per-key transition recovery folds the log with. *)
let apply_expected expected op =
  let k = op_key op in
  match Wal.step (Hashtbl.find_opt expected k) op with
  | Some b -> Hashtbl.replace expected k b
  | None -> Hashtbl.remove expected k

let wipe_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* Remove a two-level durability tree: <dir>/shard-NNN/* then <dir>. *)
let wipe_tree dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then wipe_dir p
        else try Sys.remove p with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let client_seed ~seed c = Int64.add seed (Int64.mul (Int64.of_int (c + 1)) 1_000_003L)

let run_sharded_client store ~seed ~clients ~c ~ops ~key_space =
  let rng = Workload.Mt19937_64.create (client_seed ~seed c) in
  let slots = max 1 (key_space / clients) in
  let expected : (string, int64 option) Hashtbl.t = Hashtbl.create 64 in
  let log = ref [] and mutations = ref 0 and batched = ref 0 in
  let batch = Hyperion_shard.Batch.create store in
  (* mutations buffered in [batch] and not yet visible; applied to
     [expected] (and the log) only when the flush is acknowledged *)
  let pending = ref [] in
  let pending_has key =
    List.exists (fun op -> op_key op = key) !pending
  in
  let err = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        if !err = None then
          err := Some (Printf.sprintf "client %d seed=%Ld: %s" c seed msg))
      fmt
  in
  let apply_expected = apply_expected expected in
  let flush () =
    match !pending with
    | [] -> ()
    | ps -> (
        let n = List.length ps in
        match Hyperion_shard.Batch.flush batch with
        | Ok applied when applied = n ->
            List.iter
              (fun op ->
                apply_expected op;
                log := op :: !log;
                incr mutations;
                incr batched)
              (List.rev ps);
            pending := []
        | Ok applied ->
            fail "batch flush applied %d of %d buffered mutations" applied n
        | Error e ->
            fail "batch flush rejected: %s" (H.Hyperion_error.to_string e))
  in
  let direct op =
    let r =
      match op with
      | Wal.Put (k, v) -> Hyperion_shard.put_result store k v
      | Wal.Add k -> Hyperion_shard.add_result store k
      | Wal.Delete k -> (
          let present = Hashtbl.mem expected k in
          match Hyperion_shard.delete_result store k with
          | Ok removed ->
              if removed <> present then
                fail "delete %S: store=%b expected=%b" k removed present;
              Ok ()
          | Error e -> Error e)
    in
    match r with
    | Ok () ->
        apply_expected op;
        log := op :: !log;
        incr mutations
    | Error e -> fail "mutation rejected: %s" (H.Hyperion_error.to_string e)
  in
  let n_ops = ops in
  (try
     for _op = 0 to n_ops - 1 do
       if !err = None then begin
         let id = c + (clients * Workload.Mt19937_64.next_below rng slots) in
         let key = key_for id in
         let dice = Workload.Mt19937_64.next_below rng 100 in
         if dice < 30 then begin
           (* direct blocking put *)
           let v = Int64.of_int (Workload.Mt19937_64.next_below rng 1_000_000) in
           direct (Wal.Put (key, v))
         end
         else if dice < 45 then begin
           (* batched put/add, flushed every 8 buffered mutations *)
           let v = Int64.of_int (Workload.Mt19937_64.next_below rng 1_000_000) in
           let op =
             if dice < 42 then Wal.Put (key, v) else Wal.Add key
           in
           (match op with
           | Wal.Put (k, v) -> Hyperion_shard.Batch.put batch k v
           | Wal.Add k -> Hyperion_shard.Batch.add batch k
           | Wal.Delete _ -> assert false);
           pending := op :: !pending;
           if Hyperion_shard.Batch.length batch >= 8 then flush ()
         end
         else if dice < 55 then direct (Wal.Add key)
         else if dice < 70 then begin
           if pending_has key then flush ();
           direct (Wal.Delete key)
         end
         else if dice < 90 then begin
           if pending_has key then flush ();
           let got = Hyperion_shard.get store key in
           let want = Option.join (Hashtbl.find_opt expected key) in
           if got <> want then
             fail "get %S: store=%s expected=%s" key
               (match got with Some v -> Int64.to_string v | None -> "absent")
               (match want with Some v -> Int64.to_string v | None -> "absent")
         end
         else if dice < 96 then begin
           if pending_has key then flush ();
           let got = Hyperion_shard.mem store key in
           let want = Hashtbl.mem expected key in
           if got <> want then fail "mem %S: store=%b expected=%b" key got want
         end
         else begin
           (* Mixed hit/miss batch through the direct-door pipelined read
              path.  Clients own disjoint id slices and the "\x01#"
              suffix never occurs in [key_for] output, so every probe is
              either this client's key or a guaranteed miss — the model
              answer is exact even with other clients mutating. *)
           flush ();
           let w = 4 + Workload.Mt19937_64.next_below rng 13 in
           let ks =
             Array.init w (fun _ ->
                 let id =
                   c + (clients * Workload.Mt19937_64.next_below rng slots)
                 in
                 let k = key_for id in
                 if Workload.Mt19937_64.next_below rng 4 = 0 then k ^ "\x01#"
                 else k)
           in
           let width = 1 + Workload.Mt19937_64.next_below rng 8 in
           let got = Hyperion_shard.get_many ~width store ks in
           let mems = Hyperion_shard.mem_many ~width store ks in
           Array.iteri
             (fun i k ->
               let want = Option.join (Hashtbl.find_opt expected k) in
               if got.(i) <> want then
                 fail "batched get %S (width %d): store=%s expected=%s" k width
                   (match got.(i) with
                   | Some v -> Int64.to_string v
                   | None -> "absent")
                   (match want with
                   | Some v -> Int64.to_string v
                   | None -> "absent");
               if mems.(i) <> Hashtbl.mem expected k then
                 fail "batched mem %S (width %d): store=%b expected=%b" k width
                   mems.(i) (Hashtbl.mem expected k))
             ks
         end
       end
     done;
     flush ()
   with e ->
     fail "client raised %s" (Printexc.to_string e));
  { cr_log = !log; cr_mutations = !mutations; cr_batched = !batched; cr_error = !err }

(* Quiesced audit: structural validation of every shard store plus the
   iter/length point-in-time consistency check and (unless disabled) the
   per-shard heap sanitizer — with the workers parked at the barrier no
   mutator can race the mark-and-sweep. *)
let sharded_audit ~heapcheck store =
  Hyperion_shard.with_quiesced store (fun stores ->
      let problem = ref None in
      Array.iteri
        (fun i s ->
          if !problem = None then begin
            (match H.Validate.check_store s with
            | [] -> ()
            | e :: _ ->
                problem :=
                  Some
                    (Printf.sprintf "shard %d: %s" i
                       (Format.asprintf "%a" H.Validate.pp_error e)));
            let swept = ref 0 in
            H.Store.iter s (fun _ _ -> incr swept);
            if !problem = None && !swept <> H.Store.length s then
              problem :=
                Some
                  (Printf.sprintf "shard %d: iter visited %d keys, length says %d"
                     i !swept (H.Store.length s));
            if !problem = None && heapcheck then
              match
                Analyze.Heapcheck.first_problem (Analyze.Heapcheck.audit_store s)
              with
              | None -> ()
              | Some p ->
                  problem := Some (Printf.sprintf "shard %d: heap audit: %s" i p)
          end)
        stores;
      !problem)

let sweep_against_oracle ~what store oracle =
  let expected = ref [] in
  Rbtree.range oracle (fun k v ->
      expected := (k, v) :: !expected;
      true);
  let expected = ref (List.rev !expected) in
  let problem = ref None in
  Hyperion_shard.iter store (fun k v ->
      if !problem = None then
        match !expected with
        | [] -> problem := Some (Printf.sprintf "%s: extra key %S" what k)
        | (ek, ev) :: rest ->
            if k <> ek || v <> ev then
              problem :=
                Some
                  (Printf.sprintf "%s: store has %S/%s, oracle has %S/%s" what k
                     (match v with Some v -> Int64.to_string v | None -> "-")
                     ek
                     (match ev with Some v -> Int64.to_string v | None -> "-"))
            else expected := rest);
  (match (!problem, !expected) with
  | None, (ek, _) :: _ ->
      problem := Some (Printf.sprintf "%s: key %S missing from store" what ek)
  | _ -> ());
  !problem

(* Mixed hit/miss batch of the sharded front-end against the merged
   oracle: a sample of present keys plus guaranteed-absent variants, read
   back via [get_many]/[mem_many].  Run after the ordered sweep — and
   again after crash recovery, where the replay rebuilds every container
   (negative-lookup tags included) from the WAL. *)
let batched_vs_oracle ~what store oracle =
  let present = ref [] and n = ref 0 in
  Rbtree.range oracle (fun k _ ->
      present := k :: !present;
      incr n;
      !n < 96);
  let present = Array.of_list !present in
  let misses =
    Array.map
      (fun k -> k ^ "\x01#")
      (Array.sub present 0 (min 32 (Array.length present)))
  in
  let keys = Array.append present misses in
  if Array.length keys = 0 then None
  else begin
    let got = Hyperion_shard.get_many ~width:16 store keys in
    let mems = Hyperion_shard.mem_many ~width:16 store keys in
    let problem = ref None in
    Array.iteri
      (fun i k ->
        if !problem = None then
          if got.(i) <> Rbtree.get oracle k then
            problem :=
              Some
                (Printf.sprintf "%s: batched get %S: store=%s oracle=%s" what k
                   (match got.(i) with
                   | Some v -> Int64.to_string v
                   | None -> "absent")
                   (match Rbtree.get oracle k with
                   | Some v -> Int64.to_string v
                   | None -> "absent"))
          else if mems.(i) <> Rbtree.mem oracle k then
            problem :=
              Some
                (Printf.sprintf "%s: batched mem %S: store=%b oracle=%b" what k
                   mems.(i) (Rbtree.mem oracle k)))
      keys;
    !problem
  end

let run_sharded ?(config = H.Config.default) ?(shards = 4) ?clients
    ?(key_space = 4096) ?(heapcheck = true) ?dir ~seed ~ops () =
  if ops < 0 then invalid_arg "Chaos.run_sharded: negative ops";
  if shards < 1 then invalid_arg "Chaos.run_sharded: shards must be positive";
  if key_space <= 0 then
    invalid_arg "Chaos.run_sharded: key_space must be positive";
  let clients = match clients with Some c -> max 1 c | None -> min shards 4 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Error (Printf.sprintf "sharded chaos seed=%Ld shards=%d: %s" seed shards msg))
      fmt
  in
  let err_to_string = H.Hyperion_error.to_string in
  let crash_dir =
    Option.map
      (fun d -> Filename.concat d (Printf.sprintf "shard-chaos-%Ld" seed))
      dir
  in
  Option.iter wipe_tree crash_dir;
  let opened =
    match crash_dir with
    | None -> Ok (Hyperion_shard.create ~config ~shards ())
    | Some d ->
        Hyperion_shard.open_durable ~config ~shards ~sync_every_ops:16
          ~rotate_bytes:8192 d
  in
  match opened with
  | Error e -> fail "open: %s" (err_to_string e)
  | Ok store -> (
      let per_client = ops / clients in
      let finished = Atomic.make 0 in
      let doms =
        List.init clients (fun c ->
            let ops =
              if c = 0 then per_client + (ops mod clients) else per_client
            in
            Domain.spawn (fun () ->
                let r =
                  run_sharded_client store ~seed ~clients ~c ~ops ~key_space
                in
                Atomic.incr finished;
                r))
      in
      (* Coordinator: quiesced audits while the clients hammer the store. *)
      let audits = ref 0 and audit_problem = ref None in
      while Atomic.get finished < clients && !audit_problem = None do
        (match sharded_audit ~heapcheck store with
        | Some p -> audit_problem := Some p
        | None -> ());
        incr audits;
        Unix.sleepf 0.002
      done;
      let reports = List.map Domain.join doms in
      match
        ( !audit_problem,
          List.find_map (fun r -> r.cr_error) reports )
      with
      | Some p, _ -> fail "concurrent audit: %s" p
      | None, Some e -> fail "%s" e
      | None, None -> (
          (* Final audit + full sweep against the merged oracle. *)
          (match sharded_audit ~heapcheck store with
          | Some p -> incr audits; audit_problem := Some p
          | None -> incr audits);
          match !audit_problem with
          | Some p -> fail "final audit: %s" p
          | None -> (
              let oracle = Rbtree.create () in
              List.iter
                (fun r ->
                  List.iter
                    (function
                      | Wal.Put (k, v) -> Rbtree.put oracle k v
                      | Wal.Add k -> Rbtree.add oracle k
                      | Wal.Delete k -> ignore (Rbtree.delete oracle k))
                    (List.rev r.cr_log))
                reports;
              match
                (match
                   sweep_against_oracle ~what:"post-workload sweep" store oracle
                 with
                | Some _ as p -> p
                | None ->
                    batched_vs_oracle ~what:"post-workload batch" store oracle)
              with
              | Some p -> fail "%s" p
              | None -> (
                  let mutations =
                    List.fold_left (fun a r -> a + r.cr_mutations) 0 reports
                  in
                  let batched =
                    List.fold_left (fun a r -> a + r.cr_batched) 0 reports
                  in
                  let final_keys = Hyperion_shard.length store in
                  if final_keys <> Rbtree.length oracle then
                    fail "length: store=%d oracle=%d" final_keys
                      (Rbtree.length oracle)
                  else
                    let finish_in_memory () =
                      (match Hyperion_shard.close store with
                      | Ok () -> ()
                      | Error _ -> ());
                      Ok
                        {
                          sh_shards = shards;
                          sh_clients = clients;
                          sh_ops = ops;
                          sh_mutations = mutations;
                          sh_batched = batched;
                          sh_audits = !audits;
                          sh_final_keys = final_keys;
                          sh_recovered_shards = 0;
                          sh_replayed = 0;
                        }
                    in
                    let crash_and_recover d =
                      (* Crash-recovery phase: group-commit everything, kill
                         the process image, reopen per-shard (parallel
                         recovery) and demand the byte-identical state. *)
                      let ( let* ) = Result.bind in
                      let closing store2 r =
                        match r with
                        | Ok _ as ok -> ok
                        | Error _ as e ->
                            ignore (Hyperion_shard.close store2);
                            e
                      in
                      let* () =
                        match Hyperion_shard.sync store with
                        | Ok () -> Ok ()
                        | Error e -> fail "pre-crash sync: %s" (err_to_string e)
                      in
                      Hyperion_shard.crash store;
                      let* store2 =
                        match
                          Hyperion_shard.open_durable ~config ~shards
                            ~sync_every_ops:16 ~rotate_bytes:8192 d
                        with
                        | Ok s -> Ok s
                        | Error e -> fail "reopen: %s" (err_to_string e)
                      in
                      let recs = Hyperion_shard.recoveries store2 in
                      let replayed =
                        List.fold_left
                          (fun a r ->
                            a + r.Hyperion_shard.recovery.Persist.replayed_ops)
                          0 recs
                      in
                      let* () =
                        closing store2
                          (match
                             (match
                                sweep_against_oracle
                                  ~what:"post-recovery sweep" store2 oracle
                              with
                             | Some _ as p -> p
                             | None ->
                                 batched_vs_oracle ~what:"post-recovery batch"
                                   store2 oracle)
                           with
                          | Some p -> fail "%s" p
                          | None -> Ok ())
                      in
                      let* () =
                        closing store2
                          (match sharded_audit ~heapcheck store2 with
                          | Some p -> fail "post-recovery audit: %s" p
                          | None -> Ok ())
                      in
                      (* liveness: the recovered front-end still accepts
                         mutations *)
                      let* () =
                        closing store2
                          (match
                             Hyperion_shard.put_result store2
                               "post/recovery/probe" 1L
                           with
                          | Ok () -> Ok ()
                          | Error e ->
                              fail "post-recovery put: %s" (err_to_string e))
                      in
                      let* () =
                        match Hyperion_shard.close store2 with
                        | Ok () -> Ok ()
                        | Error e ->
                            fail "post-recovery close: %s" (err_to_string e)
                      in
                      wipe_tree d;
                      Ok
                        {
                          sh_shards = shards;
                          sh_clients = clients;
                          sh_ops = ops;
                          sh_mutations = mutations;
                          sh_batched = batched;
                          sh_audits = !audits;
                          sh_final_keys = final_keys;
                          sh_recovered_shards = List.length recs;
                          sh_replayed = replayed;
                        }
                    in
                    match crash_dir with
                    | None -> finish_in_memory ()
                    | Some d -> crash_and_recover d))))

(* --- crash-recovery chaos (DESIGN.md section 8 crash matrix) --------- *)

type crash_outcome = {
  ops_logged : int;
  acked : int;
  recovered : int;
  cut_bytes : int;
  rotations : int;
  scenario : string;
}

let pp_crash_outcome fmt o =
  Format.fprintf fmt
    "%d ops logged (%d acked), killed via %s cutting %d byte(s), %d \
     rotation(s), recovered %d ops"
    o.ops_logged o.acked o.scenario o.cut_bytes o.rotations o.recovered

let run_crash ?(config = H.Config.default) ?(key_space = 2048)
    ?(sync_every_ops = 16) ?(rotate_bytes = 8192) ?(heapcheck = true) ~dir
    ~seed ~ops () =
  if ops < 0 then invalid_arg "Chaos.run_crash: negative ops";
  if key_space <= 0 then
    invalid_arg "Chaos.run_crash: key_space must be positive";
  let dir = Filename.concat dir (Printf.sprintf "crash-%Ld" seed) in
  wipe_dir dir;
  let rng = Workload.Mt19937_64.create seed in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> Error (Printf.sprintf "crash chaos seed=%Ld: %s" seed msg))
      fmt
  in
  let err_to_string = H.Hyperion_error.to_string in
  match
    Persist.open_or_create ~config ~sync_every_ops ~rotate_bytes dir
  with
  | Error e -> fail "initial open: %s" (err_to_string e)
  | Ok p -> (
      (* Seeded workload through the logged handle; [log] keeps exactly the
         mutations that reached the WAL, in order. *)
      let log = ref [] and logged = ref 0 in
      let record op =
        log := op :: !log;
        incr logged
      in
      let rec drive op_i =
        if op_i >= ops then Ok ()
        else
          let id = Workload.Mt19937_64.next_below rng key_space in
          let key = key_for id in
          let dice = Workload.Mt19937_64.next_below rng 100 in
          let step =
            if dice < 50 then
              let v =
                Int64.of_int (Workload.Mt19937_64.next_below rng 1_000_000)
              in
              match Persist.put p key v with
              | Ok () ->
                  record (Wal.Put (key, v));
                  Ok ()
              | Error e -> Error e
            else if dice < 65 then
              match Persist.add p key with
              | Ok () ->
                  record (Wal.Add key);
                  Ok ()
              | Error e -> Error e
            else
              match Persist.delete p key with
              | Ok true ->
                  record (Wal.Delete key);
                  Ok ()
              | Ok false -> Ok ()
              | Error e -> Error e
          in
          match step with Ok () -> drive (op_i + 1) | Error _ as e -> e
      in
      match drive 0 with
      | Error e -> fail "workload: %s" (err_to_string e)
      | Ok () -> (
          let ops_log = Array.of_list (List.rev !log) in
          let gen = Persist.generation p in
          let base = Persist.snapshot_base p in
          let durable = Persist.durable_ops p in
          let watermark = Persist.wal_synced_bytes p in
          let size = Persist.wal_size p in
          let rotations = Persist.rotations p in
          Persist.crash p;
          (* Kill at a uniformly random WAL offset at or past the durable
             watermark (the crash model: fsynced bytes survive, anything
             later may tear — including mid-record). *)
          let cut = watermark + Workload.Mt19937_64.next_below rng (size - watermark + 1) in
          let wal_path = Persist.wal_file ~dir ~gen in
          Unix.truncate wal_path cut;
          let snap_path = Persist.snapshot_file ~dir ~gen in
          let scenario_dice = Workload.Mt19937_64.next_below rng 100 in
          let scenario =
            if scenario_dice < 30 then begin
              (* crash mid-rotation, while the next snapshot was still being
                 streamed to its .tmp file *)
              let tmp = Persist.snapshot_file ~dir ~gen:(gen + 1) ^ ".tmp" in
              let oc = open_out_bin tmp in
              output_string oc (String.init (Workload.Mt19937_64.next_below rng 512) (fun i -> Char.chr ((i * 37) land 0xff)));
              close_out oc;
              "wal-cut+partial-tmp-snapshot"
            end
            else if scenario_dice < 50 then begin
              (* a newer snapshot that never became fully durable: recovery
                 must skip it and fall back to generation [gen] *)
              let snap = In_channel.with_open_bin snap_path In_channel.input_all in
              let cut_snap =
                Workload.Mt19937_64.next_below rng (String.length snap)
              in
              let oc = open_out_bin (Persist.snapshot_file ~dir ~gen:(gen + 1)) in
              output_string oc (String.sub snap 0 cut_snap);
              close_out oc;
              "wal-cut+torn-next-snapshot"
            end
            else "wal-cut"
          in
          match
            Persist.open_or_create ~config ~sync_every_ops ~rotate_bytes dir
          with
          | Error e -> fail "reopen after %s: %s" scenario (err_to_string e)
          | Ok p2 -> (
              let r = Persist.recovery p2 in
              let recovered = base + r.Persist.replayed_ops in
              if r.Persist.generation <> gen then
                fail "recovered from generation %d, expected %d"
                  r.Persist.generation gen
              else if recovered < durable then
                fail
                  "acknowledged ops lost: %d durable at crash, only %d \
                   recovered (%s, cut=%d)"
                  durable recovered scenario cut
              else if recovered > !logged then
                fail "recovered %d ops but only %d were ever logged" recovered
                  !logged
              else begin
                (* The recovered store must equal the oracle's replay of
                   exactly the first [recovered] logged mutations. *)
                let oracle = Rbtree.create () in
                Array.iteri
                  (fun i op ->
                    if i < recovered then
                      match op with
                      | Wal.Put (k, v) -> Rbtree.put oracle k v
                      | Wal.Add k -> Rbtree.add oracle k
                      | Wal.Delete k -> ignore (Rbtree.delete oracle k))
                  ops_log;
                let store = Persist.store p2 in
                let divergence = ref None in
                let expected = ref [] in
                Rbtree.range oracle (fun k v ->
                    expected := (k, v) :: !expected;
                    true);
                let expected = ref (List.rev !expected) in
                H.Store.range store (fun k v ->
                    (match !expected with
                    | [] ->
                        divergence := Some (Printf.sprintf "extra key %S" k)
                    | (ek, ev) :: rest ->
                        if k <> ek || v <> ev then
                          divergence :=
                            Some
                              (Printf.sprintf "store has %S, oracle has %S" k ek)
                        else expected := rest);
                    !divergence = None);
                (match (!divergence, !expected) with
                | None, (ek, _) :: _ ->
                    divergence := Some (Printf.sprintf "missing key %S" ek)
                | _ -> ());
                match !divergence with
                | Some d ->
                    fail "post-recovery dump diverges (%s, cut=%d): %s"
                      scenario cut d
                | None -> (
                    let audit_problem =
                      match H.Validate.check_store store with
                      | e :: _ ->
                          Some (Format.asprintf "%a" H.Validate.pp_error e)
                      | [] ->
                          (* [Persist.open_or_create] already heap-audits
                             the recovered store; this second pass covers
                             the replayed-WAL + oracle-diffed state under
                             the same reporting as the other chaos modes. *)
                          if heapcheck then
                            Option.map (( ^ ) "heap audit: ")
                              (Analyze.Heapcheck.first_problem
                                 (Analyze.Heapcheck.audit_store store))
                          else None
                    in
                    match audit_problem with
                    | Some why -> fail "post-recovery audit: %s" why
                    | None -> (
                        (* liveness: the recovered handle must still accept
                           and persist new mutations *)
                        match Persist.put p2 "post/recovery/probe" 1L with
                        | Error e -> fail "post-recovery put: %s" (err_to_string e)
                        | Ok () -> (
                            match Persist.close p2 with
                            | Error e ->
                                fail "post-recovery close: %s" (err_to_string e)
                            | Ok () ->
                                wipe_dir dir;
                                Ok
                                  {
                                    ops_logged = !logged;
                                    acked = durable;
                                    recovered;
                                    cut_bytes = size - cut;
                                    rotations;
                                    scenario;
                                  })))
              end)))

(* --- disk-fault chaos: seeded I/O faults, degraded mode, supervision -- *)

module Io = Persist.Io

type diskfault_outcome = {
  df_ops : int;
  df_acked : int;
  df_rejected : int;
  df_injected : int;
  df_heals : int;
  df_audits : int;
  df_recovered : int;
  df_final_keys : int;
}

let pp_diskfault_outcome fmt o =
  Format.fprintf fmt
    "%d ops: %d acked, %d rejected, %d I/O fault(s) injected, %d degraded \
     cycle(s) healed, %d audits, recovered %d ops after the final crash, %d \
     keys stored"
    o.df_ops o.df_acked o.df_rejected o.df_injected o.df_heals o.df_audits
    o.df_recovered o.df_final_keys

(* Exact sweep of a plain store against the oracle (the sharded modes have
   [sweep_against_oracle] for the front-end). *)
let store_matches_oracle store oracle =
  let expected = ref [] in
  Rbtree.range oracle (fun k v ->
      expected := (k, v) :: !expected;
      true);
  let expected = ref (List.rev !expected) in
  let problem = ref None in
  H.Store.range store (fun k v ->
      (match !expected with
      | [] -> problem := Some (Printf.sprintf "extra key %S in store" k)
      | (ek, ev) :: rest ->
          if k <> ek || v <> ev then
            problem :=
              Some
                (Printf.sprintf "store has %S/%s, oracle has %S/%s" k
                   (match v with Some v -> Int64.to_string v | None -> "-")
                   ek
                   (match ev with Some v -> Int64.to_string v | None -> "-"))
          else expected := rest);
      !problem = None);
  (match (!problem, !expected) with
  | None, (ek, _) :: _ ->
      problem := Some (Printf.sprintf "key %S missing from store" ek)
  | _ -> ());
  !problem

let run_diskfault ?(config = H.Config.default) ?(key_space = 2048)
    ?(sync_every_ops = 16) ?(rotate_bytes = 8192) ?(heapcheck = true)
    ?(per_mille = 3) ~dir ~seed ~ops () =
  if ops < 0 then invalid_arg "Chaos.run_diskfault: negative ops";
  if key_space <= 0 then
    invalid_arg "Chaos.run_diskfault: key_space must be positive";
  let dir = Filename.concat dir (Printf.sprintf "diskfault-%Ld" seed) in
  wipe_dir dir;
  let rng = Workload.Mt19937_64.create seed in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> Error (Printf.sprintf "diskfault chaos seed=%Ld: %s" seed msg))
      fmt
  in
  let err_to_string = H.Hyperion_error.to_string in
  let io = Io.make () in
  let injected = ref 0
  and heals = ref 0
  and audits = ref 0
  and rejected = ref 0
  and cycle = ref 0 in
  let arm () =
    incr cycle;
    Io.set_plan io
      (Fault.seeded
         ~seed:(Int64.add seed (Int64.of_int (7919 * !cycle)))
         ~per_mille ~sites:Fault.io_sites)
  in
  let retire () =
    injected := !injected + Fault.fired_count (Io.plan io);
    Io.disarm io
  in
  match Persist.open_or_create ~config ~io ~sync_every_ops ~rotate_bytes dir with
  | Error e -> fail "initial open: %s" (err_to_string e)
  | Ok p -> (
      arm ();
      let store = Persist.store p in
      let oracle = Rbtree.create () in
      let log = ref [] and logged = ref 0 in
      let record op =
        log := op :: !log;
        incr logged;
        match op with
        | Wal.Put (k, v) -> Rbtree.put oracle k v
        | Wal.Add k -> Rbtree.add oracle k
        | Wal.Delete k -> ignore (Rbtree.delete oracle k)
      in
      (* Reads must keep serving at all times — degraded or not — so every
         audit includes the exact store-vs-oracle sweep. *)
      let audit what =
        incr audits;
        match H.Validate.check_store store with
        | e :: _ ->
            fail "%s: %s" what (Format.asprintf "%a" H.Validate.pp_error e)
        | [] -> (
            match store_matches_oracle store oracle with
            | Some d -> fail "%s: %s" what d
            | None ->
                if heapcheck then
                  match
                    Analyze.Heapcheck.first_problem
                      (Analyze.Heapcheck.audit_store store)
                  with
                  | Some pr -> fail "%s: heap audit: %s" what pr
                  | None -> Ok ()
                else Ok ())
      in
      (* A mutation failed (or an acked one degraded the handle during its
         group commit / rotation): verify degradation is sticky and
         read-only, heal, and prove writes are re-armed. *)
      let heal_cycle ~rearm op_i why =
        let ( let* ) = Result.bind in
        let probe = key_for (op_i mod key_space) in
        let* () =
          match Persist.put p probe 0xDEADL with
          | Error (H.Hyperion_error.Degraded _) ->
              incr rejected;
              Ok ()
          | Ok () -> fail "degraded handle accepted a mutation (%s)" why
          | Error e ->
              fail "degraded handle returned %s, wanted Degraded (%s)"
                (err_to_string e) why
        in
        let* () = audit "degraded-mode audit" in
        retire ();
        let* () =
          match Persist.heal p with
          | Ok () -> Ok ()
          | Error e -> fail "heal (%s): %s" why (err_to_string e)
        in
        let* () =
          match Persist.degraded p with
          | None -> Ok ()
          | Some w -> fail "heal returned Ok but the handle is degraded: %s" w
        in
        let* () =
          match Persist.put p probe 1L with
          | Ok () ->
              record (Wal.Put (probe, 1L));
              Ok ()
          | Error e -> fail "post-heal put: %s" (err_to_string e)
        in
        incr heals;
        if rearm then arm ();
        Ok ()
      in
      let rec drive op_i =
        if op_i >= ops then Ok ()
        else
          let id = Workload.Mt19937_64.next_below rng key_space in
          let key = key_for id in
          let dice = Workload.Mt19937_64.next_below rng 100 in
          let step =
            if dice < 50 then
              let v =
                Int64.of_int (Workload.Mt19937_64.next_below rng 1_000_000)
              in
              match Persist.put p key v with
              | Ok () ->
                  record (Wal.Put (key, v));
                  Ok ()
              | Error e -> Error e
            else if dice < 65 then
              match Persist.add p key with
              | Ok () ->
                  record (Wal.Add key);
                  Ok ()
              | Error e -> Error e
            else
              match Persist.delete p key with
              | Ok true ->
                  record (Wal.Delete key);
                  Ok ()
              | Ok false -> Ok ()
              | Error e -> Error e
          in
          let next =
            match step with
            | Ok () -> (
                (* append-first: a group-commit or rotation failure degrades
                   the handle even though the op itself was acked *)
                match Persist.degraded p with
                | None -> Ok ()
                | Some why -> heal_cycle ~rearm:true op_i why)
            | Error (H.Hyperion_error.Degraded why) ->
                incr rejected;
                heal_cycle ~rearm:true op_i why
            | Error e ->
                fail "op %d: unexpected error %s (all storage failures must \
                      surface as Degraded)"
                  op_i (err_to_string e)
          in
          match next with
          | Error _ as e -> e
          | Ok () ->
              if (op_i + 1) mod 500 = 0 then
                match audit "periodic audit" with
                | Error _ as e -> e
                | Ok () -> drive (op_i + 1)
              else drive (op_i + 1)
      in
      let ( let* ) = Result.bind in
      let pre_crash =
        let* () = drive 0 in
        retire ();
        let* () =
          match Persist.degraded p with
          | Some why -> heal_cycle ~rearm:false ops why
          | None -> Ok ()
        in
        let* () = audit "post-workload audit" in
        (* Crash phase, injection off: group-commit, append a small unsynced
           tail, kill the process image at a random WAL offset at or past the
           durable watermark, and demand prefix-consistent recovery. *)
        let* () =
          match Persist.sync p with
          | Ok () -> Ok ()
          | Error e -> fail "pre-crash sync: %s" (err_to_string e)
        in
        let rec tail n =
          if n = 0 then Ok ()
          else
            let key = key_for (Workload.Mt19937_64.next_below rng key_space) in
            let v = Int64.of_int (Workload.Mt19937_64.next_below rng 1_000_000) in
            match Persist.put p key v with
            | Ok () ->
                record (Wal.Put (key, v));
                tail (n - 1)
            | Error e -> fail "unsynced tail put: %s" (err_to_string e)
        in
        tail 5
      in
      let* () =
        match pre_crash with
        | Ok () -> Ok ()
        | Error _ as e ->
            Persist.crash p;
            e
      in
      let ops_log = Array.of_list (List.rev !log) in
      let gen = Persist.generation p in
      let base = Persist.snapshot_base p in
      let durable = Persist.durable_ops p in
      let watermark = Persist.wal_synced_bytes p in
      let size = Persist.wal_size p in
      Persist.crash p;
      let cut =
        watermark + Workload.Mt19937_64.next_below rng (size - watermark + 1)
      in
      Unix.truncate (Persist.wal_file ~dir ~gen) cut;
      let* p2 =
        match
          Persist.open_or_create ~config ~sync_every_ops ~rotate_bytes dir
        with
        | Ok p2 -> Ok p2
        | Error e -> fail "reopen after crash: %s" (err_to_string e)
      in
      let r = Persist.recovery p2 in
      let recovered = base + r.Persist.replayed_ops in
      let closing r =
        match r with
        | Ok _ as ok -> ok
        | Error _ as e ->
            ignore (Persist.close p2);
            e
      in
      let* () =
        closing
          (if r.Persist.generation <> gen then
             fail "recovered from generation %d, expected %d"
               r.Persist.generation gen
           else if recovered < durable then
             fail
               "acknowledged ops lost: %d durable at crash, only %d recovered \
                (cut=%d)"
               durable recovered cut
           else if recovered > !logged then
             fail "recovered %d ops but only %d were ever acked" recovered
               !logged
           else Ok ())
      in
      let* () =
        closing
          (let prefix_oracle = Rbtree.create () in
           Array.iteri
             (fun i op ->
               if i < recovered then
                 match op with
                 | Wal.Put (k, v) -> Rbtree.put prefix_oracle k v
                 | Wal.Add k -> Rbtree.add prefix_oracle k
                 | Wal.Delete k -> ignore (Rbtree.delete prefix_oracle k))
             ops_log;
           match store_matches_oracle (Persist.store p2) prefix_oracle with
           | Some d -> fail "post-recovery sweep (cut=%d): %s" cut d
           | None -> Ok ())
      in
      let* () =
        closing
          (if heapcheck then
             match
               Analyze.Heapcheck.first_problem
                 (Analyze.Heapcheck.audit_store (Persist.store p2))
             with
             | Some pr -> fail "post-recovery heap audit: %s" pr
             | None -> Ok ()
           else Ok ())
      in
      let* () =
        closing
          (match Persist.put p2 "post/recovery/probe" 1L with
          | Ok () -> Ok ()
          | Error e -> fail "post-recovery put: %s" (err_to_string e))
      in
      let final_keys = H.Store.length (Persist.store p2) in
      let* () =
        match Persist.close p2 with
        | Ok () -> Ok ()
        | Error e -> fail "post-recovery close: %s" (err_to_string e)
      in
      wipe_dir dir;
      Ok
        {
          df_ops = ops;
          df_acked = !logged;
          df_rejected = !rejected;
          df_injected = !injected;
          df_heals = !heals;
          df_audits = !audits;
          df_recovered = recovered;
          df_final_keys = final_keys;
        })

(* --- sharded disk-fault chaos: faults + worker kills under load ------- *)

type sharded_diskfault_outcome = {
  sdf_shards : int;
  sdf_clients : int;
  sdf_ops : int;
  sdf_acked : int;
  sdf_rejected : int;
  sdf_injected : int;
  sdf_heals : int;
  sdf_kills : int;
  sdf_restarts : int;
  sdf_audits : int;
  sdf_final_keys : int;
}

let pp_sharded_diskfault_outcome fmt o =
  Format.fprintf fmt
    "%d ops over %d client(s) x %d shard(s): %d acked, %d rejected, %d I/O \
     fault(s) injected, %d heal(s), %d worker kill(s) / %d restart(s), %d \
     quiesced audits, %d keys stored"
    o.sdf_ops o.sdf_clients o.sdf_shards o.sdf_acked o.sdf_rejected
    o.sdf_injected o.sdf_heals o.sdf_kills o.sdf_restarts o.sdf_audits
    o.sdf_final_keys

(* A fault-tolerant client: typed rejections ([Degraded], [Shard_down],
   [Overloaded]) are counted, not fatal, and the client's model is only
   advanced for acknowledged mutations — including the exact applied
   prefix of a partially applied batch slice ([Batch.flush_report]).
   Every blocking call must still complete with SOME result: a hang here
   hangs the run, which is precisely what the harness is hunting. *)
type df_client_report = {
  dfc_log : Wal.op list;  (* reversed: newest first *)
  dfc_acked : int;
  dfc_rejected : int;
  dfc_error : string option;
}

let tolerable = function
  | H.Hyperion_error.Degraded _ | H.Hyperion_error.Shard_down _
  | H.Hyperion_error.Overloaded _ ->
      true
  | _ -> false

let run_diskfault_client store ~seed ~clients ~c ~ops ~key_space =
  let rng = Workload.Mt19937_64.create (client_seed ~seed c) in
  let slots = max 1 (key_space / clients) in
  let expected : (string, int64 option) Hashtbl.t = Hashtbl.create 64 in
  let log = ref [] and acked = ref 0 and rejected = ref 0 in
  let batch = Hyperion_shard.Batch.create store in
  let nshards = Hyperion_shard.shards store in
  let pending = Array.make nshards [] in
  (* per-shard mirror of [batch], newest first *)
  let pending_count = ref 0 in
  let err = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        if !err = None then
          err := Some (Printf.sprintf "diskfault client %d seed=%Ld: %s" c seed msg))
      fmt
  in
  let apply_expected = apply_expected expected in
  let note op =
    apply_expected op;
    log := op :: !log;
    incr acked
  in
  let flush () =
    if !pending_count > 0 then begin
      let report = Hyperion_shard.Batch.flush_report batch in
      List.iter
        (fun r ->
          let i = r.Hyperion_shard.Batch.fr_shard in
          let slice = Array.of_list (List.rev pending.(i)) in
          pending.(i) <- [];
          let n = Array.length slice in
          if r.Hyperion_shard.Batch.fr_ops <> n then
            fail "flush report covers %d op(s) for shard %d, client buffered %d"
              r.Hyperion_shard.Batch.fr_ops i n
          else begin
            let applied = r.Hyperion_shard.Batch.fr_applied in
            for j = 0 to applied - 1 do
              note slice.(j)
            done;
            rejected := !rejected + (n - applied);
            match r.Hyperion_shard.Batch.fr_error with
            | Some e when not (tolerable e) ->
                fail "batch slice for shard %d failed: %s" i
                  (H.Hyperion_error.to_string e)
            | Some _ -> ()
            | None ->
                if applied <> n then
                  fail "shard %d applied %d of %d with no error" i applied n
          end)
        report;
      Array.iteri
        (fun i ops ->
          if ops <> [] then begin
            fail "flush report omitted shard %d (%d op(s))" i (List.length ops);
            pending.(i) <- []
          end)
        pending;
      pending_count := 0
    end
  in
  let pending_has key =
    let i = Hyperion_shard.shard_of_key store key in
    List.exists
      (fun op -> op_key op = key)
      pending.(i)
  in
  let direct op =
    let r =
      match op with
      | Wal.Put (k, v) -> Hyperion_shard.put_result store k v
      | Wal.Add k -> Hyperion_shard.add_result store k
      | Wal.Delete k -> (
          let present = Hashtbl.mem expected k in
          match Hyperion_shard.delete_result store k with
          | Ok removed ->
              if removed <> present then
                fail "delete %S: store=%b expected=%b" k removed present;
              Ok ()
          | Error e -> Error e)
    in
    match r with
    | Ok () -> note op
    | Error e when tolerable e -> incr rejected
    | Error e -> fail "mutation rejected with %s" (H.Hyperion_error.to_string e)
  in
  (try
     for _op = 0 to ops - 1 do
       if !err = None then begin
         let id = c + (clients * Workload.Mt19937_64.next_below rng slots) in
         let key = key_for id in
         let dice = Workload.Mt19937_64.next_below rng 100 in
         if dice < 30 then
           let v = Int64.of_int (Workload.Mt19937_64.next_below rng 1_000_000) in
           direct (Wal.Put (key, v))
         else if dice < 45 then begin
           let v = Int64.of_int (Workload.Mt19937_64.next_below rng 1_000_000) in
           let op = if dice < 42 then Wal.Put (key, v) else Wal.Add key in
           (match op with
           | Wal.Put (k, v) -> Hyperion_shard.Batch.put batch k v
           | Wal.Add k -> Hyperion_shard.Batch.add batch k
           | Wal.Delete _ -> ());
           let i = Hyperion_shard.shard_of_key store key in
           pending.(i) <- op :: pending.(i);
           incr pending_count;
           if Hyperion_shard.Batch.length batch >= 8 then flush ()
         end
         else if dice < 55 then direct (Wal.Add key)
         else if dice < 70 then begin
           if pending_has key then flush ();
           direct (Wal.Delete key)
         end
         else if dice < 90 then begin
           if pending_has key then flush ();
           let got = Hyperion_shard.get store key in
           let want = Option.join (Hashtbl.find_opt expected key) in
           if got <> want then
             fail "get %S: store=%s expected=%s" key
               (match got with Some v -> Int64.to_string v | None -> "absent")
               (match want with Some v -> Int64.to_string v | None -> "absent")
         end
         else begin
           if pending_has key then flush ();
           let got = Hyperion_shard.mem store key in
           let want = Hashtbl.mem expected key in
           if got <> want then fail "mem %S: store=%b expected=%b" key got want
         end
       end
     done;
     flush ()
   with e -> fail "client raised %s" (Printexc.to_string e));
  { dfc_log = !log; dfc_acked = !acked; dfc_rejected = !rejected; dfc_error = !err }

let run_sharded_diskfault ?(config = H.Config.default) ?(shards = 4) ?clients
    ?(key_space = 4096) ?(heapcheck = true) ?(per_mille = 2) ~dir ~seed ~ops () =
  if ops < 0 then invalid_arg "Chaos.run_sharded_diskfault: negative ops";
  if shards < 1 then
    invalid_arg "Chaos.run_sharded_diskfault: shards must be positive";
  if key_space <= 0 then
    invalid_arg "Chaos.run_sharded_diskfault: key_space must be positive";
  let clients = match clients with Some c -> max 1 c | None -> min shards 4 in
  let dir = Filename.concat dir (Printf.sprintf "sharded-diskfault-%Ld" seed) in
  wipe_tree dir;
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Error
          (Printf.sprintf "sharded diskfault chaos seed=%Ld shards=%d: %s" seed
             shards msg))
      fmt
  in
  let err_to_string = H.Hyperion_error.to_string in
  let ios = Array.init shards (fun _ -> Io.make ()) in
  let injected = ref 0 and cycle = ref 0 in
  let plan_for i =
    Fault.seeded
      ~seed:
        (Int64.add seed (Int64.of_int ((7919 * !cycle) + (104729 * (i + 1)))))
      ~per_mille ~sites:Fault.io_sites
  in
  let retire i =
    injected := !injected + Fault.fired_count (Io.plan ios.(i));
    Io.disarm ios.(i)
  in
  let arm_all () =
    incr cycle;
    Array.iteri (fun i io -> Io.set_plan io (plan_for i)) ios
  in
  let retire_all () = Array.iteri (fun i _ -> retire i) ios in
  match
    Hyperion_shard.open_durable ~config ~shards ~sync_every_ops:16
      ~rotate_bytes:8192 ~io_for_shard:(fun i -> ios.(i)) dir
  with
  | Error e -> fail "open: %s" (err_to_string e)
  | Ok store -> (
      arm_all ();
      let per_client = ops / clients in
      let finished = Atomic.make 0 in
      let doms =
        List.init clients (fun c ->
            let ops =
              if c = 0 then per_client + (ops mod clients) else per_client
            in
            Domain.spawn (fun () ->
                let r =
                  run_diskfault_client store ~seed ~clients ~c ~ops ~key_space
                in
                Atomic.incr finished;
                r))
      in
      (* Coordinator: quiesced audits, seeded worker kills + restarts, and
         heals — all while the clients hammer the store. *)
      let crng = Workload.Mt19937_64.create (Int64.lognot seed) in
      let audits = ref 0
      and heals = ref 0
      and kills = ref 0
      and restarts = ref 0 in
      let problem = ref None in
      let note_problem fmt =
        Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt
      in
      let restart_dead ~rearm =
        List.iter
          (fun h ->
            if h.Hyperion_shard.hs_down <> None then begin
              let i = h.Hyperion_shard.hs_shard in
              retire i;
              (match Hyperion_shard.restart_shard store i with
              | Ok _ -> incr restarts
              | Error e ->
                  note_problem "restart shard %d: %s" i (err_to_string e));
              if rearm then Io.set_plan ios.(i) (plan_for i)
            end)
          (Hyperion_shard.health store)
      in
      let heal_degraded ~rearm =
        if
          List.exists
            (fun h -> h.Hyperion_shard.hs_degraded <> None)
            (Hyperion_shard.health store)
        then begin
          retire_all ();
          (match Hyperion_shard.heal store with
          | Ok () -> incr heals
          | Error e -> note_problem "heal: %s" (err_to_string e));
          if rearm then arm_all ()
        end
      in
      while Atomic.get finished < clients && !problem = None do
        if shards > 1 && Workload.Mt19937_64.next_below crng 10 = 0 then begin
          let victim = Workload.Mt19937_64.next_below crng shards in
          if
            Hyperion_shard.poison store ~shard:victim
              ~reason:"chaos: injected worker crash"
          then begin
            incr kills;
            (* the poison is behind the shard's backlog; bounded wait for
               the worker to reach it and die *)
            let budget = ref 5000 in
            let rec wait () =
              let h = List.nth (Hyperion_shard.health store) victim in
              if h.Hyperion_shard.hs_down <> None then true
              else if !budget = 0 then false
              else begin
                decr budget;
                Unix.sleepf 0.001;
                wait ()
              end
            in
            if not (wait ()) then
              note_problem "poisoned shard %d never died" victim
          end
        end;
        restart_dead ~rearm:true;
        heal_degraded ~rearm:true;
        (match sharded_audit ~heapcheck store with
        | Some p -> note_problem "concurrent audit: %s" p
        | None -> ());
        incr audits;
        Unix.sleepf 0.002
      done;
      (* No-hang guarantee: every client joins even on a coordinator
         problem — typed errors, never stuck promises. *)
      let reports = List.map Domain.join doms in
      retire_all ();
      restart_dead ~rearm:false;
      heal_degraded ~rearm:false;
      let bail fmt =
        Printf.ksprintf
          (fun msg ->
            ignore (Hyperion_shard.close store);
            fail "%s" msg)
          fmt
      in
      match (!problem, List.find_map (fun r -> r.dfc_error) reports) with
      | Some p, _ -> bail "%s" p
      | None, Some e -> bail "%s" e
      | None, None -> (
          let oracle = Rbtree.create () in
          List.iter
            (fun r ->
              List.iter
                (function
                  | Wal.Put (k, v) -> Rbtree.put oracle k v
                  | Wal.Add k -> Rbtree.add oracle k
                  | Wal.Delete k -> ignore (Rbtree.delete oracle k))
                (List.rev r.dfc_log))
            reports;
          let acked = List.fold_left (fun a r -> a + r.dfc_acked) 0 reports in
          let rejected =
            List.fold_left (fun a r -> a + r.dfc_rejected) 0 reports
          in
          let ( let* ) = Result.bind in
          let* () =
            match sharded_audit ~heapcheck store with
            | Some p -> bail "final audit: %s" p
            | None ->
                incr audits;
                Ok ()
          in
          let* () =
            match
              (match
                 sweep_against_oracle ~what:"post-workload sweep" store oracle
               with
              | Some _ as p -> p
              | None ->
                  batched_vs_oracle ~what:"post-workload batch" store oracle)
            with
            | Some p -> bail "%s" p
            | None -> Ok ()
          in
          (* Crash phase, injection off: everything acked must survive a
             group commit + kill + parallel per-shard recovery. *)
          let* () =
            match Hyperion_shard.sync store with
            | Ok () -> Ok ()
            | Error e -> bail "pre-crash sync: %s" (err_to_string e)
          in
          Hyperion_shard.crash store;
          let* store2 =
            match
              Hyperion_shard.open_durable ~config ~shards ~sync_every_ops:16
                ~rotate_bytes:8192 dir
            with
            | Ok s -> Ok s
            | Error e -> fail "reopen: %s" (err_to_string e)
          in
          let closing r =
            match r with
            | Ok _ as ok -> ok
            | Error _ as e ->
                ignore (Hyperion_shard.close store2);
                e
          in
          let* () =
            closing
              (match
                 (match
                    sweep_against_oracle ~what:"post-recovery sweep" store2
                      oracle
                  with
                 | Some _ as p -> p
                 | None ->
                     batched_vs_oracle ~what:"post-recovery batch" store2 oracle)
               with
              | Some p -> fail "%s" p
              | None -> Ok ())
          in
          let* () =
            closing
              (match sharded_audit ~heapcheck store2 with
              | Some p -> fail "post-recovery audit: %s" p
              | None -> Ok ())
          in
          let* () =
            closing
              (match Hyperion_shard.put_result store2 "post/recovery/probe" 1L with
              | Ok () -> Ok ()
              | Error e -> fail "post-recovery put: %s" (err_to_string e))
          in
          let final_keys = Hyperion_shard.length store2 in
          let* () =
            match Hyperion_shard.close store2 with
            | Ok () -> Ok ()
            | Error e -> fail "post-recovery close: %s" (err_to_string e)
          in
          wipe_tree dir;
          Ok
            {
              sdf_shards = shards;
              sdf_clients = clients;
              sdf_ops = ops;
              sdf_acked = acked;
              sdf_rejected = rejected;
              sdf_injected = !injected;
              sdf_heals = !heals;
              sdf_kills = !kills;
              sdf_restarts = !restarts;
              sdf_audits = !audits;
              sdf_final_keys = final_keys;
            }))
