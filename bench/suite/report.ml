(* What one workload run reports: the end-to-end metrics every workload
   emits, the per-layer metrics of a traced run, and the correctness
   tally behind [correct]/[attempted]/[failed]. *)

type metric = { name : string; value : float; unit : string }

(* Every workload reports every end-to-end metric (BENCHMARK.json lists
   the same names with their bounds; the self-test checks they agree). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("put_mops", "Mop/s");
    ("get_mops", "Mop/s");
    ("bytes_per_key", "B");
    ("get_p50_us", "us");
    ("get_p99_us", "us");
    ("put_p50_us", "us");
    ("put_p99_us", "us");
    ("recover_s", "s");
  ]

(* What a workload measured, before it is named and united. *)
type measured = {
  setup_s : float;
  put_mops : float;
  get_mops : float;
  bytes_per_key : float;
  get_lat : Stat.pct;
  put_lat : Stat.pct;
  recover_s : float;
  attempted : int;
  failures : (string * int) list;
      (** named correctness checks and how many operations failed each *)
}

(* Bench-side numbers the per-layer table needs beside the worker's
   registry readings ({!Layers.readings}). *)
type bench_side = {
  puts : int;  (** measured-phase puts *)
  gets : int;
  missing_gets : int;  (** gets whose key was never written *)
  user_put_bytes : float;  (** key + 8-byte value of every measured put *)
  wait_get_mean_ns : float;
      (** client-observed get latency from actual send, mean (served) *)
  wait_put_mean_ns : float;
  send_p50_ns : float;  (** encode + write of one request (served) *)
  lateness_p99_ns : float;
  driver_cpu_frac : float;
  replayed_ops : float;  (** WAL records replayed by recovery *)
}

let no_bench_side =
  {
    puts = 0;
    gets = 0;
    missing_gets = 0;
    user_put_bytes = 0.0;
    wait_get_mean_ns = 0.0;
    wait_put_mean_ns = 0.0;
    send_p50_ns = 0.0;
    lateness_p99_ns = 0.0;
    driver_cpu_frac = 0.0;
    replayed_ops = 0.0;
  }

type outcome = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable detail, printed before the result *)
}

let failed_of (m : measured) = List.fold_left (fun a (_, n) -> a + n) 0 m.failures
let us ns = ns /. 1000.0

let end_to_end_metrics (m : measured) =
  let v = function
    | "setup_s" -> m.setup_s
    | "put_mops" -> m.put_mops
    | "get_mops" -> m.get_mops
    | "bytes_per_key" -> m.bytes_per_key
    | "get_p50_us" -> us m.get_lat.p50
    | "get_p99_us" -> us m.get_lat.p99
    | "put_p50_us" -> us m.put_lat.p50
    | "put_p99_us" -> us m.put_lat.p99
    | "recover_s" -> m.recover_s
    | n -> invalid_arg n
  in
  List.map (fun (name, unit) -> { name; value = v name; unit }) end_to_end

let latency_note op (p : Stat.pct) =
  Printf.sprintf
    "%s latency: block-median p50 %.2f us, p99 %.2f us over %d blocks; \
     whole run p50 %.2f p99 %.2f p999 %.2f us, %d samples"
    op (us p.p50) (us p.p99) p.blocks (us p.all_p50) (us p.all_p99)
    (us p.all_p999) p.samples

let outcome ~workload (m : measured) =
  let failed = failed_of m in
  {
    workload;
    correct = failed = 0;
    attempted = m.attempted;
    failed;
    metrics = end_to_end_metrics m;
    notes =
      [ latency_note "get" m.get_lat; latency_note "put" m.put_lat ]
      @ List.map
          (fun (check, n) -> Printf.sprintf "check %s: %d failed" check n)
          m.failures;
  }

(* ---- per-layer metrics (traced run) ------------------------------------ *)

let per_layer =
  [
    ("core.put_us.p50", "us");
    ("core.put_us.p99", "us");
    ("core.get_us.p50", "us");
    ("core.get_us.p99", "us");
    ("core.splits_per_kput", "1/kput");
    ("core.ejects_per_kput", "1/kput");
    ("core.jt_hit_frac", "frac");
    ("core.tag_rejected_frac", "frac");
    ("core.prefetch_per_get", "1/get");
    ("core.read_batch", "get/call");
    ("core.server_put_us.p50", "us");
    ("core.server_get_many_us.p50", "us");
    ("shard.drain_msgs.p50", "msgs");
    ("shard.batch_ops.p50", "ops");
    ("shard.mailbox_hwm", "msgs");
    ("shard.overload_rejections", "count");
    ("persist.fsync_per_kput", "1/kput");
    ("persist.fsync_us.p50", "us");
    ("persist.fsync_us.p99", "us");
    ("persist.rotations", "count");
    ("persist.wal_bytes_per_user_byte", "B/B");
    ("persist.replay_kops", "kop/s");
    ("net.server_get_us.p50", "us");
    ("net.server_get_us.p99", "us");
    ("net.server_put_us.p50", "us");
    ("net.server_put_us.p99", "us");
    ("net.outside_get_us.mean", "us");
    ("net.outside_put_us.mean", "us");
    ("net.server_cpu_us_per_req", "us/req");
    ("net.send_ns.p50", "ns");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_per_mop", "1/Mop");
    ("gc.top_heap_mb", "MB");
    ("driver.lateness_us.p99", "us");
    ("driver.cpu_frac", "frac");
    ("trace.overhead_pct", "%");
  ]

(* [r] are the worker process's readings over the measured phase; [m] the
   traced run's own measurement; [overhead_pct] the traced run's cost on
   the workload's headline metric.  [in_process]: the benchmark itself
   calls [Store.put]/[get], so its spans time them; otherwise the store's
   own histograms in the server do. *)
let layer_metrics ~in_process ~(r : (string * float) list) ~(m : measured)
    ~(b : bench_side) ~recover_s ~overhead_pct =
  let g = Layers.get r and ratio = Layers.ratio in
  let puts = float_of_int b.puts and gets = float_of_int b.gets in
  let ops = puts +. gets in
  let net_get_mean = g "net.get.mean_ns" and net_put_mean = g "net.put.mean_ns" in
  let outside wait server = if server = 0.0 then 0.0 else us (wait -. server) in
  let v = function
    | "core.put_us.p50" -> if in_process then us m.put_lat.p50 else us (g "store.put.p50_ns")
    | "core.put_us.p99" -> if in_process then us m.put_lat.p99 else us (g "store.put.p99_ns")
    | "core.get_us.p50" -> if in_process then us m.get_lat.p50 else us (g "store.get.p50_ns")
    | "core.get_us.p99" -> if in_process then us m.get_lat.p99 else us (g "store.get.p99_ns")
    | "core.splits_per_kput" -> ratio (g "core.splits") (puts /. 1000.0)
    | "core.ejects_per_kput" -> ratio (g "core.ejects") (puts /. 1000.0)
    | "core.jt_hit_frac" ->
        ratio (g "core.jt_hit") (g "core.jt_hit" +. g "core.jt_miss")
    | "core.tag_rejected_frac" ->
        ratio (g "core.tag_rejected") (float_of_int b.missing_gets)
    | "core.prefetch_per_get" -> ratio (g "core.prefetch") gets
    | "core.read_batch" ->
        ratio (g "net.requests_get") (g "store.get_many.count")
    | "core.server_put_us.p50" -> us (g "store.put.p50_ns")
    | "core.server_get_many_us.p50" -> us (g "store.get_many.p50_ns")
    | "shard.drain_msgs.p50" -> g "shard.drain.p50_ns"
    | "shard.batch_ops.p50" -> g "shard.batch.p50_ns"
    | "shard.mailbox_hwm" -> g "shard.mailbox_hwm"
    | "shard.overload_rejections" -> g "shard.overload"
    | "persist.fsync_per_kput" -> ratio (g "wal.fsyncs") (puts /. 1000.0)
    | "persist.fsync_us.p50" -> us (g "wal.fsync.p50_ns")
    | "persist.fsync_us.p99" -> us (g "wal.fsync.p99_ns")
    | "persist.rotations" -> g "wal.rotations"
    | "persist.wal_bytes_per_user_byte" -> ratio (g "wal.bytes") b.user_put_bytes
    | "persist.replay_kops" -> ratio (b.replayed_ops /. 1000.0) recover_s
    | "net.server_get_us.p50" -> us (g "net.get.p50_ns")
    | "net.server_get_us.p99" -> us (g "net.get.p99_ns")
    | "net.server_put_us.p50" -> us (g "net.put.p50_ns")
    | "net.server_put_us.p99" -> us (g "net.put.p99_ns")
    | "net.outside_get_us.mean" -> outside b.wait_get_mean_ns net_get_mean
    | "net.outside_put_us.mean" -> outside b.wait_put_mean_ns net_put_mean
    | "net.server_cpu_us_per_req" ->
        if g "net.requests_get" +. g "net.requests_put" = 0.0 then 0.0
        else ratio (g "proc.cpu_s" *. 1e6) ops
    | "net.send_ns.p50" -> b.send_p50_ns
    | "gc.minor_words_per_op" -> ratio (g "gc.minor_words") ops
    | "gc.major_per_mop" -> ratio (g "gc.major") (ops /. 1e6)
    | "gc.top_heap_mb" -> g "gc.top_heap_words" *. 8.0 /. 1048576.0
    | "driver.lateness_us.p99" -> us b.lateness_p99_ns
    | "driver.cpu_frac" -> b.driver_cpu_frac
    | "trace.overhead_pct" -> overhead_pct
    | n -> invalid_arg n
  in
  List.map (fun (name, unit) -> { name; value = v name; unit }) per_layer

(* ---- printing ------------------------------------------------------------ *)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
       ms)

(* The one-line result that ends every run. *)
let result_line (o : outcome) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool o.correct);
         ("attempted", Json.Num (float_of_int o.attempted));
         ("failed", Json.Num (float_of_int o.failed));
         ("metrics", metrics_json o.metrics);
       ])

let outcome_json ~seed ~trace (o : outcome) =
  Json.Obj
    [
      ("workload", Json.Str o.workload);
      ("seed", Json.Num (float_of_int seed));
      ("trace", Json.Bool trace);
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("metrics", metrics_json o.metrics);
      ("notes", Json.Arr (List.map (fun s -> Json.Str s) o.notes));
    ]

let print_lines (o : outcome) =
  List.iter (fun n -> Printf.printf "# %s: %s\n" o.workload n) o.notes;
  List.iter
    (fun m -> Printf.printf "%s %s %s %s\n" o.workload m.name (Json.number_to_string m.value) m.unit)
    o.metrics
