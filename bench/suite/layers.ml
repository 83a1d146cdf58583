(* Readings of the program's own telemetry registry, the OCaml runtime
   and the process clock, taken inside the process that did the work (the
   embedded child or the server child).  Only the registry's public
   readers are used; the metric names are the ones the library registers.

   A reading set is a flat (name, value) list so it crosses the control
   pipe as plain data. *)

module T = Telemetry

type baseline = { gc : Gc.stat; cpu : float; wall : int }

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let baseline () = { gc = Gc.quick_stat (); cpu = cpu_s (); wall = T.now_ns () }

let hist ?labels name =
  match T.Histogram.find ?labels name with
  | Some h -> T.Histogram.snapshot h
  | None -> T.Hist.create ()

let counter ?labels name = float_of_int (T.Counter.value (T.Counter.make ?labels name))

let op l = [ ("op", l) ]

let hist_readings prefix h =
  [
    (prefix ^ ".count", float_of_int (T.Hist.count h));
    (prefix ^ ".p50_ns", T.Hist.quantile h 0.5);
    (prefix ^ ".p99_ns", T.Hist.quantile h 0.99);
    (prefix ^ ".mean_ns", T.Hist.mean h);
  ]

let readings (b : baseline) =
  let gc = Gc.quick_stat () in
  List.concat
    [
      hist_readings "store.put" (hist ~labels:(op "put") "hyperion_op_latency_ns");
      hist_readings "store.get" (hist ~labels:(op "get") "hyperion_op_latency_ns");
      hist_readings "store.get_many"
        (hist ~labels:(op "get_many") "hyperion_op_latency_ns");
      hist_readings "net.get"
        (hist ~labels:(op "get") "hyperion_net_server_latency_ns");
      hist_readings "net.put"
        (hist ~labels:(op "put") "hyperion_net_server_latency_ns");
      hist_readings "shard.drain" (hist "hyperion_shard_drain_msgs");
      hist_readings "shard.batch" (hist "hyperion_shard_batch_ops");
      hist_readings "wal.fsync" (hist "hyperion_wal_fsync_duration_ns");
      [
        ("core.splits", counter "hyperion_container_split_total");
        ("core.ejects", counter "hyperion_embedded_eject_total");
        ( "core.jt_hit",
          counter ~labels:[ ("result", "hit") ] "hyperion_jump_table_total" );
        ( "core.jt_miss",
          counter ~labels:[ ("result", "miss") ] "hyperion_jump_table_total" );
        ("core.tag_rejected", counter "hyperion_tag_rejected_total");
        ("core.prefetch", counter "hyperion_prefetch_issued_total");
        ("net.requests_get", counter ~labels:(op "get") "hyperion_net_requests_total");
        ("net.requests_put", counter ~labels:(op "put") "hyperion_net_requests_total");
        ( "shard.mailbox_hwm",
          float_of_int
            (T.Gauge.value
               (T.Gauge.make ~merge:`Max "hyperion_shard_mailbox_depth_hwm")) );
        ( "shard.overload",
          counter "hyperion_shard_overload_rejections_total" );
        ("wal.fsyncs", counter "hyperion_wal_fsync_total");
        ("wal.rotations", counter "hyperion_wal_rotation_total");
        ("wal.bytes", counter "hyperion_wal_appended_bytes_total");
        ("gc.minor_words", gc.Gc.minor_words -. b.gc.Gc.minor_words);
        ( "gc.major",
          float_of_int (gc.Gc.major_collections - b.gc.Gc.major_collections) );
        ("gc.top_heap_words", float_of_int gc.Gc.top_heap_words);
        ("proc.cpu_s", cpu_s () -. b.cpu);
        ("proc.wall_s", float_of_int (T.now_ns () - b.wall) /. 1e9);
      ];
    ]

let get readings name =
  match List.assoc_opt name readings with Some v -> v | None -> 0.0

(* [a /. b], or 0 when nothing happened below. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
