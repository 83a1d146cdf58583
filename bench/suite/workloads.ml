(* The three workloads, their set-up/measure/recover sequence, and the
   traced variant.  See README.md for why each workload exists. *)

module F = Hyperion_net.Frame

type spec = Embedded of Embedded.sizes | Served of Served.profile

let all =
  [
    ("embedded", Embedded Embedded.full);
    ("serve-read", Served Served.serve_read);
    ("serve-durable", Served Served.serve_durable);
  ]

type env = {
  work_dir : string;  (** durable dirs, snapshots and span files *)
  seed : int;
  seconds : float;  (** length of the measured phase *)
  setup_reps : int;  (** set-ups timed; [setup_s] is their median *)
  recover_reps : int;  (** recoveries timed; [recover_s] is the fastest *)
}

(* One measured run of a workload. *)
type run = {
  m : Report.measured;
  readings : (string * float) list;  (** worker's registry/GC/CPU (traced) *)
  bench : Report.bench_side;
  notes : string list;
}

let indices n f =
  let l = ref [] in
  for i = n - 1 downto 0 do
    if f i then l := i :: !l
  done;
  Array.of_list !l

let secs_since t = float_of_int (Telemetry.now_ns () - t) /. 1e9

(* Set up [reps] times and keep the last set-up; the median time is the
   workload's [setup_s]. *)
let timed_setups ~reps set_up tear_down =
  let rec go k acc =
    let t = Telemetry.now_ns () in
    let l = set_up k in
    let acc = secs_since t :: acc in
    if k < reps then begin
      tear_down l;
      go (k + 1) acc
    end
    else (Stat.median (Array.of_list acc), l)
  in
  go 1 []

(* Recovery is timed [recover_reps] times, each in a fresh process; the
   first one also checks the recovered state.  The fastest counts: every
   recovery reads the same files the same way, so time above the fastest
   is other tenants' interference, which lands on single recoveries at
   random (they varied by up to 50% within one run; the median of three
   spread by about 20% across ten seeds, the fastest by 5-7%). *)
let recoveries env recover =
  let rs = List.init env.recover_reps (fun k -> recover ~check:(k = 0)) in
  ( List.fold_left (fun a (dt, _, _) -> Float.min a dt) Float.infinity rs,
    List.fold_left (fun a (_, bad, _) -> a + bad) 0 rs,
    (match rs with (_, _, replayed) :: _ -> replayed | [] -> 0),
    Printf.sprintf "recoveries: %s s"
      (String.concat " " (List.map (fun (dt, _, _) -> Printf.sprintf "%.3f" dt) rs)) )

let span_file env name = Filename.concat env.work_dir (Printf.sprintf "spans-%s.jsonl" name)

(* ---- embedded ------------------------------------------------------------- *)

let run_embedded env ~traced ~gen (s : Embedded.sizes) =
  let snapshot = Filename.concat env.work_dir "embedded.hyp" in
  let setup_s, (inp, child) =
    timed_setups ~reps:env.setup_reps
      (fun _ ->
        let inp = gen () in
        ( inp,
          Embedded.start ~traced ~seconds:env.seconds ~snapshot
            ~span_file:(span_file env "embedded") s inp ))
      (fun (_, c) ->
        Proc.send c.Proc.tx Embedded.Quit;
        ignore (Proc.wait c))
  in
  let cpu0 = Layers.cpu_s () and t0 = Telemetry.now_ns () in
  Proc.send child.tx Embedded.Go;
  let r =
    match (Proc.recv child.rx : Embedded.reply) with
    | Done r -> r
    | Ready -> failwith "embedded child answered out of turn"
  in
  let driver_cpu_frac = (Layers.cpu_s () -. cpu0) /. secs_since t0 in
  ignore (Proc.wait child);
  let recover_s, recover_bad, _, recover_note =
    recoveries env (fun ~check ->
        let dt, bad = Embedded.recover ~snapshot ~check inp in
        (dt, bad, 0))
  in
  Proc.rm_rf snapshot;
  let m =
    {
      Report.setup_s;
      put_mops = Stat.median r.put_rates;
      get_mops = Stat.median r.get_rates;
      bytes_per_key = r.bytes_per_key;
      get_lat = Stat.pct ~blocks:r.get_blocks ~whole:r.get_whole;
      put_lat = Stat.pct ~blocks:r.put_blocks ~whole:r.put_whole;
      recover_s;
      attempted = r.puts + r.gets + Array.length inp.key;
      failures =
        [
          ("put errors", r.put_errors);
          ("wrong get values", r.wrong_gets);
          ("store length after ingest", r.wrong_length);
          ("recovered store", recover_bad);
        ];
    }
  in
  {
    m;
    readings = r.readings;
    bench =
      { Report.no_bench_side with puts = r.puts; gets = r.gets;
        missing_gets = r.missing_gets; driver_cpu_frac };
    notes =
      [
        Printf.sprintf "%d round(s) of %d puts + %d gets; %d put / %d get chunks"
          r.rounds (Array.length inp.insert_order)
          (Array.length inp.key * Array.length inp.get_orders)
          (Array.length r.put_rates) (Array.length r.get_rates);
        recover_note;
      ];
  }

(* ---- served ----------------------------------------------------------------- *)

(* Latency of the measured requests [pick] selects, in scheduled order,
   as per-block percentiles. *)
let served_pct ~block ~(o : Openloop.outcome) measured pick =
  let samples =
    Array.of_list (List.filter_map (fun i -> if pick i then Some o.lat.(i) else None) (Array.to_list measured))
  in
  let whole = Telemetry.Hist.create () in
  Array.iter (Telemetry.Hist.observe whole) samples;
  Stat.pct ~blocks:(Stat.block_pcts ~block samples) ~whole

let run_served env ~traced ~gen (p : Served.profile) =
  let dir k = Filename.concat env.work_dir (Printf.sprintf "%s-%d" p.name k) in
  let setup_s, l =
    timed_setups ~reps:env.setup_reps
      (fun k -> Served.set_up ~gen ~traced ~dir:(dir k) p)
      Served.tear_down
  in
  let plan = l.inp.plan in
  let n = Array.length plan.at in
  let spans =
    if traced then
      Some (Spans.create ~names:Openloop.span_names ~capacity:(2 * ((n / Spans.sample_every) + 1)))
    else None
  in
  Gc.compact ();
  Proc.send l.child.tx Served.Go;
  let o = Openloop.run ?spans ~conns:l.conns ~depth:Served.depth ~drain_s:1.0 plan in
  Option.iter (fun sp -> Spans.write sp (span_file env p.name)) spans;
  let readings =
    if traced then begin
      Proc.send l.child.tx Served.Dump;
      match (Proc.recv l.child.rx : Served.reply) with
      | Dumped r -> r
      | Ready _ | Saved -> failwith "server child answered out of turn"
    end
    else []
  in
  let is_put = Openloop.is_put plan in
  let good i = Bytes.get o.good i = '\001' in
  let acked = indices n (fun i -> is_put i && good i) in
  (* read back every acknowledged put, untimed *)
  let readback_bad = ref 0 in
  let readback_lost =
    Openloop.exchange ~conns:l.conns ~depth:Served.depth ~timeout_s:30.0 ~first_id:n
      (Array.map (fun i -> F.Get plan.key.(i)) acked)
      (fun j resp ->
        match resp with
        | Ok (F.Value (Some v)) when Int64.equal v (Int64.of_int plan.value.(acked.(j))) -> ()
        | _ -> incr readback_bad)
  in
  let bytes_per_key = ref Float.nan in
  let stats_lost =
    Openloop.exchange ~conns:l.conns ~depth:1 ~timeout_s:30.0
      ~first_id:(n + Array.length acked) [| F.Stats |]
      (fun _ resp ->
        match resp with
        | Ok (F.Stats_r s) when s.st_keys > 0L ->
            bytes_per_key := Int64.to_float s.st_resident_bytes /. Int64.to_float s.st_keys
        | _ -> ())
  in
  Openloop.close l.conns;
  let expected = Served.must_hold p l.inp ~acked in
  let prefix = Filename.concat env.work_dir p.name in
  let recover =
    if p.durable then begin
      (* the crash: SIGKILL, so the page cache survives and written but
         unsynced WAL records are still read back *)
      Proc.kill l.child;
      Served.recover_durable ~dir:l.dir expected
    end
    else begin
      Proc.send l.child.tx (Served.Save prefix);
      (match (Proc.recv l.child.rx : Served.reply) with
      | Saved -> ()
      | Ready _ | Dumped _ -> failwith "server child answered out of turn");
      Proc.send l.child.tx Served.Quit;
      ignore (Proc.wait l.child);
      Served.recover_snapshots ~prefix expected
    end
  in
  let recover_s, recover_bad, replayed, recover_note = recoveries env recover in
  Proc.rm_rf l.dir;
  for i = 0 to Served.shards - 1 do
    Proc.rm_rf (Served.snapshot_file prefix i)
  done;
  (* The first [warmup_s] of the schedule are checked but not measured. *)
  let warmup_ns = int_of_float (p.warmup_s *. 1e9) in
  let measured = indices n (fun i -> plan.at.(i) >= warmup_ns) in
  let elapsed_s =
    float_of_int (max o.end_ns (o.t0 + if n = 0 then 0 else plan.at.(n - 1)) - (o.t0 + warmup_ns))
    /. 1e9
  in
  let count f = Array.length (indices n f) in
  let rate f =
    let k = Array.fold_left (fun a i -> if f i && good i then a + 1 else a) 0 measured in
    float_of_int k /. elapsed_s /. 1e6
  in
  let wait_mean f =
    Stat.mean_int
      (Array.map
         (fun i -> o.lat.(i) - (o.sent.(i) - o.t0 - plan.at.(i)))
         (indices n (fun i -> f i && o.lat.(i) >= 0)))
  in
  let lateness =
    Stat.sorted_ints (Array.of_list (List.filter (fun x -> x >= 0) (Array.to_list o.lateness)))
  in
  let answered f i = f i && o.lat.(i) >= 0 in
  let get_lat = served_pct ~block:Served.block ~o measured (answered (fun i -> not (is_put i))) in
  let lateness_p99 = float_of_int (Stat.rank_pct lateness 0.99) in
  let m =
    {
      Report.setup_s;
      put_mops = rate is_put;
      get_mops = rate (fun i -> not (is_put i));
      bytes_per_key = !bytes_per_key;
      get_lat;
      put_lat = served_pct ~block:Served.block ~o measured (answered is_put);
      recover_s;
      attempted = n + Array.length acked + 1 + Array.length expected;
      failures =
        [
          ("error responses", o.errors);
          ("wrong responses", o.wrong);
          ("unanswered 1 s after the run", o.unanswered);
          ("read-back of acked puts", !readback_bad + readback_lost);
          ("stats", stats_lost + if Float.is_nan !bytes_per_key then 1 else 0);
          ("recovered state", recover_bad);
        ];
    }
  in
  let bench =
    {
      Report.puts = count is_put;
      gets = count (fun i -> not (is_put i));
      missing_gets = count (fun i -> (not (is_put i)) && plan.value.(i) < 0);
      user_put_bytes =
        float_of_int
          (Array.fold_left ( + ) 0
             (Array.map (fun i -> String.length plan.key.(i) + 8) acked));
      wait_get_mean_ns = wait_mean (fun i -> not (is_put i));
      wait_put_mean_ns = wait_mean is_put;
      send_p50_ns =
        (match spans with
        | Some sp -> float_of_int (Stat.rank_pct (Stat.sorted_ints (Spans.durations sp ~kind:0)) 0.5)
        | None -> 0.0);
      lateness_p99_ns = lateness_p99;
      driver_cpu_frac = o.cpu_frac;
      replayed_ops = float_of_int replayed;
    }
  in
  let generator_bound = lateness_p99 > 0.1 *. get_lat.p50 in
  {
    m;
    readings;
    bench;
    notes =
      [
        Printf.sprintf "%d requests at %.0f QPS offered over %.1f s; %d acked puts read back"
          n p.qps env.seconds (Array.length acked);
        Printf.sprintf "driver lateness p99 %.2f us (%.1f%% of get p50)%s; driver CPU %.0f%%"
          (lateness_p99 /. 1e3) (100.0 *. lateness_p99 /. get_lat.p50)
          (if generator_bound then ", over the 10% limit: generator-bound" else "")
          (100.0 *. o.cpu_frac);
        recover_note;
      ];
  }

(* ---- one workload, untraced or traced --------------------------------------- *)

let measure env ~traced spec =
  match spec with
  | Embedded s ->
      run_embedded env ~traced ~gen:(fun () -> Embedded.gen ~seed:env.seed s) s
  | Served p ->
      run_served env ~traced
        ~gen:(fun () -> Served.gen ~seed:env.seed ~seconds:(p.warmup_s +. env.seconds) p)
        p

(* What tracing costs, in percent of the workload's headline metric. *)
let overhead_pct spec ~(plain : Report.measured) ~(traced : Report.measured) =
  let cost ~higher a b = 100.0 *. (if higher then a -. b else b -. a) /. a in
  match spec with
  | Embedded _ -> cost ~higher:true plain.put_mops traced.put_mops
  | Served p when p.durable -> cost ~higher:false plain.put_lat.p50 traced.put_lat.p50
  | Served _ -> cost ~higher:false plain.get_lat.p50 traced.get_lat.p50

(* Untraced: the end-to-end metrics.  Traced: an untraced and a traced
   run back to back, reporting the per-layer metrics of the traced one
   and the difference between the two as [trace.overhead_pct]. *)
let run_one env ~trace (name, spec) =
  if not trace then
    let r = measure env ~traced:false spec in
    let o = Report.outcome ~workload:name r.m in
    { o with notes = r.notes @ o.notes }
  else
    let env1 = { env with setup_reps = 1; recover_reps = 1 } in
    let plain = measure env1 ~traced:false spec in
    let traced = measure env1 ~traced:true spec in
    let overhead_pct = overhead_pct spec ~plain:plain.m ~traced:traced.m in
    let base = Report.outcome ~workload:name traced.m in
    let failed = Report.failed_of plain.m + base.failed in
    {
      base with
      correct = failed = 0;
      attempted = plain.m.attempted + base.attempted;
      failed;
      metrics =
        Report.layer_metrics
          ~in_process:(match spec with Embedded _ -> true | Served _ -> false)
          ~r:traced.readings ~m:traced.m ~b:traced.bench
          ~recover_s:traced.m.recover_s ~overhead_pct;
      notes =
        traced.notes @ base.notes
        @ [ Printf.sprintf "spans: %s" (span_file env name) ];
    }
