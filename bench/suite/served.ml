(* Workloads [serve-read] and [serve-durable]: a server child over a
   2-shard [Hyperion_shard] store behind [Hyperion_net.Server], driven by
   the single-threaded open-loop driver in the parent ({!Openloop}).

   The parent generates every input from the seed: a Poisson arrival
   schedule, the op mix, and the keys (Zipf-ranked [Workload.Keystream]
   keys; value = rank).  The child inherits them through [fork], preloads
   the store through [Hyperion_shard.Batch], starts the server on an
   ephemeral port, and reports the port over its control pipe. *)

module Sh = Hyperion_shard
module Mt = Workload.Mt19937_64

let shards = 2
let conns = 2
let depth = 32  (* outstanding requests per connection *)
let zipf_s = 0.99  (* skew of gets over the preloaded keys *)
let block = 1000  (* requests of one kind per latency-percentile block *)

type profile = {
  name : string;
  durable : bool;
  preload : int;  (** keys written before the measured phase *)
  qps : float;  (** offered rate, Poisson arrivals *)
  put_frac : float;  (** share of requests that put a fresh key *)
  miss_frac : float;  (** share of gets aimed at a never-written key *)
  miss_pool : int;  (** never-written keys those gets draw from *)
  warmup_s : float;  (** load before the measured phase, not measured *)
}

let serve_read =
  {
    name = "serve-read";
    durable = false;
    preload = 300_000;
    qps = 20_000.0;
    put_frac = 0.05;
    miss_frac = 0.05;
    miss_pool = 30_000;
    warmup_s = 1.0;
  }

let serve_durable =
  { serve_read with name = "serve-durable"; durable = true; preload = 100_000;
    qps = 10_000.0; put_frac = 0.5; miss_frac = 0.0; miss_pool = 0 }

let config = Embedded.config

type inputs = {
  keys : string array;
      (** by rank: the preloaded keys, then the miss pool, then one fresh
          key per put *)
  plan : Openloop.plan;
}

(* The key corpus is the same in every run, as the paper's data sets are;
   the seed draws the schedule, the op mix, which keys are popular and
   which are missed.  (A per-seed corpus would move bytes_per_key by
   the corpus's mean key length, not by anything the program does.) *)
let corpus_seed = 20190301L

let gen ~seed ~seconds p =
  let rng = Mt.create (Int64.of_int ((seed * 104_729) + 3)) in
  let gap_ns = 1e9 /. p.qps and horizon = seconds *. 1e9 in
  let rec arrivals t acc =
    let t = t -. (gap_ns *. log (1.0 -. Mt.next_float rng)) in
    if t >= horizon then Array.of_list (List.rev acc)
    else arrivals t (int_of_float t :: acc)
  in
  let at = arrivals 0.0 [] in
  let n = Array.length at in
  let zipf = Workload.Zipf.create ~n:p.preload ~s:zipf_s in
  let popular = Array.init p.preload Fun.id in
  Mt.shuffle rng popular;
  let put = Bytes.make n '\000' and rank = Array.make n 0 in
  let fresh = ref (p.preload + p.miss_pool) in
  for i = 0 to n - 1 do
    if Mt.next_float rng < p.put_frac then begin
      Bytes.set put i '\001';
      rank.(i) <- !fresh;
      incr fresh
    end
    else if p.miss_pool > 0 && Mt.next_float rng < p.miss_frac then
      rank.(i) <- p.preload + Mt.next_below rng p.miss_pool
    else rank.(i) <- popular.(Workload.Zipf.sample zipf rng)
  done;
  let keys =
    Workload.Keystream.keys (Workload.Keystream.create ~seed:corpus_seed ~n:!fresh ())
  in
  let written r = r < p.preload || r >= p.preload + p.miss_pool in
  {
    keys;
    plan =
      {
        Openloop.at;
        put;
        key = Array.map (fun r -> keys.(r)) rank;
        value = Array.map (fun r -> if written r then r else -1) rank;
      };
  }

(* ---- the server child ---------------------------------------------------- *)

(* [Persist.Crc32]'s table is a lazy value that [open_durable]'s parallel
   per-shard domains may force at the same time; in a process that has
   not forced it yet, one of them can then fail with [Lazy.Undefined].
   Forcing it first, on one domain, keeps that library race out of the
   measurement. *)
let force_crc_table () = ignore (Persist.Crc32.string "" ~pos:0 ~len:0)

type cmd = Go | Quit | Dump | Save of string
type reply = Ready of int | Dumped of (string * float) list | Saved

let snapshot_file prefix i = Printf.sprintf "%s-%d.hyp" prefix i

let ok_or_fail = function
  | Ok v -> v
  | Error e -> failwith (Hyperion.Hyperion_error.to_string e)

let server_child ~traced ~dir p inp ~rx ~tx =
  force_crc_table ();
  Telemetry.set_enabled traced;
  let store =
    if p.durable then ok_or_fail (Sh.open_durable ~config ~shards dir)
    else Sh.create ~config ~shards ()
  in
  let b = Sh.Batch.create store in
  for r = 0 to p.preload - 1 do
    Sh.Batch.put b inp.keys.(r) (Int64.of_int r);
    if Sh.Batch.length b >= 4096 then ignore (ok_or_fail (Sh.Batch.flush b))
  done;
  ignore (ok_or_fail (Sh.Batch.flush b));
  if p.durable then ok_or_fail (Sh.snapshot_now store);
  Gc.compact ();
  Cpus.pin_under_test ();
  Telemetry.reset ();
  let srv =
    match
      Hyperion_net.Server.start
        ~config:{ Hyperion_net.Server.default_config with port = 0 }
        store
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  Proc.send tx (Ready (Hyperion_net.Server.port srv));
  let base = ref (Layers.baseline ()) in
  let rec serve () =
    match (Proc.recv rx : cmd) with
    | Go ->
        base := Layers.baseline ();
        serve ()
    | Dump ->
        Proc.send tx (Dumped (Layers.readings !base));
        serve ()
    | Save prefix ->
        Sh.with_quiesced store (fun stores ->
            Array.iteri
              (fun i st -> ignore (ok_or_fail (Persist.save_snapshot st (snapshot_file prefix i))))
              stores);
        Proc.send tx Saved;
        serve ()
    | Quit ->
        Hyperion_net.Server.stop srv;
        ignore (Sh.close store)
  in
  serve ()

(* One set-up: inputs, child, preload, server, client connections. *)
type live = {
  inp : inputs;
  child : Proc.t;
  conns : Openloop.conn array;
  dir : string;
}

let set_up ~gen ~traced ~dir p =
  Proc.rm_rf dir;
  let inp = gen () in
  let child = Proc.spawn (server_child ~traced ~dir p inp) in
  match (Proc.recv child.rx : reply) with
  | Ready port -> { inp; child; conns = Openloop.connect ~port conns; dir }
  | Dumped _ | Saved -> failwith "server child answered out of turn"

let tear_down l =
  Openloop.close l.conns;
  Proc.send l.child.tx Quit;
  ignore (Proc.wait l.child);
  Proc.rm_rf l.dir

(* ---- recovery -------------------------------------------------------------- *)

(* Keys a recovered store must hold, with their values. *)
let must_hold p inp ~acked =
  Array.append
    (Array.init p.preload (fun r -> (inp.keys.(r), Int64.of_int r)))
    (Array.map (fun i -> (inp.plan.key.(i), Int64.of_int inp.plan.value.(i))) acked)

(* Durable: [open_durable] on the killed server's directory (snapshot
   load, WAL replay and the heap audit).  Returns seconds, failed checks
   and replayed WAL records. *)
let recover_durable ~dir ~check expected =
  Proc.call (fun () ->
      force_crc_table ();
      Gc.compact ();
      let t = Telemetry.now_ns () in
      let store = ok_or_fail (Sh.open_durable ~config dir) in
      let dt = float_of_int (Telemetry.now_ns () - t) /. 1e9 in
      let bad = ref 0 in
      if Sh.length store <> Array.length expected then incr bad;
      if check then
        Array.iter
          (fun (k, v) -> if Sh.get store k <> Some v then incr bad)
          expected;
      let replayed =
        List.fold_left (fun a r -> a + r.Sh.recovery.Persist.replayed_ops) 0 (Sh.recoveries store)
      in
      (dt, !bad, replayed))

(* In-memory: load the per-shard snapshots the server wrote at the end. *)
let recover_snapshots ~prefix ~check expected =
  Proc.call (fun () ->
      Gc.compact ();
      let t = Telemetry.now_ns () in
      let stores =
        Array.init shards (fun i ->
            fst (ok_or_fail (Persist.load_snapshot ~config (snapshot_file prefix i))))
      in
      let dt = float_of_int (Telemetry.now_ns () - t) /. 1e9 in
      let bad = ref 0 in
      let total = Array.fold_left (fun a st -> a + Hyperion.Store.length st) 0 stores in
      if total <> Array.length expected then incr bad;
      if check then
        Array.iter
          (fun (k, v) ->
            if not (Array.exists (fun st -> Hyperion.Store.get st k = Some v) stores) then incr bad)
          expected;
      (dt, !bad, 0))
