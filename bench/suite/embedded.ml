(* Workload [embedded]: Hyperion in-process, the paper's Table 1
   randomized-string row.  A single thread inserts a random subset of a
   randomly ordered n-gram key set into a fresh [Hyperion.Store], then
   reads every key of the full set back in fresh random orders, so a
   tenth of the gets miss.  Only the trie and its memory manager work
   here; no shard, persist or net code runs in the measured phase. *)

module Store = Hyperion.Store
module Mt = Workload.Mt19937_64

type sizes = {
  keys : int;  (** distinct keys generated *)
  inserted : int;  (** of which this many are put *)
  get_passes : int;  (** full passes of gets over all keys *)
  chunk : int;  (** operations per throughput sample *)
  block : int;  (** operations per latency-percentile group *)
}

let full =
  { keys = 1_100_000; inserted = 1_000_000; get_passes = 2; chunk = 10_000; block = 20_000 }

(* The CLI's string-key store configuration. *)
let config = { Hyperion.Config.strings with chunks_per_bin = 64 }

type inputs = {
  key : string array;
  value : int64 array;  (** what a put of [key.(i)] writes *)
  expect : int64 option array;  (** what a get of [key.(i)] must return *)
  insert_order : int array;
  get_orders : int array array;
}

(* The corpus is fixed, as the paper's data set is; the seed picks which
   keys are inserted and every order. *)
let gen ~seed (s : sizes) =
  let ds = Workload.Dataset.ngrams_random ~seed:20190301L s.keys in
  let key = Array.map fst ds.pairs and value = Array.map snd ds.pairs in
  let rng = Mt.create (Int64.of_int ((seed * 7919) + 1)) in
  let perm () =
    let p = Array.init s.keys Fun.id in
    Mt.shuffle rng p;
    p
  in
  let insert_order = Array.sub (perm ()) 0 s.inserted in
  let expect = Array.make s.keys None in
  Array.iter (fun i -> expect.(i) <- Some value.(i)) insert_order;
  { key; value; expect; insert_order; get_orders = Array.init s.get_passes (fun _ -> perm ()) }

let same (a : int64 option) (b : int64 option) =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Int64.equal x y
  | _ -> false

(* What the measuring child hands back. *)
type result = {
  put_rates : float array;  (** Mop/s per chunk *)
  get_rates : float array;
  put_blocks : (float * float) list;  (** per-block exact p50, p99 (ns) *)
  get_blocks : (float * float) list;
  put_whole : Telemetry.Hist.t;
  get_whole : Telemetry.Hist.t;
  bytes_per_key : float;
  rounds : int;
  puts : int;
  gets : int;
  missing_gets : int;
  put_errors : int;
  wrong_gets : int;
  wrong_length : int;
  readings : (string * float) list;  (** registry, GC and CPU (traced) *)
}

let span_names = [| "put"; "get" |]

(* One timed pass of [n] operations: [op j] runs operation [j] and
   returns whether it was answered correctly.  Each operation is timed
   alone; every [chunk] operations give one throughput sample. *)
let timed_pass ~spans ~kind ~chunk ~lat ~rates ~n op =
  let bad = ref 0 in
  let chunk_start = ref (Telemetry.now_ns ()) in
  for j = 0 to n - 1 do
    let t = Telemetry.now_ns () in
    let ok = op j in
    let t' = Telemetry.now_ns () in
    lat.(j) <- t' - t;
    if not ok then incr bad;
    (match spans with
    | Some sp when Spans.sampled j -> Spans.record sp ~kind ~req:j ~start:t ~dur:(t' - t)
    | _ -> ());
    if (j + 1) mod chunk = 0 then begin
      rates := (float_of_int chunk *. 1e3 /. float_of_int (t' - !chunk_start)) :: !rates;
      chunk_start := t'
    end
  done;
  !bad

let blocks ~block ~whole lat =
  Array.iter (Telemetry.Hist.observe whole) lat;
  Stat.block_pcts ~block lat

(* Rounds measured for a run of [seconds]: one per 15 s, at least one (a
   round of the full sizes takes about 12 s on a 2-vCPU VM).  The count
   is fixed by [seconds], not by the clock, so two builds compared do the
   same work. *)
let rounds_for ~seconds = max 1 (int_of_float (seconds /. 15.0))

(* Runs [rounds] rounds (fresh store, all puts, all get passes).  Returns
   the last round's store. *)
let measure ?spans ~rounds (s : sizes) inp =
  let n_put = Array.length inp.insert_order and n_key = Array.length inp.key in
  let put_lat = Array.make n_put 0 and get_lat = Array.make n_key 0 in
  let put_rates = ref [] and get_rates = ref [] in
  let put_blocks = ref [] and get_blocks = ref [] in
  let put_whole = Telemetry.Hist.create () and get_whole = Telemetry.Hist.create () in
  let put_errors = ref 0 and wrong_gets = ref 0 and wrong_length = ref 0 in
  let done_rounds = ref 0 and bytes_per_key = ref 0.0 in
  let missing = Array.fold_left (fun a e -> if e = None then a + 1 else a) 0 inp.expect in
  let base = Layers.baseline () in
  let rec round () =
    let st = Store.create ~config () in
    put_errors :=
      !put_errors
      + timed_pass ~spans ~kind:0 ~chunk:s.chunk ~lat:put_lat ~rates:put_rates ~n:n_put
          (fun j ->
            let i = inp.insert_order.(j) in
            Result.is_ok (Store.put_result st inp.key.(i) inp.value.(i)));
    put_blocks := !put_blocks @ blocks ~block:s.block ~whole:put_whole put_lat;
    if Store.length st <> n_put then incr wrong_length;
    bytes_per_key := float_of_int (Store.memory_usage st) /. float_of_int (Store.length st);
    Array.iter
      (fun order ->
        wrong_gets :=
          !wrong_gets
          + timed_pass ~spans ~kind:1 ~chunk:s.chunk ~lat:get_lat ~rates:get_rates ~n:n_key
              (fun j ->
                let i = order.(j) in
                same (Store.get st inp.key.(i)) inp.expect.(i));
        get_blocks := !get_blocks @ blocks ~block:s.block ~whole:get_whole get_lat)
      inp.get_orders;
    incr done_rounds;
    if !done_rounds < rounds then round () else st
  in
  let st = round () in
  let r = rounds in
  ( st,
    {
      put_rates = Array.of_list !put_rates;
      get_rates = Array.of_list !get_rates;
      put_blocks = !put_blocks;
      get_blocks = !get_blocks;
      put_whole;
      get_whole;
      bytes_per_key = !bytes_per_key;
      rounds = r;
      puts = r * n_put;
      gets = r * n_key * s.get_passes;
      missing_gets = r * missing * s.get_passes;
      put_errors = !put_errors;
      wrong_gets = !wrong_gets;
      wrong_length = !wrong_length;
      readings = Layers.readings base;
    } )

(* ---- processes ----------------------------------------------------------- *)

type cmd = Go | Quit
type reply = Ready | Done of result

(* The measuring child: idle until told to go (so the parent can time
   set-up), then measure, write the final store's snapshot for the
   recovery phase, and report. *)
let child ~traced ~seconds ~snapshot ~span_file s inp ~rx ~tx =
  Telemetry.set_enabled traced;
  Proc.send tx Ready;
  match (Proc.recv rx : cmd) with
  | Quit -> ()
  | Go ->
      (* start from a settled heap: the inherited inputs are live, the
         parent's garbage is not *)
      Gc.compact ();
      Telemetry.reset ();
      let spans =
        if traced then
          Some
            (Spans.create ~names:span_names
               ~capacity:
                 ((rounds_for ~seconds * (s.inserted + (s.keys * s.get_passes)) / Spans.sample_every)
                 + 2))
        else None
      in
      let st, r = measure ?spans ~rounds:(rounds_for ~seconds) s inp in
      Option.iter (fun sp -> Spans.write sp span_file) spans;
      (match Persist.save_snapshot st snapshot with
      | Ok _ -> ()
      | Error e -> failwith (Hyperion.Hyperion_error.to_string e));
      Proc.send tx (Done r)

let start ~traced ~seconds ~snapshot ~span_file s inp =
  let c = Proc.spawn (child ~traced ~seconds ~snapshot ~span_file s inp) in
  match (Proc.recv c.rx : reply) with
  | Ready -> c
  | Done _ -> failwith "embedded child answered out of turn"

(* Time [Persist.load_snapshot] of the final store in a fresh process;
   the first load also checks every key against [expect]. *)
let recover ~snapshot ~check inp =
  Proc.call (fun () ->
      Gc.compact ();
      let t = Telemetry.now_ns () in
      match Persist.load_snapshot ~config snapshot with
      | Error e -> failwith (Hyperion.Hyperion_error.to_string e)
      | Ok (st, _) ->
          let dt = float_of_int (Telemetry.now_ns () - t) /. 1e9 in
          let bad = ref 0 in
          if Store.length st <> Array.length inp.insert_order then incr bad;
          if check then
            Array.iteri
              (fun i k -> if not (same (Store.get st k) inp.expect.(i)) then incr bad)
              inp.key;
          (dt, !bad))
