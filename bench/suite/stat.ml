(* Order statistics for the benchmark.  Latencies are kept raw (ns ints)
   and ranked exactly, never bucketed, so a reported percentile moves
   with the measurement instead of snapping to a histogram bucket. *)

let sorted_floats a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Python's [statistics.median]. *)
let median a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted_floats a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Python's [statistics.quantiles a ~n:4] (the default "exclusive"
   method): the three cut points q1, q2, q3. *)
let quartiles a =
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let s = sorted_floats a in
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)

(* Quartile distance as a share of the median. *)
let rel_iqr a =
  let q1, _, q3 = quartiles a in
  let m = median a in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* Nearest-rank percentile of an ascending int array. *)
let rank_pct sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

let sorted_ints a =
  let b = Array.copy a in
  Array.sort Int.compare b;
  b

let mean_int a =
  let n = Array.length a in
  if n = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int n

(* Exact p50 and p99 of one group of latency samples (ns). *)
let group_pct (g : int array) =
  let s = sorted_ints g in
  (float_of_int (rank_pct s 0.50), float_of_int (rank_pct s 0.99))

(* Latency percentiles over consecutive blocks of samples of one kind of
   operation.  Each full block yields its own exact p50 and p99; the
   reported value is the median across blocks.  A block is short (a
   fraction of a second of operations), so a stall of the machine spoils
   few blocks and cannot move the median, while the whole-run percentiles
   that ride along for the printout do show it.  A trailing partial block
   is dropped; a run shorter than one block is one block. *)
type pct = {
  p50 : float;  (** median over blocks of the block p50, ns *)
  p99 : float;  (** median over blocks of the block p99, ns *)
  all_p50 : float;  (** whole run, ns, within the histogram's 3.125% *)
  all_p99 : float;
  all_p999 : float;
  samples : int;
  blocks : int;
}

let block_pcts ~block samples =
  let n = Array.length samples in
  if n = 0 then []
  else if n < block then [ group_pct samples ]
  else List.init (n / block) (fun b -> group_pct (Array.sub samples (b * block) block))

let pct ~blocks ~(whole : Telemetry.Hist.t) =
  let med f = median (Array.of_list (List.map f blocks)) in
  {
    p50 = med fst;
    p99 = med snd;
    all_p50 = Telemetry.Hist.quantile whole 0.50;
    all_p99 = Telemetry.Hist.quantile whole 0.99;
    all_p999 = Telemetry.Hist.quantile whole 0.999;
    samples = Telemetry.Hist.count whole;
    blocks = List.length blocks;
  }
