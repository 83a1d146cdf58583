(* [bm.exe compare BASE_DIR NEW_DIR]: the before/after rule of the
   choosing-metrics method (sections 6 to 8).

   Each directory holds result files written by [bm.exe --json], one per
   run; the i-th file of each side (by name) forms the i-th pair, so runs
   made alternately pair up.  For every workload x end-to-end metric the
   verdict is one of:
   - [unresolved]: the run-to-run spread (quartile distance over median,
     either side) is wider than the metric's bound, unless every new run
     reads better than every base run;
   - [worse]: the new median is worse than the base median by more than
     the bound;
   - [better]: the new side wins at least 9/10 of the pairs (ties count
     for neither) and the medians differ by more than the base side's
     quartile distance;
   - [unchanged]: otherwise. *)

type bound = { higher : bool; bound : float }
type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : string;
  base : float array;
  next : float array;
  wins : int;
  pairs : int;
  verdict : verdict;
}

let judge { higher; bound } ~base ~next =
  let gain a b = if higher then b -. a else a -. b in
  (* [gain a b > 0] when [b] reads better than [a] *)
  let pairs = min (Array.length base) (Array.length next) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if gain base.(i) next.(i) > 0.0 then incr wins
  done;
  let mb = Stat.median base and mn = Stat.median next in
  let q1, _, q3 = Stat.quartiles base in
  let all_better =
    Array.for_all (fun x -> Array.for_all (fun y -> gain y x > 0.0) base) next
  in
  let spread = Float.max (Stat.rel_iqr base) (Stat.rel_iqr next) in
  let verdict =
    if spread > bound && not all_better then Unresolved
    else if gain mb mn < -.bound *. Float.abs mb then Worse
    else if
      pairs > 0
      && float_of_int !wins >= 0.9 *. float_of_int pairs
      && gain mb mn > q3 -. q1
    then Better
    else Unchanged
  in
  (!wins, pairs, verdict)

(* BENCHMARK.json's end-to-end metrics: name -> direction and bound. *)
let load_bounds path =
  Json.of_file path |> Json.member "end_to_end" |> Json.to_list
  |> List.map (fun m ->
         ( Json.to_str (Json.member "name" m),
           {
             higher = Json.to_str (Json.member "better" m) = "higher";
             bound = Json.to_float (Json.member "bound" m);
           } ))

(* (workload, metric) -> values, one per result file, in file-name order. *)
let load_side dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun f ->
      Json.of_file (Filename.concat dir f)
      |> Json.to_list
      |> List.iter (fun r ->
             if not (Json.to_bool (Json.member "trace" r)) then
               let w = Json.to_str (Json.member "workload" r) in
               match Json.member "metrics" r with
               | Json.Obj ms ->
                   List.iter
                     (fun (name, v) ->
                       let key = (w, name) in
                       let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
                       Hashtbl.replace tbl key (Json.to_float (Json.member "value" v) :: prev))
                     ms
               | _ -> ()))
    files;
  fun key -> Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl key)))

let rows ~bounds ~workloads ~base ~next =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (metric, b) ->
          let bv = base (w, metric) and nv = next (w, metric) in
          if Array.length bv = 0 || Array.length nv = 0 then None
          else
            let wins, pairs, verdict = judge b ~base:bv ~next:nv in
            Some { workload = w; metric; base = bv; next = nv; wins; pairs; verdict })
        bounds)
    workloads

let describe a =
  let q1, q2, q3 = Stat.quartiles a in
  Printf.sprintf "%.6g [%.6g, %.6g]" q2 q1 q3

let print_rows rows =
  Printf.printf "%-14s %-14s %-34s %-34s %-6s %s\n" "workload" "metric"
    "base median [q1, q3]" "new median [q1, q3]" "wins" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-14s %-14s %-34s %-34s %-6s %s\n" r.workload r.metric
        (describe r.base) (describe r.next)
        (Printf.sprintf "%d/%d" r.wins r.pairs)
        (verdict_name r.verdict))
    rows
