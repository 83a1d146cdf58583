(* bm.exe — the repository's benchmark.

     bm.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
            [--json FILE] [--work-dir DIR]
     bm.exe compare BASE_DIR NEW_DIR [--benchmark FILE]

   A run prints, per workload, detail lines starting with '#', then every
   metric as "workload metric value unit", and ends with one JSON line
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones of a
   traced run.  Exit code: 0 when every correctness check passed, 1 when
   one failed (the result is still printed), 2 on bad arguments, 3 when
   the run could not complete (no result is printed). *)

open Benchsuite

let usage () =
  prerr_endline
    "usage: bm.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] \
     [--json FILE] [--work-dir DIR]\n\
    \       bm.exe compare BASE_DIR NEW_DIR [--benchmark FILE]";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bm: " ^ s); exit 3) fmt

let compare_main args =
  let rec parse bench = function
    | [ base; next ] -> (bench, base, next)
    | "--benchmark" :: f :: rest -> parse f rest
    | base :: next :: "--benchmark" :: f :: rest -> parse f (base :: next :: rest)
    | _ -> usage ()
  in
  let bench, base, next = parse "BENCHMARK.json" args in
  let rows =
    Compare.rows ~bounds:(Compare.load_bounds bench) ~workloads:(List.map fst Workloads.all)
      ~base:(Compare.load_side base) ~next:(Compare.load_side next)
  in
  Compare.print_rows rows;
  exit (if List.exists (fun r -> r.Compare.verdict = Compare.Worse) rows then 1 else 0)

let run_main args =
  let workloads = ref [] and seed = ref 20190301 and seconds = ref 15.0 in
  let trace = ref false and json = ref None and work_dir = ref ".bench_build/bm" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if not (List.mem_assoc w Workloads.all) then usage ();
        workloads := !workloads @ [ w ];
        parse rest
    | "--seed" :: n :: rest ->
        seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        seconds :=
          (match float_of_string_opt s with Some s when s >= 0.0 -> s | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
        parse rest
    | "--json" :: f :: rest ->
        json := Some f;
        parse rest
    | "--work-dir" :: d :: rest ->
        work_dir := d;
        parse rest
    | _ -> usage ()
  in
  parse args;
  let chosen =
    match !workloads with
    | [] -> Workloads.all
    | ws -> List.map (fun w -> (w, List.assoc w Workloads.all)) ws
  in
  let env =
    { Workloads.work_dir = !work_dir; seed = !seed; seconds = !seconds; setup_reps = 3;
      recover_reps = 3 }
  in
  Proc.mkdir_p env.work_dir;
  (* a child that died must surface as an error, not kill this process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A run that hangs must not outlive its budget: kill every child and
     fail without a result. *)
  let budget = 175 * List.length chosen * if !trace then 2 else 1 in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         Proc.kill_all ();
         die "out of time after %d s" budget));
  ignore (Unix.alarm budget);
  let outcomes =
    List.map
      (fun w ->
        match Workloads.run_one env ~trace:!trace w with
        | o ->
            Report.print_lines o;
            o
        | exception e ->
            Proc.kill_all ();
            die "%s: %s" (fst w) (Printexc.to_string e))
      chosen
  in
  ignore (Unix.alarm 0);
  Option.iter
    (fun f ->
      Proc.mkdir_p (Filename.dirname f);
      let oc = open_out f in
      output_string oc
        (Json.to_string
           (Json.Arr (List.map (Report.outcome_json ~seed:!seed ~trace:!trace) outcomes)));
      output_char oc '\n';
      close_out oc)
    !json;
  let last =
    match outcomes with
    | [ o ] -> o
    | os ->
        {
          Report.workload = "all";
          correct = List.for_all (fun o -> o.Report.correct) os;
          attempted = List.fold_left (fun a o -> a + o.Report.attempted) 0 os;
          failed = List.fold_left (fun a o -> a + o.Report.failed) 0 os;
          metrics =
            List.concat_map
              (fun o ->
                List.map
                  (fun m -> { m with Report.name = o.Report.workload ^ "." ^ m.Report.name })
                  o.Report.metrics)
              os;
          notes = [];
        }
  in
  print_endline (Report.result_line last);
  exit (if last.correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: args -> compare_main args
  | args -> run_main args
