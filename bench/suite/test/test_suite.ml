(* Self-test of the benchmark: every workload through the same functions
   the benchmark runs, at tiny sizes; the agreement between the emitted
   metrics and BENCHMARK.json; the correctness gate; the compare rule. *)

open Benchsuite

let env =
  {
    Workloads.work_dir = "bm-test-work";
    seed = 7;
    seconds = 0.2;
    setup_reps = 2;
    recover_reps = 2;
  }

let tiny_embedded =
  { Embedded.keys = 3000; inserted = 2700; get_passes = 2; chunk = 500; block = 1000 }

let tiny_read =
  { Served.serve_read with preload = 2000; qps = 4000.0; miss_pool = 200; warmup_s = 0.05 }

let tiny_durable =
  { Served.serve_durable with preload = 1000; qps = 2000.0; warmup_s = 0.05 }

let tiny =
  [
    ("embedded", Workloads.Embedded tiny_embedded);
    ("serve-read", Workloads.Served tiny_read);
    ("serve-durable", Workloads.Served tiny_durable);
  ]

let benchmark = lazy (Json.of_file "../../../BENCHMARK.json")

(* (name, unit) of one BENCHMARK.json metric list *)
let listed key =
  Lazy.force benchmark |> Json.member key |> Json.to_list
  |> List.map (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))

let check_metrics ~expect (o : Report.outcome) =
  Alcotest.(check (list (pair string string)))
    (o.workload ^ ": metric names and units")
    expect
    (List.map (fun (m : Report.metric) -> (m.name, m.unit)) o.metrics);
  List.iter
    (fun (m : Report.metric) ->
      if not (Float.is_finite m.value) then
        Alcotest.failf "%s: %s is not finite" o.workload m.name)
    o.metrics

let test_benchmark_json () =
  Alcotest.(check (list (pair string string)))
    "end_to_end" Report.end_to_end (listed "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Report.per_layer (listed "per_layer");
  Alcotest.(check (list string))
    "workloads" (List.map fst Workloads.all)
    (Lazy.force benchmark |> Json.member "workloads" |> Json.to_list
    |> List.map (fun w -> Json.to_str (Json.member "name" w)))

let test_untraced (name, spec) () =
  Proc.mkdir_p env.work_dir;
  let o = Workloads.run_one env ~trace:false (name, spec) in
  if not o.correct then Alcotest.failf "%s: %s" name (String.concat "; " o.notes);
  check_metrics ~expect:(listed "end_to_end") o;
  List.iter
    (fun (m : Report.metric) ->
      if m.value <= 0.0 then Alcotest.failf "%s: %s = %g is not positive" name m.name m.value)
    o.metrics

let test_traced (name, spec) () =
  Proc.mkdir_p env.work_dir;
  let o = Workloads.run_one env ~trace:true (name, spec) in
  if not o.correct then Alcotest.failf "%s: %s" name (String.concat "; " o.notes);
  check_metrics ~expect:(listed "per_layer") o

(* A wrong expectation must fail the run: one inserted key is expected to
   hold a different value. *)
let test_embedded_gate () =
  Proc.mkdir_p env.work_dir;
  let gen () =
    let inp = Embedded.gen ~seed:env.seed tiny_embedded in
    let i = inp.insert_order.(0) in
    inp.expect.(i) <- Some (Int64.succ inp.value.(i));
    inp
  in
  let r = Workloads.run_embedded env ~traced:false ~gen tiny_embedded in
  Alcotest.(check bool) "correct" false (Report.outcome ~workload:"embedded" r.m).correct;
  (* every round reads the key twice, and the recovery check once more *)
  Alcotest.(check int) "wrong get values" 2 (List.assoc "wrong get values" r.m.failures);
  Alcotest.(check int) "recovered store" 1 (List.assoc "recovered store" r.m.failures)

(* ... and over the wire: one get expects a value the key never had. *)
let test_served_gate () =
  Proc.mkdir_p env.work_dir;
  let gen () =
    let inp = Served.gen ~seed:env.seed ~seconds:(tiny_read.warmup_s +. env.seconds) tiny_read in
    let plan = inp.plan in
    let i = ref 0 in
    while Openloop.is_put plan !i || plan.value.(!i) < 0 do incr i done;
    plan.value.(!i) <- plan.value.(!i) + 1;
    inp
  in
  let r = Workloads.run_served env ~traced:false ~gen tiny_read in
  Alcotest.(check bool) "correct" false (Report.outcome ~workload:"serve-read" r.m).correct;
  Alcotest.(check int) "wrong responses" 1 (List.assoc "wrong responses" r.m.failures)

let test_quartiles () =
  (* statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) *)
  let q1, q2, q3 = Stat.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-9))) "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-9)) "median" 5.5 (Stat.median [| 10.; 1.; 5.; 6. |])

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_name v))
    ( = )

let test_compare () =
  let lower = { Compare.higher = false; bound = 0.10 } in
  let higher = { Compare.higher = true; bound = 0.10 } in
  let base = Array.init 10 (fun i -> 100.0 +. float_of_int (i mod 3)) in
  let judge b ~next = let _, _, v = Compare.judge b ~base ~next in v in
  Alcotest.check verdict "same runs" Compare.Unchanged (judge lower ~next:base);
  Alcotest.check verdict "lower latency" Compare.Better
    (judge lower ~next:(Array.map (fun x -> x -. 10.0) base));
  Alcotest.check verdict "latency beyond the bound" Compare.Worse
    (judge lower ~next:(Array.map (fun x -> x *. 1.2) base));
  Alcotest.check verdict "throughput beyond the bound" Compare.Worse
    (judge higher ~next:(Array.map (fun x -> x *. 0.8) base));
  Alcotest.check verdict "within the bound" Compare.Unchanged
    (judge lower ~next:(Array.map (fun x -> x *. 1.05) base));
  let noisy = Array.init 10 (fun i -> if i mod 2 = 0 then 70.0 else 130.0) in
  Alcotest.check verdict "spread wider than the bound" Compare.Unresolved
    (judge lower ~next:noisy);
  Alcotest.check verdict "noisy but every run better" Compare.Better
    (judge lower ~next:(Array.map (fun x -> x /. 3.0) noisy))

let () =
  Alcotest.run "bench-suite"
    [
      ("benchmark-json", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]);
      ( "workloads",
        List.map (fun w -> Alcotest.test_case (fst w) `Quick (test_untraced w)) tiny
        @ [ Alcotest.test_case "traced serve-durable" `Quick (test_traced (List.nth tiny 2)) ] );
      ( "correctness gate",
        [
          Alcotest.test_case "embedded" `Quick test_embedded_gate;
          Alcotest.test_case "served" `Quick test_served_gate;
        ] );
      ( "compare",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "verdicts" `Quick test_compare;
        ] );
    ]
