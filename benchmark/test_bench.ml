(* Unit tests for the benchmark's exact percentiles, span self time and
   fabric hop join. *)

open Velum_bench_core

(* ---- exact percentiles ---- *)

(* Tail samples spread over the 2^22 bucket: replaying each log2 bucket
   at its lower bound (how E23 merged per-host histograms) reads every
   tail percentile back as 4194304; nearest rank returns a sample. *)
let e23_fixture =
  List.init 90 (fun i -> 1_000_000 + (i * 3_001))
  @ List.init 10 (fun i -> 4_500_000 + (i * 350_000))

let test_log2_floor_vs_exact () =
  let h = Velum_util.Histogram.create () in
  List.iter (Velum_util.Histogram.add h) e23_fixture;
  let replayed = Velum_util.Histogram.create () in
  List.iter
    (fun (lo, n) ->
      for _ = 1 to n do
        Velum_util.Histogram.add replayed lo
      done)
    (Velum_util.Histogram.buckets h);
  Alcotest.(check (float 0.0))
    "bucket floor" 4194304.0
    (Velum_util.Histogram.percentile replayed 99.0);
  let sorted = Pctl.sorted_of_list e23_fixture in
  Alcotest.(check int) "p99 is a sample" 7_300_000 (Pctl.nearest_rank sorted 99.0);
  Alcotest.(check int) "p95" 5_900_000 (Pctl.nearest_rank sorted 95.0);
  Alcotest.(check int) "p50" (1_000_000 + (49 * 3_001)) (Pctl.nearest_rank sorted 50.0)

let test_nearest_rank_edges () =
  let a = Pctl.sorted_of_list [ 30; 10; 20; 40 ] in
  Alcotest.(check int) "p0 = min" 10 (Pctl.nearest_rank a 0.0);
  Alcotest.(check int) "p25" 10 (Pctl.nearest_rank a 25.0);
  Alcotest.(check int) "p26" 20 (Pctl.nearest_rank a 26.0);
  Alcotest.(check int) "p100 = max" 40 (Pctl.nearest_rank a 100.0);
  Alcotest.check_raises "empty" (Invalid_argument "Pctl.nearest_rank: no samples") (fun () ->
      ignore (Pctl.nearest_rank [||] 50.0));
  Alcotest.(check (float 0.0)) "even median" 2.5 (Pctl.median_float [ 4.0; 1.0; 3.0; 2.0 ])

(* ---- span self time ---- *)

let mk id parent name start_ns end_ns =
  { Spans.id; parent; name; workload = "w"; rep = 1; start_ns; end_ns }

(* root [0,100] holds a [10,40] (which holds a1 [15,25]) and b [30,60],
   overlapping siblings as spans from two threads would be; c [90,120]
   runs past its parent's end. *)
let tree =
  [
    mk 1 None "root" 0 100;
    mk 2 (Some 1) "a" 10 40;
    mk 3 (Some 2) "a1" 15 25;
    mk 4 (Some 1) "b" 30 60;
    mk 5 (Some 1) "c" 90 120;
  ]

let test_self_time () =
  let self = List.map (fun ((s : Spans.span), ns) -> (s.name, ns)) (Spans.self_ns tree) in
  Alcotest.(check (list (pair string int)))
    "duration minus the union of child intervals"
    [ ("root", 100 - (50 + 10)); ("a", 30 - 10); ("a1", 10); ("b", 30); ("c", 30) ]
    self;
  let layers = Spans.by_name (tree @ [ mk 6 (Some 1) "b" 70 80 ]) in
  let b = List.find (fun (l : Spans.layer) -> l.lname = "b") layers in
  Alcotest.(check (list int)) "siblings aggregate by name" [ 2; 40; 40 ]
    [ b.count; b.total_ns; b.self_ns ];
  let root = List.find (fun (l : Spans.layer) -> l.lname = "root") layers in
  Alcotest.(check int) "a later sibling shrinks the parent" 30 root.self_ns

let test_recorder () =
  let sp = Spans.create ~on:true ~workload:"w" in
  Spans.span sp "outer" (fun () ->
      Spans.span sp "inner" ignore;
      Spans.span sp "inner" ignore);
  (try Spans.span sp "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let spans = Spans.spans sp in
  Alcotest.(check (list (pair string (option int))))
    "parents" [ ("outer", None); ("inner", Some 1); ("inner", Some 1); ("raises", None) ]
    (List.map (fun (s : Spans.span) -> (s.name, s.parent)) spans);
  let off = Spans.create ~on:false ~workload:"w" in
  Alcotest.(check int) "disabled records nothing" 7 (Spans.span off "x" (fun () -> 7));
  Alcotest.(check int) "no spans" 0 (List.length (Spans.spans off))

let test_jsonl_order () =
  let shuffled = List.map (List.nth tree) [ 3; 0; 4; 2; 1 ] in
  let out = Spans.to_jsonl shuffled in
  Alcotest.(check string) "id order whatever the input order" (Spans.to_jsonl tree) out;
  let ids =
    List.map
      (fun line -> Json.to_num (Json.get "id" (Json.parse line)))
      (List.filter (( <> ) "") (String.split_on_char '\n' out))
  in
  Alcotest.(check (list (float 0.0))) "ids" [ 1.; 2.; 3.; 4.; 5. ] ids;
  Alcotest.(check string) "root parent is null" "null"
    (Json.to_string (Json.get "parent" (Json.parse (List.hd (String.split_on_char '\n' out)))))

(* ---- fabric hops ---- *)

let frame ~kind ~id ~stamp ~cmac =
  let b = Bytes.make 48 '\000' in
  Bytes.set_int64_le b 16 kind;
  Bytes.set_int64_le b 24 id;
  Bytes.set_int64_le b 32 stamp;
  Bytes.set_int64_le b 40 cmac;
  Bytes.to_string b

let test_hops_sum () =
  let t = Hops.create () in
  let backends = 2 in
  (* two requests from two clients, sightings interleaved out of order,
     plus an announce and a request that never got its reply *)
  let seen port now kind id stamp cmac =
    Hops.record t (Hops.role_of_port ~backends port) ~now (frame ~kind ~id ~stamp ~cmac)
  in
  seen 3 1_000L 2L 0L 100L 0x13L;
  seen 0 400L 1L 0L 100L 0x13L;
  seen 0 450L 1L 0L 120L 0x14L;
  seen 1 700L 1L 0L 100L 0x13L;
  seen 2 900L 1L 0L 120L 0x14L;
  seen 0 800L 2L 0L 100L 0x13L;
  seen 0 1_500L 2L 0L 120L 0x14L;
  seen 4 2_000L 2L 0L 120L 0x14L;
  seen 0 50L 0L 0L 0L 0x15L;
  seen 0 3_000L 1L 1L 2_900L 0x13L;
  let joined, incomplete = Hops.joined t in
  Alcotest.(check int) "one request never came back" 1 incomplete;
  Alcotest.(check (list (list int64)))
    "hops per request"
    [ [ 300L; 300L; 100L; 200L ]; [ 330L; 450L; 600L; 500L ] ]
    (List.map Array.to_list joined);
  Alcotest.(check (list int64)) "hops sum to the end-to-end latency" [ 900L; 1_880L ]
    (List.map Hops.sum joined)

let () =
  Alcotest.run "benchmark"
    [
      ( "percentiles",
        [
          Alcotest.test_case "log2 floor vs exact" `Quick test_log2_floor_vs_exact;
          Alcotest.test_case "nearest rank edges" `Quick test_nearest_rank_edges;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
          Alcotest.test_case "jsonl order" `Quick test_jsonl_order;
        ] );
      ("hops", [ Alcotest.test_case "hops sum to latency" `Quick test_hops_sum ]);
    ]
