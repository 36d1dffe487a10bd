(* velum_bench: the repository benchmark.

     velum_bench run [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE] [--smoke]
         every workload, each in its own process; prints every end-to-end
         metric per workload; with --trace also a traced pass (its spans
         go to FILE as JSONL); --out keeps the per-repetition results for
         [compare]; --smoke runs tiny sizes and checks BENCHMARK.json
     velum_bench run --workload W [--seed N] [--seconds S] [--trace 0|1|FILE]
         one workload in this process; the last line of output is the
         one-line JSON result (end-to-end metrics, or per-layer metrics
         when traced)
     velum_bench compare A.json B.json
         applies the metric bounds to two --out files, one row per
         (workload, metric)

   Exit status is non-zero when a correctness check fails. *)

open Velum_bench_core
open Scenarios

let default_seed = 1L
let default_seconds = 12.0
let cores () = Domain.recommended_domain_count ()

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("velum_bench: " ^ msg);
      exit 2)
    fmt

(* ---- measuring one workload ---- *)

let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          if String.starts_with ~prefix:"VmHWM:" line then
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          else scan ()
        in
        scan ())
  in
  try from_proc ()
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Set-up is short next to the body and its time jitters, so an
   untraced repetition first sets up and discards instances [n] times,
   and reports every set-up time.  Each starts after a full collection,
   so none pays for collecting its predecessor. *)
let extra_setups n setup =
  List.init n (fun _ ->
      Gc.compact ();
      snd (timed setup))

(* ---- machine speed ----

   The shared machine behind benchmark/README.md runs the same code up to
   30% slower for a minute or more at a time, in wall time and CPU time
   alike: the raw wall time of one workload spread by up to 33% over ten
   runs.  Two fixed probes, which share no code with the simulator, run
   before and after every measured body: random 8-byte reads and writes
   over 2 MiB with hashtable updates and short-lived allocation, and an
   integer-and-branch loop in registers.  Host times are scaled by
   [reference_probe_s] over the geometric mean of the probes' times,
   i.e. reported in seconds of a machine on which that mean is
   [reference_probe_s].  The README shows the spread with and without
   the scaling. *)

(* the median of that mean over the 600 probe readings behind the
   README's table *)
let reference_probe_s = 0.017

let probe_memory () =
  let size = 1 lsl 21 in
  let mem = Bytes.make size '\000' in
  let tbl = Hashtbl.create 4096 in
  let x = ref 1 and young = ref [] in
  for i = 0 to 1_200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let a = (!x lsr 3) land (size - 8) in
    Bytes.set_int64_le mem a (Int64.add (Bytes.get_int64_le mem a) (Int64.of_int i));
    match !x land 7 with
    | 0 -> Hashtbl.replace tbl (!x land 4095) i
    | 1 -> ignore (Hashtbl.find_opt tbl (!x land 4095))
    | 2 -> young := (i, !x) :: (if i land 1023 = 0 then [] else !young)
    | _ -> ()
  done;
  ignore (Sys.opaque_identity !young)

let probe_alu () =
  let x = ref 1 and acc = ref 0 in
  for i = 0 to 6_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    if !x land 3 = 0 then acc := !acc + i else acc := !acc lxor !x
  done;
  ignore (Sys.opaque_identity !acc)

(* Geometric mean of the two probes' medians of five runs. *)
let probe () =
  let median_of f = Pctl.median_float (List.init 5 (fun _ -> snd (timed f))) in
  sqrt (median_of probe_memory *. median_of probe_alu)

(* One measured repetition: its raw set-up times, the body's outcome, the
   process's peak resident set once it is done, and the factor that
   turns its raw host times into reference seconds. *)
type sample = { setups : float list; r : rep; rss_mb : float; scale : float }

(* One repetition: the body runs on the last instances set up.  A full
   collection ([Gc.compact]) runs before every set-up: earlier instances
   are garbage by then, so every set-up and body starts from the same GC
   state and the process never holds two repetitions' worth of guest
   memory.  With [setups] = 0 (traced and smoke runs) it sets up once
   and is not probed. *)
let fresh sp ~setups setup =
  let extra = extra_setups setups setup in
  Gc.compact ();
  let before = if setups > 0 then probe () else reference_probe_s in
  Gc.compact ();
  let t, r =
    Spans.span sp "rep" (fun () ->
        let body, t = timed setup in
        (t, body ()))
  in
  let rss_mb = peak_rss_mb () in
  let after = if setups > 0 then probe () else reference_probe_s in
  { setups = t :: extra; r; rss_mb; scale = 2.0 *. reference_probe_s /. (before +. after) }

(* Repetitions until the next one would overrun [seconds], at least
   [min_reps]. *)
let measure sp ~seconds ~min_reps ~setups setup =
  let t0 = Unix.gettimeofday () in
  let rec loop acc n last =
    if n >= min_reps && Unix.gettimeofday () -. t0 +. last > seconds then List.rev acc
    else begin
      let r0 = Unix.gettimeofday () in
      let s = fresh sp ~setups setup in
      loop (s :: acc) (n + 1) (Unix.gettimeofday () -. r0)
    end
  in
  loop [] 0 0.0

let same_outcome a b =
  a.sim = b.sim && a.fingerprint = b.fingerprint && a.instret = b.instret
  && a.attempted = b.attempted && a.failed = b.failed && a.samples = b.samples

(* Every end-to-end value of a workload: per-repetition values for wall
   metrics (host times in reference seconds), the single simulated value
   otherwise. *)
let e2e_values ~workload samples =
  let r1 = (List.hd samples).r in
  let wall s = s.r.wall_s *. s.scale in
  List.filter_map
    (fun (m : Catalog.metric) ->
      if not (Catalog.applies m workload) then None
      else
        let values =
          match m.name with
          | "wall_s" -> List.map wall samples
          | "guest_mips" -> List.map (fun s -> Int64.to_float s.r.instret /. wall s /. 1e6) samples
          | "setup_s" -> List.concat_map (fun s -> List.map (( *. ) s.scale) s.setups) samples
          (* after the first repetition: the one-time checks, a round of
             set-ups and one body.  Later repetitions leave the heap a
             little larger each time, so the process peak at the end
             would depend on how many fit in the run. *)
          | "peak_rss_mb" -> [ (List.hd samples).rss_mb ]
          | "error_rate" -> [ float_of_int r1.failed /. float_of_int r1.attempted ]
          | name -> [ List.assoc name r1.sim ]
        in
        Some (m, values))
    Catalog.end_to_end

let fmt_value unit_ v =
  match unit_ with
  | "cycles" | "count" | "bytes" -> Printf.sprintf "%.0f" v
  | _ -> Printf.sprintf "%.6g" v

(* The one-line result.  Its [failed] counts operations that went wrong;
   VMs that fleet-chaos sheds by design (see [rep.shed]) count in
   [error_rate] but not there. *)
let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit_, v) ->
                  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]))
                metrics) );
       ])

let report_untraced ~workload ~seed samples =
  let r1 = (List.hd samples).r in
  let n = List.length samples in
  let speeds = List.map (fun s -> s.scale) samples in
  Printf.printf "== %s  seed %Ld  cores %d  reps %d\n" workload seed (cores ()) n;
  Printf.printf "  host speed %.3f of reference (probe); raw wall_s median %.4f s\n"
    (Pctl.median_float speeds)
    (Pctl.median_float (List.map (fun s -> s.r.wall_s) samples));
  let values = e2e_values ~workload samples in
  List.iter
    (fun ((m : Catalog.metric), vs) ->
      let v = Pctl.median_float vs in
      let extra =
        match m.name with
        | "req_p50_cycles" | "req_p99_cycles" ->
            Printf.sprintf "  (nearest rank, n=%d)" r1.samples
        | "error_rate" ->
            Printf.sprintf "  (%d/%d ops%s)" r1.failed r1.attempted
              (if r1.shed > 0 then Printf.sprintf ", %d shed" r1.shed else "")
        | "setup_s" -> Printf.sprintf "  (median of %d set-ups)" (List.length vs)
        | _ when m.kind = Catalog.Wall && List.length vs > 1 ->
            Printf.sprintf "  reps [%s]"
              (String.concat " " (List.map (Printf.sprintf "%.4g") vs))
        | _ -> ""
      in
      Printf.printf "  %-20s %14s %-6s%s\n" m.name (fmt_value m.unit_ v) m.unit_ extra)
    values;
  let detail =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (Int64.to_float seed));
        ("cores", Json.Num (float_of_int (cores ())));
        ("reps", Json.Num (float_of_int n));
        ("speed", Json.Arr (List.map (fun v -> Json.Num v) speeds));
        ("samples", Json.Num (float_of_int r1.samples));
        ( "metrics",
          Json.Obj
            (List.map
               (fun ((m : Catalog.metric), vs) ->
                 ( m.name,
                   Json.Obj
                     [
                       ("unit", Json.Str m.unit_);
                       ("kind", Json.Str (Catalog.kind_name m.kind));
                       ("values", Json.Arr (List.map (fun v -> Json.Num v) vs));
                     ] ))
               values) );
      ]
  in
  print_endline ("detail " ^ Json.to_string detail);
  print_endline
    (result_line ~correct:true ~attempted:(n * r1.attempted)
       ~failed:(n * (r1.failed - r1.shed))
       (List.filter_map
          (fun ((m : Catalog.metric), vs) ->
            if m.on_result_line then Some (m.name, m.unit_, Pctl.median_float vs) else None)
          values))

(* Self time of [name] and its dotted children within [layers]. *)
let self_of layers name =
  List.fold_left
    (fun acc (l : Spans.layer) ->
      if l.lname = name || String.starts_with ~prefix:(name ^ ".") l.lname then
        acc + l.self_ns
      else acc)
    0 layers

let report_traced ~workload ~seed ~untraced ~traced spans =
  let rep_spans = List.filter (fun (s : Spans.span) -> s.rep = 1) spans in
  let layers = Spans.by_name rep_spans in
  let rep_ns =
    List.fold_left
      (fun acc (s : Spans.span) -> if s.name = "rep" then s.end_ns - s.start_ns else acc)
      0 rep_spans
  in
  let secs ns = float_of_int ns /. 1e9 in
  let overhead = traced.wall_s /. untraced.wall_s in
  Printf.printf "== %s (traced)  seed %Ld  cores %d\n" workload seed (cores ());
  Printf.printf "  %-24s %6s %12s %12s %8s\n" "span" "count" "total s" "self s" "self %";
  List.iter
    (fun (l : Spans.layer) ->
      Printf.printf "  %-24s %6d %12.6f %12.6f %7.2f%%\n" l.lname l.count (secs l.total_ns)
        (secs l.self_ns)
        (100.0 *. float_of_int l.self_ns /. float_of_int rep_ns))
    layers;
  let rounds =
    List.filter_map
      (fun (s : Spans.span) ->
        if s.name = "parallel.round" then Some (float_of_int (s.end_ns - s.start_ns) /. 1e9)
        else None)
      rep_spans
  in
  if rounds <> [] then
    Printf.printf "  parallel.round_s        p50 %.6f  max %.6f  (%d rounds)\n"
      (Pctl.median_float rounds) (List.fold_left max 0.0 rounds) (List.length rounds);
  Printf.printf "  trace_overhead          %.4f  (traced %.4f s / untraced %.4f s)\n" overhead
    traced.wall_s untraced.wall_s;
  let value name =
    if name = "trace.wall_s" then traced.wall_s
    else if name = "trace_overhead" then overhead
    else if String.ends_with ~suffix:".self_share" name then
      let span_name = String.sub name 0 (String.length name - 11) in
      float_of_int (self_of layers span_name) /. float_of_int rep_ns
    else Option.value ~default:0.0 (List.assoc_opt name traced.layers)
  in
  List.iter
    (fun (l : Catalog.layer) ->
      Printf.printf "  -- %s: should move %s%s\n" l.modules l.moves
        (if l.bypassed_by = [] then ""
         else "; should not move on " ^ String.concat ", " l.bypassed_by);
      List.iter
        (fun (name, unit_, _) ->
          Printf.printf "     %-36s %16s %s\n" name (fmt_value unit_ (value name)) unit_)
        l.metrics)
    Catalog.layers;
  print_endline
    (result_line ~correct:true ~attempted:traced.attempted ~failed:(traced.failed - traced.shed)
       (List.map (fun (name, unit_, _) -> (name, unit_, value name)) Catalog.layer_metrics))

let run_one ~workload ~seed ~seconds ~trace ~size =
  let w = match find workload with Some w -> w | None -> die "unknown workload %S" workload in
  let traced = trace <> `Off in
  let sp = Spans.create ~on:traced ~workload in
  try
    let setup = w.prepare size ~seed ~sp in
    if not traced then begin
      (* the smoke run checks outcomes and names, not times: it neither
         repeats set-ups nor probes the machine *)
      let min_reps, setups = match size with Full -> (3, w.setups) | Smoke -> (2, 0) in
      let samples = measure sp ~seconds ~min_reps ~setups setup in
      let reps = List.map (fun s -> s.r) samples in
      let r1 = List.hd reps in
      List.iteri
        (fun i r ->
          check (same_outcome r r1 && r.layers = r1.layers)
            "%s: repetition %d simulated a different outcome" workload (i + 1))
        reps;
      report_untraced ~workload ~seed samples
    end
    else begin
      Spans.set_on sp false;
      let untraced = (fresh sp ~setups:0 setup).r in
      Spans.set_on sp true;
      Spans.set_rep sp 1;
      let traced = (fresh sp ~setups:0 setup).r in
      check (same_outcome untraced traced)
        "%s: the traced run simulated a different outcome" workload;
      let spans = Spans.spans sp in
      report_traced ~workload ~seed ~untraced ~traced spans;
      match trace with
      | `File path ->
          let oc = open_out path in
          output_string oc (Spans.to_jsonl spans);
          close_out oc
      | _ -> ()
    end
  with Check_failed msg ->
    Printf.printf "check failed: %s\n" msg;
    print_endline (result_line ~correct:false ~attempted:1 ~failed:1 []);
    exit 1

(* ---- every workload, one process each ---- *)

type child = { lines : string list; ok : bool }

let run_child ~echo args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read acc =
    match input_line ic with
    | line ->
        if echo && not (String.starts_with ~prefix:"detail " line) then print_endline line;
        read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  let ok = match Unix.close_process_in ic with Unix.WEXITED 0 -> true | _ -> false in
  { lines; ok }

let last_json c =
  match List.rev c.lines with
  | l :: _ -> ( try Some (Json.parse l) with Json.Parse_error _ -> None)
  | [] -> None

let detail c =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:"detail " l then
        Some (Json.parse (String.sub l 7 (String.length l - 7)))
      else None)
    c.lines

(* The smoke test's view of BENCHMARK.json: it must list exactly the
   catalog's workloads and result-line metrics, and every result line
   must carry each of them, with its unit (end-to-end values never 0). *)
let check_spec spec ~untraced ~traced =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let keys j = List.map fst (Json.to_obj j) in
  if keys spec <> [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
  then fail "BENCHMARK.json keys are %s" (String.concat "," (keys spec));
  let entries field = Json.to_list (Json.get field spec) in
  if List.map (fun e -> Json.to_str (Json.get "name" e)) (entries "workloads")
     <> Catalog.workload_names
  then fail "BENCHMARK.json workloads differ";
  let expect_e2e =
    List.map
      (fun (m : Catalog.metric) -> (m.name, m.unit_, Catalog.better_name m.better, Some m.bound))
      Catalog.result_line_metrics
  and expect_layer =
    List.map (fun (n, u, b) -> (n, u, Catalog.better_name b, None)) Catalog.layer_metrics
  in
  let listed field with_bound =
    List.map
      (fun e ->
        ( Json.to_str (Json.get "name" e),
          Json.to_str (Json.get "unit" e),
          Json.to_str (Json.get "better" e),
          if with_bound then Some (Json.to_num (Json.get "bound" e)) else None ))
      (entries field)
  in
  if listed "end_to_end" true <> expect_e2e then
    fail "BENCHMARK.json end_to_end differs from the catalog";
  if listed "per_layer" false <> expect_layer then
    fail "BENCHMARK.json per_layer differs from the catalog";
  let check_line what c expected ~nonzero =
    match last_json c with
    | None -> fail "%s: no result line" what
    | Some j ->
        if Json.get "correct" j <> Json.Bool true then fail "%s: not correct" what;
        if Json.to_num (Json.get "attempted" j) < 1.0 then fail "%s: nothing attempted" what;
        if Json.to_num (Json.get "failed" j) <> 0.0 then fail "%s: operations failed" what;
        let got = Json.to_obj (Json.get "metrics" j) in
        if List.map fst got <> List.map (fun (n, _, _, _) -> n) expected then
          fail "%s: metric names differ from BENCHMARK.json" what;
        List.iter
          (fun (n, u, _, _) ->
            match List.assoc_opt n got with
            | Some v ->
                if Json.to_str (Json.get "unit" v) <> u then
                  fail "%s: %s has the wrong unit" what n;
                if nonzero && Json.to_num (Json.get "value" v) = 0.0 then
                  fail "%s: %s is 0" what n
            | None -> fail "%s: %s missing" what n)
          expected
  in
  List.iter (fun (w, c) -> check_line w c expect_e2e ~nonzero:true) untraced;
  List.iter (fun (w, c) -> check_line (w ^ " traced") c expect_layer ~nonzero:false) traced;
  List.rev !problems

(* Span ids count from 1 in each workload's process; within a workload
   the file lists them in id order. *)
let check_spans_file path =
  let ic = open_in path in
  let rec go n prev =
    match input_line ic with
    | line ->
        let j = Json.parse line in
        let id = int_of_float (Json.to_num (Json.get "id" j)) in
        let w = Json.to_str (Json.get "workload" j) in
        List.iter
          (fun k -> ignore (Json.get k j))
          [ "parent"; "name"; "rep"; "start_ns"; "end_ns" ];
        (match prev with
        | Some (pw, pid) when pw = w && id <= pid -> failwith "span ids out of order"
        | _ -> ());
        go (n + 1) (Some (w, id))
    | exception End_of_file -> n
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 0 None)

let summary results =
  Printf.printf "\n%-20s %-7s" "metric" "unit";
  List.iter (fun (w, _) -> Printf.printf " %14s" w) results;
  print_newline ();
  List.iter
    (fun (m : Catalog.metric) ->
      Printf.printf "%-20s %-7s" m.name m.unit_;
      List.iter
        (fun (_, d) ->
          let cell =
            match Option.bind d (fun d -> Json.member m.name (Json.get "metrics" d)) with
            | Some v ->
                fmt_value m.unit_
                  (Pctl.median_float (List.map Json.to_num (Json.to_list (Json.get "values" v))))
            | None -> "-"
          in
          Printf.printf " %14s" cell)
        results;
      print_newline ())
    Catalog.end_to_end;
  Printf.printf "cores %d\n" (cores ())

let run_all ~seed ~seconds ~trace ~out ~smoke ~spec =
  let common = [ "--seed"; Int64.to_string seed; "--seconds"; Printf.sprintf "%g" seconds ] in
  let common = if smoke then common @ [ "--smoke" ] else common in
  (* the smoke test prints only the summary and what went wrong *)
  let echo = not smoke in
  let untraced =
    List.map
      (fun w -> (w, run_child ~echo ([ "run"; "--workload"; w ] @ common @ [ "--trace"; "0" ])))
      Catalog.workload_names
  in
  (* each traced child writes its own part of the spans file *)
  let part file w = Printf.sprintf "%s.%s.part" file w in
  let traced =
    if trace = `Off then []
    else
      List.map
        (fun w ->
          let arg = match trace with `File f -> part f w | _ -> "1" in
          (w, run_child ~echo ([ "run"; "--workload"; w ] @ common @ [ "--trace"; arg ])))
        Catalog.workload_names
  in
  (match trace with
  | `File file ->
      let oc = open_out file in
      List.iter
        (fun (w, c) ->
          if c.ok then begin
            output_string oc (In_channel.with_open_bin (part file w) In_channel.input_all);
            Sys.remove (part file w)
          end)
        traced;
      close_out oc;
      Printf.printf "spans written to %s\n" file
  | _ -> ());
  let results = List.map (fun (w, c) -> (w, detail c)) untraced in
  summary results;
  (match out with
  | Some file ->
      let oc = open_out file in
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("seed", Json.Num (Int64.to_float seed));
                ("seconds", Json.Num seconds);
                ("cores", Json.Num (float_of_int (cores ())));
                ("workloads", Json.Arr (List.filter_map snd results));
              ]));
      output_char oc '\n';
      close_out oc
  | None -> ());
  let failed = List.filter (fun (_, c) -> not c.ok) (untraced @ traced) in
  List.iter
    (fun (w, c) ->
      if not echo then List.iter print_endline c.lines;
      Printf.printf "FAILED: %s\n" w)
    failed;
  let problems =
    if not smoke then []
    else
      let spec = Json.parse (In_channel.with_open_bin spec In_channel.input_all) in
      let spans_problem =
        match trace with
        | `File f -> (
            try if check_spans_file f = 0 then [ "no spans recorded" ] else []
            with Failure e | Json.Parse_error e -> [ "spans file: " ^ e ])
        | _ -> []
      in
      check_spec spec ~untraced ~traced @ spans_problem
  in
  List.iter (fun p -> Printf.printf "smoke: %s\n" p) problems;
  if failed <> [] || problems <> [] then exit 1

(* ---- comparing two result files ---- *)

let load_results path =
  let j = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  List.map
    (fun d ->
      ( Json.to_str (Json.get "workload" d),
        List.map
          (fun (name, v) -> (name, List.map Json.to_num (Json.to_list (Json.get "values" v))))
          (Json.to_obj (Json.get "metrics" d)) ))
    (Json.to_list (Json.get "workloads" j))

let spread values =
  let m = Pctl.median_float values in
  let hi = List.fold_left max neg_infinity values and lo = List.fold_left min infinity values in
  if m = 0.0 then 0.0 else (hi -. lo) /. Float.abs m

(* [worse m a b]: how much worse [b] is than [a], as a share of [a]. *)
let worse (m : Catalog.metric) a b =
  let d = match m.better with Catalog.Lower -> b -. a | Catalog.Higher -> a -. b in
  if a = 0.0 then (if d > 0.0 then infinity else 0.0) else d /. Float.abs a

let verdict (m : Catalog.metric) va vb =
  let a = Pctl.median_float va and b = Pctl.median_float vb in
  match m.kind with
  | Catalog.Sim -> if a = b then "same" else if worse m a b < 0.0 then "better" else "REGRESSION"
  | Catalog.Wall ->
      let w = worse m a b and sp = max (spread va) (spread vb) in
      let all_better =
        List.for_all (fun y -> List.for_all (fun x -> worse m x y < 0.0) va) vb
      in
      if m.name = "setup_s" && Float.abs (b -. a) < Catalog.setup_floor_s then "ok"
      else if sp > m.bound then if all_better then "better" else "unresolved"
      else if w > m.bound then "REGRESSION"
      else if w < -.m.bound then "better"
      else "ok"

let compare_files a b =
  let ra = load_results a and rb = load_results b in
  Printf.printf "%-12s %-20s %16s %16s %9s %8s  %s\n" "workload" "metric" "A" "B" "change"
    "spread" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun w ->
      match (List.assoc_opt w ra, List.assoc_opt w rb) with
      | Some ma, Some mb ->
          List.iter
            (fun (m : Catalog.metric) ->
              match (List.assoc_opt m.name ma, List.assoc_opt m.name mb) with
              | Some va, Some vb ->
                  let v = verdict m va vb in
                  if v = "REGRESSION" then incr regressions;
                  let a = Pctl.median_float va and b = Pctl.median_float vb in
                  Printf.printf "%-12s %-20s %16s %16s %+8.2f%% %7.2f%%  %s\n" w m.name
                    (fmt_value m.unit_ a) (fmt_value m.unit_ b)
                    (if a = 0.0 then 0.0 else 100.0 *. (b -. a) /. Float.abs a)
                    (100.0 *. max (spread va) (spread vb))
                    v
              | _ -> ())
            Catalog.end_to_end
      | _ -> Printf.printf "%-12s missing from one side\n" w)
    Catalog.workload_names;
  if !regressions > 0 then exit 1

(* ---- command line ---- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let with_value = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out"; "--spec" ] in
  let rec opts acc = function
    | flag :: v :: rest when List.mem flag with_value -> opts ((flag, v) :: acc) rest
    | "--smoke" :: rest -> opts (("--smoke", "") :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %S" a
  in
  match args with
  | "run" :: rest ->
      let o = opts [] rest in
      let get k = List.assoc_opt k o in
      let smoke = List.mem_assoc "--smoke" o in
      let seed =
        match get "--seed" with
        | Some s -> ( match Int64.of_string_opt s with Some n -> n | None -> die "bad --seed %S" s)
        | None -> default_seed
      in
      let seconds =
        match get "--seconds" with
        | Some s -> (
            match float_of_string_opt s with Some f -> f | None -> die "bad --seconds %S" s)
        | None -> if smoke then 0.0 else default_seconds
      in
      let size = if smoke then Smoke else Full in
      let trace =
        match get "--trace" with
        | None | Some "0" -> `Off
        | Some "1" -> `Memory
        | Some file -> `File file
      in
      (match get "--workload" with
      | Some workload -> run_one ~workload ~seed ~seconds ~trace ~size
      | None ->
          run_all ~seed ~seconds ~trace ~out:(get "--out") ~smoke
            ~spec:(Option.value ~default:"BENCHMARK.json" (get "--spec")))
  | [ "compare"; a; b ] -> compare_files a b
  | _ ->
      prerr_string
        "usage: velum_bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1|FILE]\n\
        \                       [--out FILE] [--smoke] [--spec BENCHMARK.json]\n\
        \       velum_bench compare A.json B.json\n";
      exit 2
