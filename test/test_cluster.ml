(* Parallel cluster runner: a random fleet — seeds, fault plans, quantum
   sizes, migrations, injected host failures, and the fleet detector
   watching it — produces byte-identical reports, detector verdicts and
   trace exports whatever the domain count (qcheck), the round barrier
   behaves under real domains, and the share-nothing regressions hold:
   two traced hypervisors in one process never cross-talk scheduler
   events, Monitor exports are insertion-order independent, and derived
   fault plans draw from independent streams. *)

open Velum_vmm
open Velum_guests
module Parallel = Velum_cluster.Parallel
module Fabric = Velum_cluster.Fabric
module Barrier = Velum_cluster.Barrier
module Control = Velum_cluster.Control
module Detector = Velum_cluster.Detector
module Placement = Velum_vmm.Placement
module Ha = Velum_vmm.Ha
module Fault = Velum_util.Fault

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let expect_invalid_arg name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- barrier: phases stay in lockstep under real domains --- *)

let test_barrier_lockstep () =
  let workers = 3 and rounds = 50 in
  let start_b = Barrier.create ~parties:(workers + 1) in
  let done_b = Barrier.create ~parties:(workers + 1) in
  let cells = Array.make workers 0 in
  let stop = ref false in
  let worker w =
    let live = ref true in
    while !live do
      Barrier.await start_b;
      if !stop then live := false
      else begin
        cells.(w) <- cells.(w) + 1;
        Barrier.await done_b
      end
    done
  in
  let doms = Array.init workers (fun w -> Domain.spawn (fun () -> worker w)) in
  let ok = ref true in
  for r = 1 to rounds do
    Barrier.await start_b;
    Barrier.await done_b;
    Array.iter (fun c -> if c <> r then ok := false) cells
  done;
  stop := true;
  Barrier.await start_b;
  Array.iter Domain.join doms;
  checkb "every worker advanced exactly once per round" true !ok

(* --- regression: two traced hypervisors must not cross-talk --- *)

(* With a process-wide notify cell, the second set_trace would steal the
   first hypervisor's scheduler notifications: running A would record
   events (at least the credit scheduler's first refill) into B's trace.
   The notify hook is a per-scheduler field, so B's sink must stay empty
   until B itself runs. *)
let test_concurrent_traces () =
  let setup = Images.plan ~user:(Workloads.syscall_loop ~count:50L) () in
  let mk name =
    let hyp = Hypervisor.create () in
    let tr = Trace.create () in
    Hypervisor.set_trace hyp tr;
    ignore (Images.create_vm hyp ~name setup);
    (hyp, tr)
  in
  let a, tra = mk "alpha" in
  let b, trb = mk "beta" in
  ignore (Hypervisor.run a ~budget:5_000_000L);
  checkb "A recorded events" true (Trace.events_recorded tra > 0);
  checkb "A saw its scheduler's notifications" true
    (has_sub (Trace.export_string tra) "sched-refill");
  checki "B's sink is untouched by A's run" 0 (Trace.events_recorded trb);
  let a_before = Trace.events_recorded tra in
  ignore (Hypervisor.run b ~budget:5_000_000L);
  checkb "B recorded its own events" true (Trace.events_recorded trb > 0);
  checki "B's run left A's sink alone" a_before (Trace.events_recorded tra);
  checkb "no foreign VM leaked into A" true
    (not (has_sub (Trace.export_string tra) "beta"));
  checkb "no foreign VM leaked into B" true
    (not (has_sub (Trace.export_string trb) "alpha"))

(* --- monitor exports are insertion-order independent --- *)

let test_monitor_export_stable () =
  let m1 = Monitor.create () and m2 = Monitor.create () in
  List.iter
    (fun m ->
      Monitor.bump m Monitor.E_csr;
      Monitor.bump m Monitor.E_mmio;
      Monitor.add_cycles m Monitor.E_csr 840)
    [ m1; m2 ];
  let gauges = [ ("tlb.hits", 7); ("dtlb.hits", 3); ("engine.cache.hits", 9) ] in
  List.iter (fun (k, v) -> Monitor.set_gauge m1 k v) gauges;
  List.iter (fun (k, v) -> Monitor.set_gauge m2 k v) (List.rev gauges);
  checks "json is order-stable" (Monitor.to_json m1) (Monitor.to_json m2);
  checks "pp is order-stable"
    (Format.asprintf "%a" Monitor.pp m1)
    (Format.asprintf "%a" Monitor.pp m2);
  checkb "json carries the counters" true
    (has_sub (Monitor.to_json m1) "\"csr\":[1,840]")

(* --- derived fault plans: same profile, independent streams --- *)

let test_fault_derive () =
  let base = Fault.create ~seed:42L () in
  Fault.set_prob base Fault.Drop 0.5;
  let schedule f =
    List.init 64 (fun i -> Fault.fire f Fault.Drop ~now:(Int64.of_int i))
  in
  let d1 = Fault.derive base ~seed:1L in
  let d1' = Fault.derive base ~seed:1L in
  let d2 = Fault.derive base ~seed:2L in
  checkb "equal seeds give equal schedules" true (schedule d1 = schedule d1');
  checkb "different seeds give different schedules" true
    (schedule d1' <> schedule d2);
  checkb "derivation copies the profile" true (Fault.prob d2 Fault.Drop = 0.5);
  checki "the base plan's counters are untouched" 0 (Fault.injected base Fault.Drop)

(* --- the tentpole property: domain-count invariance --- *)

let mk_setup kind =
  match kind with
  | 0 -> Images.plan ~user:(Workloads.syscall_loop ~count:120L) ()
  | 1 -> Images.plan ~user:(Workloads.cpu_spin ~iters:40_000L) ()
  | _ ->
      (* never halts: every round runs a full quantum *)
      Images.plan ~heap_pages:16 ~user:(Workloads.dirty_loop ~pages:8 ~delay:1500) ()

let fleet_invariance_prop =
  QCheck2.Test.make ~count:8
    ~name:"fleet report and traces are byte-identical for domains 1/2/4"
    QCheck2.Gen.(
      tup7 (int_range 0 9999) (int_range 2 4) (int_range 0 2)
        (oneofl [ 60_000L; 150_000L ])
        (int_range 4 6) bool bool)
    (fun (seed, hosts, wkind, quantum, rounds, with_faults, with_chaos) ->
      let setup = mk_setup wkind in
      let spin = mk_setup 1 in
      let mk_vms i =
        let base = [ Parallel.spec ~name:(Printf.sprintf "vm%d" i) setup ] in
        if i = 0 then Parallel.spec ~name:"extra0" spin :: base else base
      in
      let faults =
        if with_faults then
          match
            Fault.parse
              (Printf.sprintf "seed=%d,drop=0.1,corrupt=0.05,cluster.hb=0.15" seed)
          with
          | Ok f -> Some f
          | Error e -> failwith e
        else None
      in
      let cfg =
        Parallel.config ~quantum ~rounds ~seed:(Int64.of_int seed) ?faults
          ~migrate_every:(if with_chaos && wkind = 2 then 3 else 0)
          ?fail_host:(if with_chaos then Some (2, hosts - 1) else None)
          ~trace:true ~hosts ~mk_vms ()
      in
      let knobs = { Ha.Failover.default_hb_knobs with Ha.Failover.miss_limit = 2 } in
      let outcome domains =
        let fleet, det = Detector.run_watched ~knobs ~domains cfg in
        ( Parallel.report fleet,
          Parallel.traces fleet,
          Detector.summary det,
          List.init hosts (Detector.declared_at det) )
      in
      let r1 = outcome 1 in
      r1 = outcome 2 && r1 = outcome 4)

(* --- the fleet detector on a clean fleet is exact --- *)

let test_fleet_detection () =
  let setup = mk_setup 2 in
  let cfg =
    Parallel.config ~quantum:80_000L ~rounds:10 ~fail_host:(4, 1) ~hosts:3
      ~mk_vms:(fun i -> [ Parallel.spec ~name:(Printf.sprintf "vm%d" i) setup ])
      ()
  in
  let knobs = { Ha.Failover.default_hb_knobs with Ha.Failover.miss_limit = 3 } in
  List.iter
    (fun domains ->
      let fleet, det = Detector.run_watched ~knobs ~domains cfg in
      checkb "host 1 is down" true (not fleet.Parallel.nodes.(1).Parallel.alive);
      (* host 1 is down from round 4's worker phase on, so its last
         heartbeat is round 3's; rounds 4, 5 and 6 miss, and the third
         miss reaches the limit: declared at round 6 *)
      Alcotest.(check (option int)) "host 1 declared dead at round 6" (Some 6)
        (Detector.declared_at det 1);
      List.iter
        (fun h ->
          Alcotest.(check (option int))
            (Printf.sprintf "live host %d is never declared" h)
            None (Detector.declared_at det h))
        [ 0; 2 ];
      checki "one death" 1 (Detector.stats det).Detector.deaths)
    [ 1; 2 ]

(* --- the migration storm outlives a dead host --- *)

(* One tick per round from host [round mod 3] to its successor.  Round 0
   moves vm0 from host 0 to host 1, which dies at round 1; round 1's
   pair (1 -> 2) is skipped, and round 2 moves vm2 from host 2 to host
   0.  A cursor that only advanced on a move would retry the dead pair
   forever. *)
let test_storm_skips_dead_pairs () =
  let setup = mk_setup 2 in
  let cfg =
    Parallel.config ~quantum:60_000L ~rounds:6 ~migrate_every:1 ~fail_host:(1, 1)
      ~hosts:3
      ~mk_vms:(fun i -> [ Parallel.spec ~name:(Printf.sprintf "vm%d" i) setup ])
      ()
  in
  let after_round1 = ref (-1) in
  let r =
    Parallel.run cfg ~on_round:(fun fl ~round ->
        if round = 1 then after_round1 := fl.Parallel.migrations)
  in
  let fleet = r.Parallel.fleet in
  checki "one move before the death" 1 !after_round1;
  checki "the storm moved again between live hosts" 2 fleet.Parallel.migrations;
  checki "no aborted move" 0 fleet.Parallel.mig_aborts;
  checkb "vm2 now runs on host 0" true
    (List.exists
       (fun vm -> vm.Vm.name = "vm2")
       fleet.Parallel.nodes.(0).Parallel.hyp.Hypervisor.vms)

(* --- a host exception ends the phase, whichever stripe raised it --- *)

(* Host 0 raises in round 1.  Host 0 is in stripe 0, which the calling
   domain steps: the exception is recorded like any worker's, the other
   hosts of the stripe still finish the round, and it is re-raised once
   the phase is over, before the coordinator phase of that round. *)
let test_stripe0_exception_after_phase () =
  let quantum = 60_000L in
  List.iter
    (fun domains ->
      let last_clock = ref 0L in
      let wire i hyp =
        if i = 0 then
          Hypervisor.add_ticker hyp (fun now ->
              if Int64.compare now quantum > 0 then failwith "host 0 broke")
        else if i = 2 then
          Hypervisor.add_ticker hyp (fun now ->
              if Int64.compare now !last_clock > 0 then last_clock := now)
      in
      let cfg =
        Parallel.config ~quantum ~rounds:6 ~wire ~hosts:3
          ~mk_vms:(fun i -> [ Parallel.spec ~name:(Printf.sprintf "vm%d" i) (mk_setup 2) ])
          ()
      in
      let rounds_seen = ref 0 in
      (match Parallel.run ~domains cfg ~on_round:(fun _ ~round:_ -> incr rounds_seen) with
      | _ -> Alcotest.failf "domains=%d: the host exception was lost" domains
      | exception Failure msg -> checks "the host's own exception" "host 0 broke" msg);
      checki (Printf.sprintf "domains=%d: no coordinator phase after it" domains) 1 !rounds_seen;
      checkb
        (Printf.sprintf "domains=%d: host 2 finished the round" domains)
        true
        (Int64.compare !last_clock quantum > 0))
    [ 1; 2; 3 ]

(* --- chaos targets outside the fleet are rejected, not ignored --- *)

let test_rejects_bad_chaos_targets () =
  let mk_vms _ = [] in
  expect_invalid_arg "Parallel.config ~fail_host:(4, 4) on 4 hosts" (fun () ->
      Parallel.config ~fail_host:(4, 4) ~hosts:4 ~mk_vms ());
  expect_invalid_arg "Parallel.config ~fail_host:(-1, 0)" (fun () ->
      Parallel.config ~fail_host:(-1, 0) ~hosts:4 ~mk_vms ());
  expect_invalid_arg "Parallel.config ~migrate_every:(-1)" (fun () ->
      Parallel.config ~migrate_every:(-1) ~hosts:4 ~mk_vms ());
  let ctl ?kills ?drains () =
    Control.config ?kills ?drains ~hosts:16 ~cap_units:64 ~workload:[] ()
  in
  expect_invalid_arg "Control.config ~kills:[(5, 99)]" (fun () ->
      ctl ~kills:[ (5, 1); (5, 99) ] ());
  expect_invalid_arg "Control.config ~kills:[(-1, 0)]" (fun () ->
      ctl ~kills:[ (-1, 0) ] ());
  expect_invalid_arg "Control.config ~drains:[(12, 99)]" (fun () ->
      ctl ~drains:[ (12, 3); (12, 99) ] ());
  ignore (ctl ~kills:[ (0, 0); (5, 15) ] ~drains:[ (12, 3) ] ())

(* --- self-healing control plane --- *)

let ctl_setup () =
  (* never halts: long-running service VMs for chaos scenarios *)
  Images.plan ~heap_pages:16 ~user:(Workloads.dirty_loop ~pages:8 ~delay:1500) ()

(* Placement.Pool: anti-affinity and headroom are enforced exactly. *)
let test_pool_placement () =
  let p = Placement.Pool.create ~hosts:3 ~cap_units:10 ~headroom:2 in
  (* admission may not touch the top [headroom] units... *)
  Alcotest.(check (option int)) "9 units exceed the admittable 8" None
    (Placement.Pool.choose p ~units:9);
  (* ...but evacuation may *)
  Alcotest.(check (option int)) "evacuation spends the reserve" (Some 0)
    (Placement.Pool.choose ~use_headroom:true p ~units:9);
  (* anti-affinity: one member of a group per host *)
  Alcotest.(check (option int)) "group lands on host 0" (Some 0)
    (Placement.Pool.choose ~group:7 p ~units:4);
  Placement.Pool.commit p 0 ~units:4 ~group:(Some 7);
  Alcotest.(check (option int)) "second member skips host 0" (Some 1)
    (Placement.Pool.choose ~group:7 p ~units:4);
  (* no conflict for ungrouped requests *)
  Alcotest.(check (option int)) "ungrouped still fits host 0" (Some 0)
    (Placement.Pool.choose p ~units:4);
  Placement.Pool.cordon p 1;
  Alcotest.(check (option int)) "cordoned host skipped" (Some 2)
    (Placement.Pool.choose ~group:7 p ~units:4);
  Placement.Pool.uncordon p 1;
  Placement.Pool.release p 0 ~units:4 ~group:(Some 7);
  Alcotest.(check (option int)) "release clears the group" (Some 0)
    (Placement.Pool.choose ~group:7 p ~units:4)

(* Host kill → exact detection round → fence → evacuation from the last
   checkpoint onto survivors; anti-affinity respected; zero split-brain. *)
let test_evacuation_exact () =
  let setup = ctl_setup () in
  let f = setup.Images.frames in
  let workload =
    List.init 12 (fun i ->
        Control.desc
          ~prio:
            (match i mod 3 with
            | 0 -> Control.High
            | 1 -> Control.Normal
            | _ -> Control.Low)
          ?group:(if i < 4 then Some 0 else None)
          ~name:(Printf.sprintf "vm%02d" i) setup)
  in
  let cfg =
    Control.config ~hosts:6 ~cap_units:(3 * f) ~headroom:f ~rounds:20
      ~kills:[ (5, 1) ] ~workload ()
  in
  let r = Control.run ~domains:1 cfg in
  let t = r.Control.control in
  let det = Control.detector t in
  (* killed at round 5: last HB seen round 4, misses at 5,6,7 = limit 3 *)
  Alcotest.(check (option int)) "declared dead exactly at round 7" (Some 7)
    (Detector.declared_at det 1);
  checki "one death" 1 (Detector.stats det).Detector.deaths;
  let m = Control.metrics t in
  checki "every VM ends placed" 12 m.Control.placed;
  checki "nothing shed" 0 m.Control.shed;
  checkb "both victims restored from checkpoints" true
    (m.Control.evacuated = 2);
  checki "no split-brain epoch, by construction" 0 m.Control.split_brain;
  checki "no false positives fenced" 0 m.Control.fenced_alive;
  checkb "fleet availability under a clean kill" true
    (m.Control.availability >= 0.95);
  (* no survivor VM sits on the dead host *)
  List.iter
    (fun d ->
      match Control.entry_host t ~name:d.Control.name with
      | Some 1 -> Alcotest.failf "%s left on the dead host" d.Control.name
      | _ -> ())
    workload;
  (* the anti-affinity group stayed spread: four members, four hosts *)
  let hosts_of_group =
    List.filter_map
      (fun d ->
        if d.Control.group = Some 0 then
          Control.entry_host t ~name:d.Control.name
        else None)
      workload
  in
  checki "group members on distinct hosts" 4
    (List.length (List.sort_uniq compare hosts_of_group));
  checkb "reports byte-identical to a 4-domain run" true
    (String.equal r.Control.report (Control.run ~domains:4 cfg).Control.report)

(* Heavy heartbeat loss declares live hosts dead.  Each is fenced before
   any of its VMs is restored on a survivor, so the split-brain count —
   taken at every restore or move and at the end of every round — reads
   0 while false positives are counted; the report is the same at 2
   domains. *)
let test_false_positive_fenced () =
  let faults =
    match Fault.parse "seed=7,cluster.hb=0.62" with Ok f -> f | Error e -> failwith e
  in
  let cfg = Control.chaos ~hosts:8 ~rounds:16 ~seed:11L ~faults () in
  let r = Control.run ~domains:1 cfg in
  let m = Control.metrics r.Control.control in
  checkb "live hosts were declared dead and fenced" true (m.Control.fenced_alive > 0);
  checkb "their VMs were restored elsewhere" true (m.Control.evacuated > 0);
  checki "no VM ran twice" 0 m.Control.split_brain;
  checkb "reports byte-identical to a 2-domain run" true
    (String.equal r.Control.report (Control.run ~domains:2 cfg).Control.report)

(* Rolling maintenance: cordon → live-migrate everything off → reboot →
   refill, nothing left behind, migrations accounted. *)
let test_drain_completeness () =
  let setup = ctl_setup () in
  let f = setup.Images.frames in
  let workload =
    List.init 8 (fun i -> Control.desc ~name:(Printf.sprintf "vm%02d" i) setup)
  in
  let cfg =
    Control.config ~hosts:4 ~cap_units:(3 * f) ~headroom:f ~rounds:16
      ~drains:[ (4, 2) ] ~workload ()
  in
  let r = Control.run ~domains:1 cfg in
  let t = r.Control.control in
  checkb "drain completed" true (has_sub r.Control.report "drain host 2: done=true");
  List.iter
    (fun d ->
      match Control.entry_host t ~name:d.Control.name with
      | Some 2 -> Alcotest.failf "%s still on the drained host" d.Control.name
      | Some _ -> ()
      | None -> Alcotest.failf "%s not placed after the drain" d.Control.name)
    workload;
  let m = Control.metrics t in
  checki "all placed" 8 m.Control.placed;
  checkb "live migrations moved real bytes" true (m.Control.migration_bytes > 0);
  checki "no cold-move fallbacks on a clean link" 0 m.Control.cold_moves;
  checkb "maintenance outage stays inside the SLO gate" true
    (m.Control.availability >= 0.95)

(* Overload: lowest class rejected, middle class balloons victims down,
   highest class is never evicted and always lands. *)
let test_shed_order () =
  let setup = ctl_setup () in
  let f = setup.Images.frames in
  let workload =
    [
      Control.desc ~prio:Control.High ~name:"hi-a" setup;
      Control.desc ~prio:Control.Normal ~name:"no-b" setup;
      Control.desc ~prio:Control.Normal ~name:"no-c" setup;
      Control.desc ~prio:Control.Normal ~name:"no-d" setup;
      Control.desc ~prio:Control.Low ~name:"lo-e" setup;
      Control.desc ~prio:Control.Low ~name:"lo-f" setup;
      (* the overload burst: a High arrival into a full cluster *)
      Control.desc ~prio:Control.High ~arrives:2 ~name:"hi-g" setup;
    ]
  in
  let cfg = Control.config ~hosts:2 ~cap_units:(2 * f) ~rounds:10 ~workload () in
  let r = Control.run ~domains:1 cfg in
  let t = r.Control.control in
  Alcotest.(check (option bool)) "low class rejected" (Some true)
    (Option.map (fun s -> s = Control.Shed) (Control.entry_state t ~name:"lo-e"));
  Alcotest.(check (option bool)) "second low rejected" (Some true)
    (Option.map (fun s -> s = Control.Shed) (Control.entry_state t ~name:"lo-f"));
  checkb "late high-priority VM placed via ballooning" true
    (Control.entry_host t ~name:"hi-g" <> None);
  checkb "resident high-priority VM untouched" true
    (Control.entry_host t ~name:"hi-a" <> None);
  let mon = Control.cluster_monitor t in
  checki "two shed events" 2 (Monitor.count mon Monitor.E_cluster_shed);
  checkb "balloon squeezes recorded" true
    (Monitor.count mon Monitor.E_cluster_degraded >= 1);
  let m = Control.metrics t in
  checki "shed metric agrees" 2 m.Control.shed;
  checkb "ballooned rounds count as SLO violations" true
    (m.Control.slo_violations > 0)

(* Detector knobs: timeout delays declaration; probe backoff thins the
   probe stream.  Mirrors the Ha.Failover dials exactly. *)
let test_detector_knobs () =
  let quantum = 50_000L in
  let alive_until k i = not (i = 1 && k <= 0) in
  let run_det ~knobs ~rounds =
    let det = Detector.create ~knobs ~hosts:2 ~quantum ~seed:3L () in
    let declared = ref None in
    for round = 0 to rounds - 1 do
      let dead =
        Detector.observe_round det ~alive:(alive_until (3 - round)) ~round
      in
      if List.mem 1 dead && !declared = None then declared := Some round
    done;
    (det, !declared)
  in
  let base = { Ha.Failover.miss_limit = 3; timeout = 0L; takeover_backoff = 0L } in
  let _, d0 = run_det ~knobs:base ~rounds:14 in
  (* dead from round 3: misses 3,4,5 → declared at round 5 *)
  Alcotest.(check (option int)) "miss limit alone declares at round 5" (Some 5) d0;
  (* a timeout floor of 6 quanta delays the declaration *)
  let _, d1 =
    run_det ~knobs:{ base with Ha.Failover.timeout = Int64.mul 6L quantum } ~rounds:14
  in
  (match d1 with
  | Some r -> checkb "timeout floor delays declaration" true (r > 5)
  | None -> Alcotest.fail "timeout variant must still declare");
  (* probe backoff: suspect-but-undeclared host is probed ever more
     sparsely when the backoff knob is set *)
  let probes ~backoff =
    let knobs =
      { Ha.Failover.miss_limit = 99; timeout = 0L; takeover_backoff = backoff }
    in
    let det, _ = (run_det ~knobs ~rounds:14 |> fun (d, x) -> (d, x)) in
    (Detector.stats det).Detector.probes_sent
  in
  let eager = probes ~backoff:0L in
  let lazy_ = probes ~backoff:(Int64.mul 4L quantum) in
  checkb "backoff thins the probe stream" true (lazy_ < eager);
  checkb "probes still flow" true (lazy_ >= 1)

(* Ha.Failover honours the same knobs: a timeout floor postpones the
   takeover decision past the pure miss-count point. *)
let test_failover_knobs () =
  let mk () =
    let setup =
      Images.plan ~heap_pages:32 ~user:(Workloads.dirty_loop ~pages:16 ~delay:50) ()
    in
    let mk_hyp () =
      let host = Velum_vmm.Host.create ~frames:(setup.Images.frames + 512) () in
      Hypervisor.create ~ctx:(Velum_vmm.Host_ctx.create ~host ()) ()
    in
    let primary = mk_hyp () in
    let backup = mk_hyp () in
    let vm = Images.create_vm primary ~name:"prot" setup in
    ignore (Hypervisor.run primary ~budget:1_000_000L);
    (primary, backup, vm, Velum_devices.Link.create ())
  in
  let failover_at ~knobs =
    let primary, backup, vm, link = mk () in
    let fo =
      Ha.Failover.create ~primary ~backup ~vm ~link ?knobs
        ~primary_dies_at:1_500_000L ()
    in
    let _, s = Ha.Failover.run fo ~epoch_cycles:150_000L ~epochs:24 in
    s.Ha.Failover.failover_at
  in
  let default_at = failover_at ~knobs:None in
  let slow_at =
    failover_at
      ~knobs:
        (Some
           {
             Ha.Failover.miss_limit = 3;
             timeout = 1_200_000L;
             takeover_backoff = 300_000L;
           })
  in
  match (default_at, slow_at) with
  | Some d, Some s ->
      checkb "timeout floor postpones the takeover" true (Int64.compare s d > 0)
  | _ -> Alcotest.fail "both configurations must fail over"

(* --- one suspicion machine behind every detector --- *)

type hb_event = Heard of int | Missed of int | Disarm | Rearm of int

(* Each row drives a fresh machine (last heard at tick 0) through its
   events, then checks the final state, the declaration tick, the
   last-heard tick and how many misses reported a declaration. *)
let test_suspicion_table () =
  let cases =
    [
      ( "miss limit alone", 3, 1L, 0L,
        [ Missed 1; Missed 2; Missed 3 ],
        (Suspicion.Dead, Some 3, 0, 1) );
      ( "a heartbeat clears the miss count", 3, 1L, 0L,
        [ Missed 1; Missed 2; Heard 3; Missed 4; Missed 5 ],
        (Suspicion.Suspect, None, 3, 0) );
      ( "the timeout floor delays the declaration", 2, 1L, 5L,
        [ Missed 1; Missed 2; Missed 3; Missed 4; Missed 5; Missed 6 ],
        (Suspicion.Dead, Some 5, 0, 1) );
      ( "the timeout converts to ticks with the ceiling", 1, 10L, 25L,
        [ Missed 1; Missed 2; Missed 3 ],
        (Suspicion.Dead, Some 3, 0, 1) );
      ( "a heartbeat after Dead does not revive", 1, 1L, 0L,
        [ Missed 1; Heard 2; Missed 3 ],
        (Suspicion.Dead, Some 1, 0, 1) );
      ( "Disarmed ignores misses", 1, 1L, 0L,
        [ Disarm; Missed 1; Missed 2; Heard 3 ],
        (Suspicion.Disarmed, None, 0, 0) );
      ( "rearm resets to Up with last heard = now", 1, 1L, 0L,
        [ Missed 1; Rearm 7 ],
        (Suspicion.Up, None, 7, 1) );
      ( "a rearmed peer is watched afresh", 2, 1L, 0L,
        [ Disarm; Missed 1; Rearm 4; Missed 5; Missed 6 ],
        (Suspicion.Dead, Some 6, 4, 1) );
    ]
  in
  let state_name = function
    | Suspicion.Up -> "Up"
    | Suspicion.Suspect -> "Suspect"
    | Suspicion.Dead -> "Dead"
    | Suspicion.Disarmed -> "Disarmed"
  in
  List.iter
    (fun (name, miss_limit, quantum, timeout, events, (state, declared, last, n)) ->
      let s = Suspicion.create ~quantum ~miss_limit ~timeout ~last_heard:0 () in
      let declarations = ref 0 in
      List.iter
        (function
          | Heard now -> Suspicion.heard s ~now
          | Missed now -> if Suspicion.missed s ~now then incr declarations
          | Disarm -> Suspicion.disarm s
          | Rearm now -> Suspicion.rearm s ~now)
        events;
      checks (name ^ ": state") (state_name state) (state_name (Suspicion.state s));
      Alcotest.(check (option int)) (name ^ ": declared at") declared
        (Suspicion.declared_at s);
      checki (name ^ ": last heard") last (Suspicion.last_heard s);
      checki (name ^ ": declarations") n !declarations)
    cases

(* The round-clocked machine with the ceiling timeout conversion declares
   death in exactly the round the fleet runner's former inline rule did:
   a miss streak of [miss_limit] and [(round - last) * quantum >= timeout]
   in cycles.  The timeout is never a multiple of the quantum, so the
   conversion's rounding is always exercised. *)
let suspicion_cycle_rule_prop =
  QCheck2.Test.make ~count:500
    ~name:"round-clock suspicion declares in the cycle rule's round"
    QCheck2.Gen.(
      tup5 (list_size (int_range 1 40) bool) (int_range 1 5) (int_range 2 100_000)
        (int_range 0 8) (int_range 1 99_999))
    (fun (heard, miss_limit, q, k, r) ->
      let quantum = Int64.of_int q in
      let timeout = Int64.of_int ((k * q) + 1 + (r mod (q - 1))) in
      let reference =
        let streak = ref 0 and last = ref 0 and dead = ref None in
        List.iteri
          (fun i got ->
            let round = i + 1 in
            if !dead = None then
              if got then begin
                streak := 0;
                last := round
              end
              else begin
                incr streak;
                let starved =
                  Int64.unsigned_compare
                    (Int64.mul (Int64.of_int (round - !last)) quantum)
                    timeout
                  >= 0
                in
                if !streak >= miss_limit && starved then dead := Some round
              end)
          heard;
        !dead
      in
      let s = Suspicion.create ~quantum ~miss_limit ~timeout ~last_heard:0 () in
      let reported = ref None in
      List.iteri
        (fun i got ->
          let now = i + 1 in
          if got then Suspicion.heard s ~now
          else if Suspicion.missed s ~now then reported := Some now)
        heard;
      reference = Suspicion.declared_at s && reference = !reported)

let test_detector_rejects_negative_timeout () =
  expect_invalid_arg "Detector.create with timeout = -1" (fun () ->
      Detector.create
        ~knobs:{ Ha.Failover.default_hb_knobs with Ha.Failover.timeout = -1L }
        ~hosts:2 ~quantum:50_000L ~seed:0L ());
  expect_invalid_arg "Detector.create with miss_limit = 0" (fun () ->
      Detector.create
        ~knobs:{ Ha.Failover.default_hb_knobs with Ha.Failover.miss_limit = 0 }
        ~hosts:2 ~quantum:50_000L ~seed:0L ())

(* The whole control plane — detection, evacuation, maintenance, shed,
   fault injection on its own sites — is byte-deterministic at 1/2/4
   domains. *)
let control_invariance_prop =
  QCheck2.Test.make ~count:4
    ~name:"cluster control report is byte-identical for domains 1/2/4"
    QCheck2.Gen.(
      tup5 (int_range 0 9999) (int_range 3 4) (int_range 2 5) bool bool)
    (fun (seed, hosts, kill_round, with_faults, with_burst) ->
      let setup = ctl_setup () in
      let f = setup.Images.frames in
      let workload =
        List.init (2 * hosts) (fun i ->
            Control.desc
              ~prio:
                (match i mod 3 with
                | 0 -> Control.High
                | 1 -> Control.Normal
                | _ -> Control.Low)
              ?group:(if i < 3 then Some 0 else None)
              ~arrives:(if with_burst && i >= 2 * hosts - 2 then 6 else 0)
              ~name:(Printf.sprintf "vm%02d" i) setup)
      in
      let faults =
        if with_faults then
          match
            Fault.parse
              (Printf.sprintf
                 "seed=%d,cluster.hb=0.2,cluster.evac=0.25,cluster.drain=0.25,drop=0.05"
                 seed)
          with
          | Ok fp -> Some fp
          | Error e -> failwith e
        else None
      in
      let cfg =
        Control.config ~hosts ~cap_units:(3 * f) ~headroom:f ~rounds:14
          ~seed:(Int64.of_int seed) ?faults
          ~kills:[ (kill_round, 1) ]
          ~drains:[ (kill_round + 2, 0) ]
          ~workload ()
      in
      let r1 = Control.run ~domains:1 cfg in
      let r2 = Control.run ~domains:2 cfg in
      let r4 = Control.run ~domains:4 cfg in
      String.equal r1.Control.report r2.Control.report
      && String.equal r1.Control.report r4.Control.report)

(* --- fabric: fleet tails are measured samples --- *)

(* Every fleet percentile must be one of the merged reply latencies: a
   merge that replays per-cell log2 buckets at their lower bounds
   reports a bucket floor (4194304) as the fleet p95/p99/max instead. *)
let test_fabric_tails_are_samples () =
  let shape = { Fabric.backends = 2; clients = 2; requests = 8; batch = 4; service = 150 } in
  let r = Fabric.run shape ~hosts:2 ~quantum:400_000L ~rounds:16 ~seed:23L in
  let samples = r.Fabric.latencies in
  let t = Fabric.tail samples in
  checki "every reply sampled" (2 * 2 * 8) t.Fabric.replies;
  checki "sample count" t.Fabric.replies (List.length samples);
  List.iter
    (fun (what, v) -> checkb (what ^ " is a sample") true (List.mem v samples))
    [ ("p50", t.Fabric.p50); ("p95", t.Fabric.p95); ("p99", t.Fabric.p99); ("max", t.Fabric.max) ];
  checki "max is the largest sample" (List.fold_left max min_int samples) t.Fabric.max;
  checkb "ordered" true (t.Fabric.p50 <= t.Fabric.p95 && t.Fabric.p95 <= t.Fabric.p99)

let () =
  Alcotest.run "cluster"
    [
      ( "plumbing",
        [
          Alcotest.test_case "barrier lockstep across domains" `Quick
            test_barrier_lockstep;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "fleet tails are measured samples" `Quick
            test_fabric_tails_are_samples;
        ] );
      ( "share-nothing",
        [
          Alcotest.test_case "two traced hypervisors do not cross-talk" `Quick
            test_concurrent_traces;
          Alcotest.test_case "monitor export is insertion-order independent"
            `Quick test_monitor_export_stable;
          Alcotest.test_case "derived fault plans are independent" `Quick
            test_fault_derive;
        ] );
      ( "round-barrier",
        [
          Alcotest.test_case "fleet failure detection is exact" `Quick
            test_fleet_detection;
          Alcotest.test_case "migration storm skips dead pairs" `Quick
            test_storm_skips_dead_pairs;
          Alcotest.test_case "a host exception ends the phase" `Quick
            test_stripe0_exception_after_phase;
          Alcotest.test_case "chaos targets outside the fleet fail" `Quick
            test_rejects_bad_chaos_targets;
        ]
        @ qsuite [ fleet_invariance_prop ] );
      ( "control-plane",
        [
          Alcotest.test_case "pool placement: anti-affinity and headroom"
            `Quick test_pool_placement;
          Alcotest.test_case "kill → exact detection → evacuation, no split-brain"
            `Quick test_evacuation_exact;
          Alcotest.test_case "a false positive is fenced before its twin starts"
            `Quick test_false_positive_fenced;
          Alcotest.test_case "rolling drain leaves nothing behind" `Quick
            test_drain_completeness;
          Alcotest.test_case "overload sheds by priority class" `Quick
            test_shed_order;
          Alcotest.test_case "detector knobs: timeout floor and probe backoff"
            `Quick test_detector_knobs;
          Alcotest.test_case "failover knobs: timeout floor postpones takeover"
            `Quick test_failover_knobs;
        ]
        @ qsuite [ control_invariance_prop ] );
      ( "suspicion",
        [
          Alcotest.test_case "heard/missed/disarm/rearm table" `Quick
            test_suspicion_table;
          Alcotest.test_case "detector rejects a negative timeout" `Quick
            test_detector_rejects_negative_timeout;
        ]
        @ qsuite [ suspicion_cycle_rule_prop ] );
    ]
