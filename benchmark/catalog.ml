(* The benchmark's workloads and metrics: names, units, kinds, bounds,
   and which end-to-end number each layer metric should move.

   BENCHMARK.json at the repository root repeats the workload names and
   the metrics marked [on_result_line] (name, unit, direction, bound);
   the smoke test fails if the two disagree. *)

type kind =
  | Sim  (** simulated, deterministic for a given seed: compared exactly *)
  | Wall  (** host wall clock or memory: compared as medians within [bound] *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  kind : kind;
  better : better;
  bound : float;
      (** share of the baseline median by which the metric may worsen
          before a change counts as a regression.  For a [Sim] metric it
          applies only to medians over runs with different seeds: two
          runs with one seed must agree exactly, and [compare] holds them
          to that *)
  workloads : string list;  (** where the metric is defined *)
  on_result_line : bool;
      (** printed on the one-line result of every workload (so defined
          on all of them and never 0) *)
}

let workloads =
  [
    ( "compute",
      "The engine, trace tier and micro-TLB do almost all the work and VMM \
       exits are about 0, so an engine optimisation shows here and nowhere \
       the interpreter runs." );
    ( "syscall-pt",
      "Exit-bound (vmm_share 0.835): reflect/sret, PT-write emulation, shadow \
       fills and trace severing, with short, often-invalidated blocks." );
    ( "fabric",
      "The only request-serving path: Virtio_net, Switch, Link, the scheduler \
       and Parallel rounds, open loop below saturation." );
    ( "ha-migrate",
      "The writes counterpart of compute: Churn, Store commit and dedup, Ha \
       and Migrate dirty logging; the only place pause tax and downtime \
       show." );
    ( "fleet-chaos",
      "Parallel with 2 domains, Control, Detector, Drain and fleet \
       checkpoints: detector or barrier changes show here and nowhere else." );
  ]

let workload_names = List.map fst workloads

let metric ?(on_result_line = false) ~unit_ ~kind ~better ~bound ~workloads name =
  { name; unit_; kind; better; bound; workloads; on_result_line }

(* Bounds come from the spread of ten runs per workload, each with
   another seed, on a shared 2-core machine (benchmark/README.md has the
   numbers).  Host times are in reference seconds (see the probes in
   velum_bench.ml) and spread by under 10%; their bounds are 0.25
   because a shared machine's slow phases are not predictable.  Peak
   RSS is read at a fixed point and varies by under 2%.  The simulated
   bounds cover seed-to-seed spread on fabric (sim_cycles, vmm_share) and
   fleet-chaos (availability); the other three workloads take no seed
   and give the same simulated values on every run. *)
let end_to_end =
  [
    (* body of one repetition, median over repetitions *)
    metric "wall_s" ~on_result_line:true ~unit_:"s" ~kind:Wall ~better:Lower
      ~bound:0.25 ~workloads:workload_names;
    (* retired guest instructions per host second *)
    metric "guest_mips" ~on_result_line:true ~unit_:"MIPS" ~kind:Wall
      ~better:Higher ~bound:0.25 ~workloads:workload_names;
    (* planning images, and building the hosts, VMs and fabric where
       the benchmark builds them (fleet-chaos: Control.run does) *)
    metric "setup_s" ~on_result_line:true ~unit_:"s" ~kind:Wall ~better:Lower
      ~bound:0.25 ~workloads:workload_names;
    (* VmHWM of the workload process after its first repetition *)
    metric "peak_rss_mb" ~on_result_line:true ~unit_:"MB" ~kind:Wall
      ~better:Lower ~bound:0.10 ~workloads:workload_names;
    (* until the work is done; fabric: the last reply *)
    metric "sim_cycles" ~on_result_line:true ~unit_:"cycles" ~kind:Sim
      ~better:Lower ~bound:0.04 ~workloads:workload_names;
    (* vmm / (guest + vmm) cycles *)
    metric "vmm_share" ~on_result_line:true ~unit_:"ratio" ~kind:Sim
      ~better:Lower ~bound:0.01 ~workloads:workload_names;
    (* share of service delivered; see the README for each workload *)
    metric "availability" ~on_result_line:true ~unit_:"ratio" ~kind:Sim
      ~better:Higher ~bound:0.005 ~workloads:workload_names;
    (* request latency, nearest rank over every reply *)
    metric "req_p50_cycles" ~unit_:"cycles" ~kind:Sim ~better:Lower ~bound:0.0
      ~workloads:[ "fabric" ];
    metric "req_p99_cycles" ~unit_:"cycles" ~kind:Sim ~better:Lower ~bound:0.0
      ~workloads:[ "fabric" ];
    (* failed / attempted operations *)
    metric "error_rate" ~unit_:"ratio" ~kind:Sim ~better:Lower ~bound:0.0
      ~workloads:workload_names;
    (* checkpoint pause cycles / supervised elapsed cycles *)
    metric "ckpt_overhead" ~unit_:"ratio" ~kind:Sim ~better:Lower ~bound:0.0
      ~workloads:[ "ha-migrate" ];
    (* pre-copy freeze: neither side executing *)
    metric "mig_downtime_cycles" ~unit_:"cycles" ~kind:Sim ~better:Lower
      ~bound:0.0 ~workloads:[ "ha-migrate" ];
  ]

(* Absolute slack under which a setup_s difference is noise. *)
let setup_floor_s = 0.05

(* ---- per-layer metrics (traced run) ---- *)

type layer = {
  modules : string;
  metrics : (string * string * better) list;  (** name, unit, better *)
  moves : string;  (** the end-to-end metrics and workloads it should move *)
  bypassed_by : string list;  (** workloads where it should not move *)
}

let counts better names = List.map (fun n -> (n, "count", better)) names

(* A span name's self time as a share of the traced repetition; the name
   also covers its dotted children ("check" covers "check.lockstep"). *)
let share name = (name ^ ".self_share", "ratio", Lower)

let exit_kinds =
  [ "guest_trap"; "sret"; "pt_write"; "shadow_fill"; "csr"; "mmio"; "wfi";
    "hypercall"; "dirty_log" ]

let layers =
  [
    {
      modules = "Images/Kernel/Asm";
      metrics = [ share "images.plan"; share "vm.load" ];
      moves = "setup_s on every workload, most on fabric (17 images per set-up)";
      bypassed_by = [];
    };
    {
      modules = "Engine/Trans_cache/Trace_ir";
      metrics =
        [ ("engine.cache.hit_ratio", "ratio", Higher) ]
        @ counts Higher [ "engine.chain.follows"; "engine.trace.built"; "engine.trace.follows" ]
        @ counts Lower [ "engine.trace.severed"; "engine.trace.side_exits" ]
        @ [ ("engine.insns_per_dispatch", "ratio", Higher) ];
      moves = "guest_mips, wall_s on compute and syscall-pt";
      bypassed_by = [ "fabric"; "ha-migrate"; "fleet-chaos" ];
    };
    {
      modules = "Tlb/Dtlb/Mmu";
      metrics =
        [ ("tlb.hit_ratio", "ratio", Higher); ("tlb.flushes", "count", Lower);
          ("dtlb.hit_ratio", "ratio", Higher) ];
      moves = "guest_mips on compute (stream_copy VM) and syscall-pt";
      bypassed_by = [];
    };
    {
      modules = "Emulate/Monitor";
      metrics =
        List.concat_map
          (fun k ->
            [ ("exits." ^ k ^ ".count", "count", Lower);
              ("exits." ^ k ^ ".cycles", "cycles", Lower) ])
          exit_kinds;
      moves =
        "sim_cycles and vmm_share on syscall-pt; req_p50_cycles on fabric (mmio, wfi)";
      bypassed_by = [ "compute" ];
    };
    {
      modules = "Shadow";
      metrics = counts Lower [ "shadow.fills"; "shadow.pt_writes" ];
      moves = "sim_cycles on syscall-pt";
      bypassed_by = [ "compute" ];
    };
    {
      modules = "Hypervisor/Scheduler/Credit";
      metrics =
        [ share "hypervisor.create_vm"; share "hypervisor.run";
          ("hypervisor.idle_cycles", "cycles", Lower);
          ("scheduler.decisions", "count", Lower) ];
      moves = "wall_s on all; req_p99_cycles on fabric";
      bypassed_by = [];
    };
    {
      modules = "Virtio_net/Virtio_ring";
      metrics =
        counts Higher [ "virtio_net.frames_sent"; "virtio_net.frames_received" ]
        @ counts Lower [ "virtio_net.kicks" ]
        @ [ ("virtio_net.frames_per_kick", "ratio", Higher) ]
        @ counts Lower [ "virtio_net.rx_overflow"; "virtio_net.backlog" ];
      moves = "req_p50_cycles and vmm_share on fabric";
      bypassed_by = [ "compute"; "syscall-pt"; "ha-migrate"; "fleet-chaos" ];
    };
    {
      modules = "Switch/Link";
      metrics =
        counts Higher [ "switch.in_frames"; "switch.out_frames" ]
        @ counts Lower
            [ "switch.flood_extra"; "switch.drop_unknown"; "switch.drop_queue_full";
              "switch.drop_runt"; "link.wire_dropped" ]
        @ [ ("link.bytes_sent", "bytes", Lower) ];
      moves = "availability (error_rate) and req_p99_cycles on fabric";
      bypassed_by = [ "compute"; "syscall-pt" ];
    };
    {
      modules = "fabric hops (switch snoop)";
      metrics =
        List.concat_map
          (fun h ->
            [ ("fabric.hop." ^ h ^ ".p50_cycles", "cycles", Lower);
              ("fabric.hop." ^ h ^ ".p99_cycles", "cycles", Lower) ])
          (Array.to_list Hops.names);
      moves = "req_p50_cycles / req_p99_cycles on fabric";
      bypassed_by = [];
    };
    {
      modules = "Churn/Store";
      metrics =
        counts Lower [ "store.commits"; "store.torn_commits" ]
        @ [ ("store.bytes_written", "bytes", Lower); ("store.logical_bytes", "bytes", Lower);
            ("store.dedup_ratio", "ratio", Higher) ]
        @ counts Lower [ "store.chunks_live"; "store.gc_runs" ]
        @ [ share "store.recover" ];
      moves = "ckpt_overhead, wall_s on ha-migrate; wall_s on fleet-chaos";
      bypassed_by = [ "compute"; "syscall-pt"; "fabric" ];
    };
    {
      modules = "Ha";
      metrics =
        counts Lower [ "ha.checkpoints" ]
        @ [ ("ha.checkpoint_cycles", "cycles", Lower) ]
        @ counts Lower [ "ha.restarts" ]
        @ [ ("ha.mttr_cycles", "cycles", Lower); share "ha.run" ];
      moves = "ckpt_overhead, wall_s on ha-migrate";
      bypassed_by = [ "compute"; "syscall-pt"; "fabric"; "fleet-chaos" ];
    };
    {
      modules = "Migrate";
      metrics =
        counts Lower [ "migrate.pages_sent" ]
        @ [ ("migrate.bytes_sent", "bytes", Lower) ]
        @ counts Lower [ "migrate.rounds" ]
        @ [ ("migrate.total_cycles", "cycles", Lower); share "migrate.precopy" ];
      moves = "mig_downtime_cycles, wall_s on ha-migrate";
      bypassed_by = [ "compute"; "syscall-pt"; "fabric" ];
    };
    {
      modules = "Parallel";
      metrics =
        counts Lower [ "parallel.rounds" ]
        @ [ share "parallel.init"; share "parallel.run_fleet"; share "parallel.round" ];
      moves = "wall_s on fleet-chaos (2 domains) and on fabric (1 domain)";
      bypassed_by = [ "compute"; "syscall-pt"; "ha-migrate" ];
    };
    {
      modules = "Control/Detector/Drain";
      metrics =
        counts Lower
          [ "control.evacuated"; "control.cold_moves"; "control.shed"; "control.degraded";
            "control.fenced_alive" ]
        @ [ ("control.evac_mttr_rounds", "rounds", Lower);
            ("control.migration_bytes", "bytes", Lower) ]
        @ counts Lower [ "control.slo_violations" ]
        @ [ share "control.run" ];
      moves = "availability, error_rate on fleet-chaos";
      bypassed_by = [ "compute"; "syscall-pt"; "fabric"; "ha-migrate" ];
    };
    {
      modules = "benchmark harness";
      metrics =
        [ ("trace.wall_s", "s", Lower); ("trace_overhead", "ratio", Lower);
          share "check"; share "vm.publish_stats"; share "rep" ];
      moves = "nothing: tracing and checking cost, kept out of wall_s";
      bypassed_by = [];
    };
  ]

let layer_metrics = List.concat_map (fun l -> l.metrics) layers
let result_line_metrics = List.filter (fun m -> m.on_result_line) end_to_end
let applies m workload = List.mem workload m.workloads
let better_name = function Lower -> "lower" | Higher -> "higher"
let kind_name = function Sim -> "sim" | Wall -> "wall"
