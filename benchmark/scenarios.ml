(* The five benchmark workloads.

   Each workload builds fresh instances for every repetition: set-up
   (image planning, and the hosts, VMs and fabric where the benchmark
   builds them itself) is timed by the caller as [setup_s], the body by
   the workload as [wall_s].  Correctness checks and counter collection
   run after the body and are timed by neither.
   Every call into a layer goes through {!Spans.span}, which records
   nothing unless the run is traced. *)

open Velum_util
open Velum_devices
open Velum_vmm
open Velum_guests
module P = Velum_cluster.Parallel
module C = Velum_cluster.Control

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

type size = Full | Smoke

type rep = {
  wall_s : float;
  instret : int64;  (** retired guest instructions, all VMs *)
  sim : (string * float) list;  (** simulated end-to-end metrics *)
  samples : int;  (** latency samples behind [req_*] (0: none) *)
  attempted : int;
  failed : int;  (** operations that failed, [shed] included: [error_rate] *)
  shed : int;
      (** of [failed], the VMs the control plane turned away under
          overload (fleet-chaos only): the scenario sheds them by design,
          so the one-line result does not count them as failures *)
  layers : (string * float) list;  (** per-layer counters *)
  fingerprint : string;  (** digest of the simulated outcome *)
}

type workload = {
  name : string;
  prepare : size -> seed:int64 -> sp:Spans.t -> unit -> unit -> rep;
      (** runs the one-time checks and returns the set-up: each call
          builds fresh instances and returns the body that runs on them *)
  setups : int;
      (** extra set-ups timed per measured repetition, enough for a
          steady median.  A fixed count, not a time budget, so every run
          allocates the same and the peak resident set does not depend
          on timing. *)
}

let budget = 100_000_000_000L
let span = Spans.span
let fi = float_of_int
let fl = Int64.to_float
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let sum64 f l = List.fold_left (fun a x -> Int64.add a (f x)) 0L l

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let instret vm =
  Array.fold_left
    (fun a (v : Vcpu.t) -> Int64.add a v.Vcpu.state.Velum_machine.Cpu.instret)
    0L vm.Vm.vcpus

let vmm_share hyps =
  let guest = sum64 Hypervisor.guest_cycles hyps
  and vmm = sum64 Hypervisor.vmm_cycles hyps in
  ratio (fl vmm) (fl (Int64.add guest vmm))

let exit_kind name =
  List.find
    (fun k ->
      String.map (function '-' -> '_' | c -> c) (Monitor.exit_kind_name k) = name)
    Monitor.all_exit_kinds

(* Engine, TLB, exit and shadow-pager counters of a VM population, read
   through the monitor's published gauges and exit counters. *)
let vm_layers sp vms =
  span sp "vm.publish_stats" (fun () -> List.iter Vm.publish_stats vms);
  let gauge n =
    fi (sum (fun vm -> Option.value ~default:0 (Monitor.gauge vm.Vm.monitor n)) vms)
  in
  let hits = gauge "engine.cache.hits" and misses = gauge "engine.cache.misses" in
  let follows = gauge "engine.chain.follows" in
  let shadow f = fi (sum (fun vm -> Option.fold ~none:0 ~some:f vm.Vm.shadow) vms) in
  let exits =
    List.concat_map
      (fun k ->
        let kind = exit_kind k in
        [ ("exits." ^ k ^ ".count", fi (sum (fun vm -> Monitor.count vm.Vm.monitor kind) vms));
          ( "exits." ^ k ^ ".cycles",
            fl (sum64 (fun vm -> Monitor.cycles vm.Vm.monitor kind) vms) ) ])
      Catalog.exit_kinds
  in
  [
    ("engine.cache.hit_ratio", ratio hits (hits +. misses));
    ("engine.chain.follows", follows);
    ("engine.trace.built", gauge "engine.trace.built");
    ("engine.trace.follows", gauge "engine.trace.follows");
    ("engine.trace.severed", gauge "engine.trace.severed");
    ("engine.trace.side_exits", gauge "engine.trace.side_exits");
    ( "engine.insns_per_dispatch",
      ratio (fl (sum64 instret vms)) (hits +. misses +. follows) );
    ("tlb.hit_ratio", ratio (gauge "tlb.hits") (gauge "tlb.hits" +. gauge "tlb.misses"));
    ("tlb.flushes", gauge "tlb.flushes");
    ("dtlb.hit_ratio", ratio (gauge "dtlb.hits") (gauge "dtlb.hits" +. gauge "dtlb.misses"));
    ("shadow.fills", shadow Shadow.fills);
    ("shadow.pt_writes", shadow Shadow.pt_writes);
  ]
  @ exits

let hyp_layers hyps =
  [
    ("hypervisor.idle_cycles", fl (sum64 (fun h -> h.Hypervisor.idle_cycles) hyps));
    ("scheduler.decisions", fi (sum (fun h -> h.Hypervisor.sched_decisions) hyps));
  ]

let fingerprint parts = Digest.to_hex (Digest.string (String.concat "\n" parts))
let monitors vms = List.map (fun vm -> Monitor.to_json vm.Vm.monitor) vms

let new_host sp frames =
  span sp "hypervisor.create" (fun () ->
      Hypervisor.create ~host:(Host.create ~frames ()) ())

let new_vm sp hyp ?paging ?engine name setup =
  let vm =
    span sp "hypervisor.create_vm" (fun () ->
        Hypervisor.create_vm hyp ~name ~mem_frames:setup.Images.frames ?paging
          ?engine ~entry:Images.entry ())
  in
  span sp "vm.load" (fun () -> Images.load_vm vm setup);
  vm

(* ---- compute and syscall-pt: one host, several VMs at once ---- *)

(* [plans] builds each VM's image at size [k], where k = 1 is the ENGINE
   table's size.  The lockstep leg runs both engines at 1/20 of the
   measured size and demands identical per-VM cycles and instructions. *)
let one_host ~name ~paging ~plans ~full ~smoke ~setups =
  let build sp ~engine k =
    let images =
      List.map (fun (n, plan) -> (n, span sp "images.plan" (fun () -> plan k))) plans
    in
    let frames = List.fold_left (fun a (_, s) -> a + s.Images.frames) 1024 images in
    let hyp = new_host sp frames in
    (hyp, List.map (fun (n, s) -> new_vm sp hyp ~paging ~engine n s) images)
  in
  let run sp hyp = span sp "hypervisor.run" (fun () -> Hypervisor.run hyp ~budget) in
  let prepare size ~seed:_ ~sp =
    let k = match size with Full -> full | Smoke -> smoke in
    span sp "check.lockstep" (fun () ->
        let leg engine =
          let hyp, vms = build sp ~engine (k /. 20.0) in
          ignore (run sp hyp);
          List.map
            (fun vm ->
              (vm.Vm.name, Int64.add (Vm.guest_cycles vm) (Vm.vmm_cycles vm), instret vm))
            vms
        in
        List.iter2
          (fun (n, cb, ib) (_, ci, ii) ->
            check (cb = ci && ib = ii)
              "%s: VM %s diverged between engines: block %Ld cycles %Ld insns, \
               interpreter %Ld cycles %Ld insns"
              name n cb ib ci ii)
          (leg Velum_machine.Engine.Block)
          (leg Velum_machine.Engine.Interp));
    fun () ->
      let hyp, vms = build sp ~engine:Velum_machine.Engine.Block k in
      fun () ->
        let _, wall_s = timed (fun () -> run sp hyp) in
        let n = List.length vms in
        let halted = List.length (List.filter Vm.halted vms) in
        let layers = vm_layers sp vms @ hyp_layers [ hyp ] in
        {
          wall_s;
          instret = sum64 instret vms;
          sim =
            [
              ("sim_cycles", fl (Hypervisor.now hyp));
              ("vmm_share", vmm_share [ hyp ]);
              ("availability", ratio (fi halted) (fi n));
            ];
          samples = 0;
          attempted = n;
          failed = n - halted;
          shed = 0;
          layers;
          fingerprint =
            fingerprint (Int64.to_string (Hypervisor.now hyp) :: monitors vms);
        }
  in
  { name; prepare; setups }

let scaled base k = Int64.of_float (Float.round (base *. k))
let scaled_int base k = max 1 (Float.to_int (Float.round (base *. k)))

let compute =
  one_host ~name:"compute" ~paging:Vm.Nested_paging ~full:20.0 ~smoke:0.05 ~setups:10
    ~plans:
      [
        ("cpu_spin", fun k -> Images.plan ~user:(Workloads.cpu_spin ~iters:(scaled 1e6 k)) ());
        ( "branch_mix",
          fun k -> Images.plan ~user:(Workloads.branch_mix ~iters:(scaled 6e5 k)) () );
        ( "stream_copy",
          fun k ->
            Images.plan ~heap_pages:18
              ~user:(Workloads.stream_copy ~words:4096 ~iters:(scaled_int 150.0 k))
              () );
      ]

let syscall_pt =
  one_host ~name:"syscall-pt" ~paging:Vm.Shadow_paging ~full:10.0 ~smoke:0.05 ~setups:20
    ~plans:
      [
        ( "syscall_loop",
          fun k -> Images.plan ~user:(Workloads.syscall_loop ~count:(scaled 4000.0 k)) () );
        ( "pt_churn",
          fun k ->
            Images.plan
              ~user:(Workloads.pt_churn ~batch:16 ~count:(scaled_int 1500.0 k) ())
              () );
      ]

(* ---- fabric: E23's cell on four hosts, open loop below saturation ---- *)

let fabric =
  let hosts = 4 and backends = 2 and clients = 2 and batch = 4 in
  let n_ports = 1 + backends + clients in
  let mac p = Int64.of_int (0x10 + p) in
  (* The seed deals these client pacing gaps (filler iterations between
     batches) and backend service times across the fleet.  Every gap is
     well above 20000, where the backlog starts to grow with the request
     count, so each seed runs the same open loop below saturation. *)
  let gap_set = [| 52_000; 54_000; 56_000; 58_000; 62_000; 64_000; 66_000; 68_000 |] in
  let service_set = [| 90; 105; 120; 135; 165; 180; 195; 210 |] in
  let drain_rounds = 4 in
  let prepare size ~seed ~sp =
    let requests = match size with Full -> 160 | Smoke -> 8 in
    let rng = Rng.create ~seed in
    let gaps = Array.copy gap_set and services = Array.copy service_set in
    Rng.shuffle rng gaps;
    Rng.shuffle rng services;
    fun () ->
      let traced = Spans.enabled sp in
      let lat = Array.make hosts [] and last = Array.make hosts 0L in
      let hops = Array.init hosts (fun _ -> Hops.create ()) in
      let fabric = Array.make hosts None in
      (* switch + per-port links + snoop; the snoop runs inside the
         worker phase, so it only touches its own host's slots *)
      let wire h hyp =
        span sp "fabric.wire" (fun () ->
            let ports =
              Array.init n_ports (fun _ ->
                  Link.create ~bytes_per_cycle:1.0 ~latency_cycles:200 ())
            in
            let sw = Switch.create ports in
            Array.iteri (fun p _ -> Switch.learn sw ~mac:(mac p) ~port:p) ports;
            Switch.set_snoop sw
              (Some
                 (fun port now frame ->
                   if String.length frame >= 48 then begin
                     if port > backends && String.get_int64_le frame 16 = 2L then begin
                       lat.(h) <- Int64.sub now (String.get_int64_le frame 32) :: lat.(h);
                       if now > last.(h) then last.(h) <- now
                     end;
                     if traced then
                       Hops.record hops.(h) (Hops.role_of_port ~backends port) ~now frame
                   end));
            Hypervisor.add_ticker hyp (Switch.tick sw);
            Hypervisor.add_event_source hyp (fun () -> Switch.next_event sw);
            List.iteri
              (fun p vm -> ignore (Vm.attach_vnet vm ~link:ports.(p) ~endpoint:`A))
              hyp.Hypervisor.vms;
            fabric.(h) <- Some (sw, ports))
      in
      let setup () =
        let plan user =
          span sp "images.plan" (fun () -> Images.plan ~heap_pages:2 ~vnet:true ~user ())
        in
        let lb =
          plan
            (Workloads.vnet_lb ~my_mac:(mac 0)
               ~backends:(List.init backends (fun b -> mac (1 + b))))
        in
        let specs =
          Array.init hosts (fun h ->
              [ P.spec ~name:"lb" lb ]
              @ List.init backends (fun b ->
                    P.spec ~name:(Printf.sprintf "backend%d" b)
                      (plan
                         (Workloads.vnet_backend ~my_mac:(mac (1 + b))
                            ~service:services.((h * backends) + b))))
              @ List.init clients (fun c ->
                    P.spec ~name:(Printf.sprintf "client%d" c)
                      (plan
                         (Workloads.vnet_client
                            ~my_mac:(mac (1 + backends + c))
                            ~lb_mac:(mac 0) ~peers:(n_ports - 1) ~requests ~batch
                            ~gap:gaps.((h * clients) + c)))))
        in
        let cfg =
          span sp "parallel.config" (fun () ->
              P.config ~quantum:400_000L ~rounds:5_000 ~seed ~hosts ~wire
                ~mk_vms:(fun h -> specs.(h))
                ())
        in
        span sp "parallel.init" (fun () -> P.init cfg)
      in
      let fleet = setup () in
      fun () ->
        let nodes = Array.to_list fleet.P.nodes in
        let hyps = List.map (fun n -> n.P.hyp) nodes in
        let all_vms () = List.concat_map (fun h -> h.Hypervisor.vms) hyps in
        let clients_vms =
          List.filter (fun vm -> String.starts_with ~prefix:"client" vm.Vm.name) (all_vms ())
        in
        (* Stop once every client has halted and a fixed drain has let the
           reply tail reach the switch, so idle polling rounds stay out of
           wall_s. *)
        let rounds = ref 0 and done_at = ref None and round_start = ref 0 in
        let on_round fl ~round =
          Spans.interval sp "parallel.round" ~since_ns:!round_start;
          span sp "fabric.on_round" (fun () ->
              incr rounds;
              if !done_at = None && List.for_all Vm.halted clients_vms then
                done_at := Some round;
              match !done_at with
              | Some r when round >= r + drain_rounds ->
                  Array.iter (fun n -> P.set_alive n false) fl.P.nodes
              | _ -> ());
          round_start := Spans.now_ns sp
        in
        let (), wall_s =
          timed (fun () ->
              span sp "parallel.run_fleet" (fun () ->
                  round_start := Spans.now_ns sp;
                  P.run_fleet ~domains:1 ~on_round fleet))
        in
        let attempted = hosts * clients * requests in
        let vnets = List.filter_map (fun vm -> vm.Vm.vnet) (all_vms ()) in
        let vsum f = fi (sum f vnets) in
        let fabrics = List.filter_map Fun.id (Array.to_list fabric) in
        let ssum f = fi (sum (fun (sw, _) -> f sw) fabrics) in
        let lsum f =
          fi (sum (fun (_, ports) -> Array.fold_left (fun a l -> a + f l) 0 ports) fabrics)
        in
        let latencies = Pctl.sorted_of_list (List.concat (Array.to_list lat)) in
        let replies = Array.length latencies in
        let hop_layers =
          span sp "check.fabric" (fun () ->
              (* E23's host-scope identity: what the adapters put on the
                 wire, plus wire duplicates and flood copies, equals what
                 they got back plus every named drop, backlog and in-flight
                 frame *)
              List.iteri
                (fun h (vm_host, (sw, ports)) ->
                  check (Switch.conserved sw) "fabric: switch conservation violated on host %d" h;
                  let vn = List.filter_map (fun vm -> vm.Vm.vnet) vm_host.Hypervisor.vms in
                  let s f = sum f vn and a f = Array.fold_left (fun acc l -> acc + f l) 0 ports in
                  let lhs =
                    s Virtio_net.frames_sent + a Link.wire_duplicated + Switch.flood_extra sw
                  and rhs =
                    s Virtio_net.frames_received + s Virtio_net.rx_dropped
                    + s Virtio_net.rx_overflow + s Virtio_net.backlog_length + Switch.drops sw
                    + a Link.wire_dropped + a Link.in_flight
                  in
                  check (lhs = rhs) "fabric: frame conservation violated on host %d (%d <> %d)" h
                    lhs rhs)
                (List.combine hyps fabrics);
              check (replies = attempted) "fabric: %d replies to %d requests" replies attempted;
              if not traced then []
              else begin
                (* every reply joins its four egress sightings, and the hops
                   of each request sum to the latency measured end to end *)
                let joined =
                  List.concat
                    (List.mapi
                       (fun h t ->
                         let js, incomplete = Hops.joined t in
                         check (incomplete = 0) "fabric: %d requests on host %d missed a hop"
                           incomplete h;
                         let sums = Pctl.sorted_of_list (List.map Hops.sum js) in
                         check
                           (sums = Pctl.sorted_of_list lat.(h))
                           "fabric: hops on host %d do not sum to the end-to-end latencies" h;
                         js)
                       (Array.to_list hops))
                in
                List.concat
                  (List.mapi
                     (fun i hop ->
                       let xs = Pctl.sorted_of_list (List.map (fun j -> j.(i)) joined) in
                       [ ("fabric.hop." ^ hop ^ ".p50_cycles", fl (Pctl.nearest_rank xs 50.0));
                         ("fabric.hop." ^ hop ^ ".p99_cycles", fl (Pctl.nearest_rank xs 99.0)) ])
                     (Array.to_list Hops.names))
              end)
        in
        let vms = all_vms () in
        let layers =
          vm_layers sp vms @ hyp_layers hyps
          @ [
              ("virtio_net.frames_sent", vsum Virtio_net.frames_sent);
              ("virtio_net.frames_received", vsum Virtio_net.frames_received);
              ("virtio_net.kicks", vsum Virtio_net.kicks);
              ( "virtio_net.frames_per_kick",
                ratio (vsum Virtio_net.frames_sent) (vsum Virtio_net.kicks) );
              ("virtio_net.rx_overflow", vsum Virtio_net.rx_overflow);
              ("virtio_net.backlog", vsum Virtio_net.backlog_length);
              ("switch.in_frames", ssum Switch.in_frames);
              ("switch.out_frames", ssum Switch.out_frames);
              ("switch.flood_extra", ssum Switch.flood_extra);
              ("switch.drop_unknown", ssum Switch.drop_unknown);
              ("switch.drop_queue_full", ssum Switch.drop_queue_full);
              ("switch.drop_runt", ssum Switch.drop_runt);
              ("link.wire_dropped", lsum Link.wire_dropped);
              ("link.bytes_sent", lsum Link.bytes_sent);
              ("parallel.rounds", fi !rounds);
            ]
          @ hop_layers
        in
        {
          wall_s;
          instret = sum64 instret vms;
          sim =
            [
              ("sim_cycles", fl (Array.fold_left max 0L last));
              ("vmm_share", vmm_share hyps);
              ("availability", ratio (fi replies) (fi attempted));
              ("req_p50_cycles", fl (Pctl.nearest_rank latencies 50.0));
              ("req_p99_cycles", fl (Pctl.nearest_rank latencies 99.0));
            ];
          samples = replies;
          attempted;
          failed = attempted - replies;
          shed = 0;
          layers;
          fingerprint =
            fingerprint
              (P.report fleet
              :: Array.to_list (Array.map Int64.to_string latencies));
        }
  in
  { name = "fabric"; prepare; setups = 5 }

(* ---- ha-migrate: a write-heavy guest supervised, then live-migrated ---- *)

let ha_migrate =
  let prepare size ~seed:_ ~sp =
    let iters = match size with Full -> 4000 | Smoke -> 60 in
    let plan () =
      span sp "images.plan" (fun () ->
          Images.plan ~heap_pages:96
            ~user:(Workloads.memwalk ~pages:96 ~iters ~write:true)
            ())
    in
    let host s = new_host sp (s.Images.frames + 1024) in
    (* the unsupervised run both phases must reproduce *)
    let ref_instret, ref_console, ref_cycles =
      span sp "check.reference" (fun () ->
          let s = plan () in
          let hyp = host s in
          let vm = new_vm sp hyp "reference" s in
          let o = span sp "hypervisor.run" (fun () -> Hypervisor.run hyp ~budget) in
          check (o = Hypervisor.All_halted) "ha-migrate: the reference guest did not halt";
          (instret vm, Vm.console_output vm, Hypervisor.now hyp))
    in
    let half = Int64.div ref_cycles 2L in
    fun () ->
      let setup () =
        let s = plan () in
        let ha_hyp = host s in
        let ha_vm = new_vm sp ha_hyp "supervised" s in
        let store =
          span sp "store.create" (fun () ->
              Store.create
                ~sectors:
                  (Store.sectors_for ~image_bytes:(Snapshot.size_bytes (Snapshot.capture ha_vm)))
                ())
        in
        let src = host s and dst = host s in
        (ha_hyp, ha_vm, store, src, dst, new_vm sp src "migrated" s)
      in
      let ha_hyp, ha_vm, store, src, dst, mig_vm = setup () in
      fun () ->
        let body () =
          let sup =
            span sp "ha.create" (fun () ->
                Ha.create ~hyp:ha_hyp ~store ~vm:ha_vm ~checkpoint_every:1_000_000L
                  ~wd_budget:50_000L ~backoff_base:100_000L ())
          in
          ignore (span sp "ha.run" (fun () -> Ha.run sup ~budget:half));
          span sp "ha.inject_stall" (fun () -> Ha.inject_stall (Ha.vm sup));
          let ha_out = span sp "ha.run" (fun () -> Ha.run sup ~budget) in
          ignore (span sp "hypervisor.run" (fun () -> Hypervisor.run src ~budget:half));
          let twin, mig =
            span sp "migrate.precopy" (fun () ->
                Migrate.precopy ~src ~dst ~vm:mig_vm ~link:(Link.create ()) ~max_rounds:12
                  ~stop_threshold:8 ())
          in
          let mig_out = span sp "hypervisor.run" (fun () -> Hypervisor.run dst ~budget) in
          (sup, ha_out, twin, mig, mig_out)
        in
        let (sup, ha_out, twin, mig, mig_out), wall_s = timed body in
        let st = span sp "ha.stats" (fun () -> Ha.stats sup) in
        let survivor = Ha.vm sup in
        span sp "check.ha-migrate" (fun () ->
            check (ha_out = Hypervisor.All_halted)
              "ha-migrate: the supervised guest did not finish";
            check
              (instret survivor = ref_instret && Vm.console_output survivor = ref_console)
              "ha-migrate: the supervised guest ended with %Ld insns, the reference with %Ld"
              (instret survivor) ref_instret;
            check (st.Ha.restarts = 1) "ha-migrate: %d restarts after one stall" st.Ha.restarts;
            let newest = Store.stream_generation store in
            (match span sp "store.recover" (fun () -> Store.recover store) with
            | Some (_, g) ->
                check (g = newest) "ha-migrate: recovered generation %d, newest is %d" g newest
            | None -> check false "ha-migrate: nothing recoverable from the store");
            check (not mig.Migrate.aborted) "ha-migrate: the migration aborted";
            check (mig_out = Hypervisor.All_halted) "ha-migrate: the migrated guest did not finish";
            check
              (instret twin = ref_instret && Vm.console_output twin = ref_console)
              "ha-migrate: the migrated guest ended with %Ld insns, the reference with %Ld"
              (instret twin) ref_instret);
        let hyps = [ ha_hyp; src; dst ] in
        let sim_cycles = sum64 Hypervisor.now hyps in
        let outage = Int64.add st.Ha.mttr_total mig.Migrate.downtime_cycles in
        let layers =
          vm_layers sp [ survivor; twin ]
          @ hyp_layers hyps
          @ [
              ("store.commits", fi (Store.commits store));
              ("store.torn_commits", fi (Store.torn_commits store));
              ("store.bytes_written", fi (Store.bytes_written store));
              ("store.logical_bytes", fi (Store.logical_bytes store));
              ( "store.dedup_ratio",
                ratio (fi (Store.logical_bytes store)) (fi (Store.bytes_written store)) );
              ("store.chunks_live", fi (Store.chunks_live store));
              ("store.gc_runs", fi (Store.gc_runs store));
              ("ha.checkpoints", fi st.Ha.checkpoints);
              ("ha.checkpoint_cycles", fl st.Ha.checkpoint_cycles);
              ("ha.restarts", fi st.Ha.restarts);
              ("ha.mttr_cycles", fl st.Ha.mttr_total);
              ("migrate.pages_sent", fi mig.Migrate.pages_sent);
              ("migrate.bytes_sent", fi mig.Migrate.bytes_sent);
              ("migrate.rounds", fi mig.Migrate.rounds);
              ("migrate.total_cycles", fl mig.Migrate.total_cycles);
            ]
        in
        let attempted = st.Ha.checkpoints + st.Ha.torn_checkpoints + 1 in
        {
          wall_s;
          instret = Int64.add (instret survivor) (instret twin);
          sim =
            [
              ("sim_cycles", fl sim_cycles);
              ("vmm_share", vmm_share hyps);
              ("availability", 1.0 -. ratio (fl outage) (fl sim_cycles));
              ("ckpt_overhead", ratio (fl st.Ha.checkpoint_cycles) (fl (Hypervisor.now ha_hyp)));
              ("mig_downtime_cycles", fl mig.Migrate.downtime_cycles);
            ];
          samples = 0;
          attempted;
          failed = st.Ha.torn_checkpoints + Bool.to_int mig.Migrate.aborted;
          shed = 0;
          layers;
          fingerprint =
            fingerprint
              (Printf.sprintf "%d %d %Ld %Ld %d %Ld" st.Ha.checkpoints st.Ha.ckpt_bytes
                 st.Ha.checkpoint_cycles st.Ha.mttr_total mig.Migrate.pages_sent
                 mig.Migrate.downtime_cycles
              :: monitors [ survivor; twin ]);
        }
  in
  { name = "ha-migrate"; prepare; setups = 8 }

(* ---- fleet-chaos: E20's control-plane scenario ---- *)

(* The store line of {!C.report}: the fleet store is not reachable
   otherwise. *)
let store_line report =
  match
    List.find_opt (String.starts_with ~prefix:"store commits=") (String.split_on_char '\n' report)
  with
  | None -> []
  | Some line ->
      List.filter_map
        (fun kv ->
          match String.split_on_char '=' kv with
          | [ k; v ] -> Option.map (fun v -> (k, fi v)) (int_of_string_opt v)
          | _ -> None)
        (String.split_on_char ' ' line)

let fleet_chaos =
  let prepare size ~seed ~sp =
    (* full size is E20 itself: seed 7 reproduces BENCH_cluster.json *)
    let hosts, rounds, kills, drains, burst_at, burst =
      match size with
      | Full -> (16, 24, [ (5, 1); (8, 9) ], [ (12, 3) ], 6, 6)
      | Smoke -> (3, 8, [ (2, 1) ], [ (4, 2) ], 3, 2)
    in
    let domains = max 1 (min 2 (Domain.recommended_domain_count ())) in
    (* The fleet keeps about 600 MB of guest frames and fleet store live.
       At the default major-GC pace (space_overhead 120) this process
       peaks at 2.1 GB; at 40 it peaks at 1.1 GB, and over three paired
       runs wall_s moved by -4%, -1% and +1%, inside run-to-run noise.
       Only this workload's process sets it. *)
    Gc.set { (Gc.get ()) with Gc.space_overhead = 40 };
    fun () ->
      (* Set-up is one image plan, shared by every VM as in E20, and the
         control-plane configuration: {!C.run} builds the hosts, the
         fleet store and the VMs itself, so that work is in [wall_s]. *)
      let setup () =
        let image =
          span sp "images.plan" (fun () ->
              Images.plan ~heap_pages:16 ~user:(Workloads.dirty_loop ~pages:8 ~delay:1500) ())
        in
        let prio i = match i mod 3 with 0 -> C.High | 1 -> C.Normal | _ -> C.Low in
        let mk ~arrives tag i =
          let group = if arrives <= 0 && i < 4 then Some 0 else None in
          C.desc ~prio:(prio i) ?group ~arrives ~name:(Printf.sprintf "%s%02d" tag i) image
        in
        let workload =
          List.init (2 * hosts) (mk ~arrives:0 "vm")
          @ List.init burst (mk ~arrives:burst_at "burst")
        in
        let frames = image.Images.frames in
        let faults =
          match
            Fault.parse
              (Printf.sprintf
                 "seed=%Ld,cluster.hb=0.05,cluster.evac=0.1,cluster.drain=0.1,drop=0.02" seed)
          with
          | Ok f -> f
          | Error e -> failwith e
        in
        span sp "control.config" (fun () ->
            C.config ~quantum:50_000L ~rounds ~seed:(Int64.add seed 4L) ~faults
              ~cap_units:(3 * frames) ~headroom:frames
              ~checkpoint_every:4 ~kills ~drains ~hosts ~workload ())
      in
      let cfg = setup () in
      fun () ->
        let res, wall_s = timed (fun () -> span sp "control.run" (fun () -> C.run ~domains cfg)) in
        let m = span sp "control.metrics" (fun () -> C.metrics res.C.control) in
        span sp "check.fleet" (fun () ->
            check (m.C.split_brain = 0) "fleet-chaos: %d split-brain epochs" m.C.split_brain);
        let hyps = Array.to_list (Array.map (fun n -> n.P.hyp) (C.fleet res.C.control).P.nodes) in
        let vms = List.concat_map (fun h -> h.Hypervisor.vms) hyps in
        let store = store_line res.C.report in
        let st k = Option.value ~default:0.0 (List.assoc_opt k store) in
        let attempted = List.length cfg.C.workload in
        let layers =
          vm_layers sp vms @ hyp_layers hyps
          @ [
              ("store.commits", st "commits");
              ("store.torn_commits", st "torn");
              ("store.bytes_written", st "bytes_written");
              ("store.logical_bytes", st "logical");
              ("store.dedup_ratio", ratio (st "logical") (st "bytes_written"));
              ("store.chunks_live", st "chunks_live");
              ("store.gc_runs", st "gc");
              ("control.evacuated", fi m.C.evacuated);
              ("control.cold_moves", fi m.C.cold_moves);
              ("control.shed", fi m.C.shed);
              ("control.degraded", fi m.C.degraded);
              ("control.fenced_alive", fi m.C.fenced_alive);
              ("control.evac_mttr_rounds", m.C.evac_mttr_rounds);
              ("control.migration_bytes", fi m.C.migration_bytes);
              ("control.slo_violations", fi m.C.slo_violations);
            ]
        in
        {
          wall_s;
          instret = sum64 instret vms;
          sim =
            [
              ("sim_cycles", fl (List.fold_left (fun a h -> max a (Hypervisor.now h)) 0L hyps));
              ("vmm_share", vmm_share hyps);
              ("availability", m.C.availability);
            ];
          samples = 0;
          attempted;
          (* a VM asked for fails if it is shed or degraded: 2 of 38 at
             seed 7, as in E20 *)
          failed = m.C.shed + m.C.degraded;
          shed = m.C.shed;
          layers;
          fingerprint = fingerprint [ res.C.report ];
        }
  in
  { name = "fleet-chaos"; prepare; setups = 200 }

let all = [ compute; syscall_pt; fabric; ha_migrate; fleet_chaos ]
let find name = List.find_opt (fun w -> w.name = name) all
