(* The velum command-line tool: boot guests natively or under the
   hypervisor, migrate them between hosts, snapshot them, disassemble
   guest images, and plan consolidations — all from the shell.

     dune exec bin/velum.exe -- run --workload hello --paging shadow
     dune exec bin/velum.exe -- migrate --strategy precopy
     dune exec bin/velum.exe -- consolidate --hosts-cores 8
     dune exec bin/velum.exe -- disasm --workload memwalk *)

open Cmdliner
open Velum_util
open Velum_devices
open Velum_vmm
open Velum_guests

(* ---------------- shared workload construction ---------------- *)

type workload_kind =
  | W_hello
  | W_spin
  | W_syscalls
  | W_memwalk
  | W_pt_churn
  | W_blk
  | W_vblk
  | W_dirty

let workload_conv =
  Arg.enum
    [
      ("hello", W_hello); ("spin", W_spin); ("syscalls", W_syscalls);
      ("memwalk", W_memwalk); ("pt-churn", W_pt_churn); ("blk", W_blk);
      ("vblk", W_vblk); ("dirty", W_dirty);
    ]

let build_setup kind ~size ~pv =
  let n = Int64.of_int size in
  let user, heap =
    match kind with
    | W_hello -> (Workloads.hello (), 0)
    | W_spin -> (Workloads.cpu_spin ~iters:(Int64.mul n 1000L), 0)
    | W_syscalls -> (Workloads.syscall_loop ~count:n, 0)
    | W_memwalk -> (Workloads.memwalk ~pages:size ~iters:8 ~write:true, size)
    | W_pt_churn -> (Workloads.pt_churn ~batch:16 ~count:size (), 0)
    | W_blk -> (Workloads.blk_read ~sector:0 ~count:4 ~reps:size, 8)
    | W_vblk -> (Workloads.vblk_read ~sector:0 ~count:4 ~reps:size, 8)
    | W_dirty -> (Workloads.dirty_loop ~pages:size ~delay:2000, size + 8)
  in
  Images.plan ~pv_console:pv ~pv_pt:pv ~heap_pages:heap ~user ()

let paging_conv =
  Arg.enum [ ("shadow", Vm.Shadow_paging); ("nested", Vm.Nested_paging) ]

(* ---------------- fault plan flag ---------------- *)

let faults_conv =
  let parse s =
    match Fault.parse s with Ok f -> Ok f | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt _ -> Format.fprintf fmt "<fault-plan>")

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ]
        ~doc:
          "Deterministic fault plan, e.g. \
           'seed=42,drop=0.05,corrupt=0.01,blk=0.02,partition@10000-20000'. \
           Clauses: seed=N, SITE=PROB, SITE@LO-HI (always-fire cycle \
           window).  Sites: drop corrupt dup delay blk blkperm partition \
           store.torn store.csum store.gc store.ref hb.loss.")

let print_faults f =
  if Fault.active f then Format.printf "fault counters:@.%a@?" Fault.pp f

(* ---------------- shared HA detector knobs ---------------- *)

(* One knobs record for the fleet detector ('run --hosts N' and 'velum
   cluster'); --ha-backoff also spaces the HA supervisor's restarts
   ('run --ha'). *)

let ha_miss_limit_arg =
  Arg.(
    value & opt int 3
    & info [ "ha-miss-limit" ]
        ~doc:
          "Consecutive heartbeat misses before the fleet detector \
           declares a host dead ('run --hosts' and 'velum cluster').")

let ha_timeout_arg =
  Arg.(
    value & opt int64 0L
    & info [ "ha-timeout" ]
        ~doc:
          "Additional heartbeat-less cycles required on top of the miss \
           count before declaring death; 0 = the miss count alone \
           decides.")

let ha_backoff_arg =
  Arg.(
    value & opt int64 0L
    & info [ "ha-backoff" ]
        ~doc:
          "Base backoff in cycles, doubled per attempt: restart spacing \
           for the HA supervisor under --ha, probe spacing for the \
           fleet detector.  0 = the built-in default.")

let ha_knobs =
  let make miss_limit timeout takeover_backoff =
    { Ha.Failover.miss_limit; timeout; takeover_backoff }
  in
  Term.(const make $ ha_miss_limit_arg $ ha_timeout_arg $ ha_backoff_arg)

(* ---------------- run ---------------- *)

let run_cmd =
  let workload =
    Arg.(value & opt workload_conv W_hello & info [ "workload"; "w" ] ~doc:"Guest workload.")
  in
  let size =
    Arg.(value & opt int 64 & info [ "size"; "n" ] ~doc:"Workload size parameter.")
  in
  let native =
    Arg.(value & flag & info [ "native" ] ~doc:"Run on bare metal instead of a VM.")
  in
  let paging =
    Arg.(value & opt paging_conv Vm.Nested_paging & info [ "paging" ] ~doc:"Paging mode.")
  in
  let pv = Arg.(value & flag & info [ "pv" ] ~doc:"Enable paravirtualization.") in
  let exec_mode =
    Arg.(
      value
      & opt (enum [ ("trap", Vm.Trap_emulate); ("bt", Vm.Binary_translation) ])
          Vm.Trap_emulate
      & info [ "exec" ] ~doc:"CPU virtualization technique: trap or bt.")
  in
  let engine =
    Arg.(
      value
      & opt
          (enum
             [
               ("interp", Velum_machine.Engine.Interp);
               ("block", Velum_machine.Engine.Block);
             ])
          Velum_machine.Engine.default
      & info [ "engine" ]
          ~doc:
            "Execution engine: block (the default: decoded-block translation \
             cache with superblock traces) or interp (the reference \
             interpreter every lockstep check compares against; same \
             simulated cycles, slower wall clock).")
  in
  let budget =
    Arg.(value & opt int64 2_000_000_000L & info [ "budget" ] ~doc:"Cycle budget.")
  in
  let watchdog =
    Arg.(
      value
      & opt (some int64) None
      & info [ "watchdog" ]
          ~doc:"Progress watchdog: cycles without retired instructions before firing.")
  in
  let watchdog_policy =
    Arg.(
      value
      & opt
          (enum
             [
               ("kill", Hypervisor.Wd_kill); ("notify", Hypervisor.Wd_notify);
               ("restart", Hypervisor.Wd_restart);
             ])
          Hypervisor.Wd_notify
      & info [ "watchdog-policy" ]
          ~doc:
            "What the watchdog does: kill, notify, or restart (restore from \
             the last checkpoint; implies the HA supervisor, see --ha).")
  in
  let ha =
    Arg.(
      value & flag
      & info [ "ha" ]
          ~doc:
            "Supervise the VM: periodic checkpoints to a crash-consistent \
             store, automatic restart from the last good checkpoint when the \
             progress watchdog wedges, crash-loop degradation.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int64 300_000L
      & info [ "checkpoint-every" ] ~doc:"HA checkpoint cadence in cycles.")
  in
  let trace_to =
    Arg.(
      value
      & opt ~vopt:(Some "velum.trace.jsonl") (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a cycle-stamped trace (VM exits, scheduler decisions, \
             hypercalls, device I/O, HA events) and export it as \
             deterministic JSONL to $(docv) (default velum.trace.jsonl). \
             Inspect with 'velum trace FILE'.")
  in
  let hosts =
    Arg.(
      value & opt int 1
      & info [ "hosts" ]
          ~doc:
            "Simulate a fleet of $(docv) share-nothing hosts (each runs one \
             copy of the workload) watched by the fleet heartbeat \
             detector, executed under the deterministic round barrier. \
             Values > 1 switch to the cluster runner; see also --domains.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:
            "Run the fleet's worker phases on this many OCaml domains.  The \
             printed report is byte-identical for every value — parallelism \
             only changes wall-clock time.")
  in
  let quantum =
    Arg.(
      value & opt int64 200_000L
      & info [ "quantum" ] ~doc:"Cycles each host runs between round barriers.")
  in
  let rounds =
    Arg.(
      value & opt int 8
      & info [ "rounds" ]
          ~doc:"Maximum barrier rounds (the fleet stops early if all hosts halt).")
  in
  let migrate_every =
    Arg.(
      value & opt int 0
      & info [ "migrate-every" ]
          ~doc:
            "Every $(docv) rounds, live-migrate one VM from the next host in \
             turn to its successor at the barrier (0 = never).")
  in
  let fail_host =
    Arg.(
      value
      & opt (some (pair int int)) None
      & info [ "fail-host" ] ~docv:"ROUND,HOST"
          ~doc:
            "Kill host HOST at round ROUND; the fleet detector notices the \
             missing heartbeats and declares it dead.")
  in
  let seed =
    Arg.(
      value & opt int64 0L
      & info [ "seed" ]
          ~doc:
            "Fleet seed: per-host RNG, fault and link streams derive from it.")
  in
  let action workload size native paging pv exec_mode engine budget faults watchdog
      watchdog_policy ha checkpoint_every trace_to hosts domains quantum rounds
      migrate_every fail_host seed knobs =
    if hosts > 1 || domains > 1 then begin
      let module P = Velum_cluster.Parallel in
      let module D = Velum_cluster.Detector in
      let setup = build_setup workload ~size ~pv in
      let mk_vms i =
        [ P.spec ~paging ~pv ~engine ~name:(Printf.sprintf "vm%d" i) setup ]
      in
      let cfg =
        P.config ~quantum ~rounds ~seed ?faults ~migrate_every ?fail_host
          ~trace:(trace_to <> None) ~hosts ~mk_vms ()
      in
      let fleet, det = D.run_watched ~knobs ~domains cfg in
      print_string (P.report fleet);
      print_string (D.summary det);
      for i = 0 to hosts - 1 do
        Option.iter
          (Printf.printf "detector: host %d dead at round %d\n" i)
          (D.declared_at det i)
      done;
      match trace_to with
      | Some file ->
          List.iter
            (fun (i, s) ->
              let oc = open_out (Printf.sprintf "%s.%d" file i) in
              output_string oc s;
              close_out oc)
            (P.traces fleet)
      | None -> ()
    end
    else begin
    let setup = build_setup workload ~size ~pv in
    let export_trace tr file =
      Trace.export_file tr file;
      Printf.printf "trace: %d events -> %s\n" (Trace.events_recorded tr) file
    in
    if native then begin
      let platform = Images.boot_native ~engine setup in
      let tr = Option.map (fun _ -> Trace.create ()) trace_to in
      (* The device library cannot depend on the hypervisor core, so
         tracing on bare metal is glued here through a neutral I/O hook. *)
      Option.iter
        (fun tr ->
          Platform.set_io_hook platform (fun ~write ~addr ~now ->
              Trace.record tr ~vm_id:0 ~name:"native" ~at:now
                (Trace.Device_io { write; addr })))
        tr;
      let outcome = Platform.run ~budget platform in
      Option.iter
        (fun tr ->
          Trace.add_guest_cycles tr ~vm_id:0 ~name:"native"
            (Int64.to_int (Platform.cycles platform)))
        tr;
      print_string (Platform.console_output platform);
      Printf.printf "[native] outcome: %s, cycles: %Ld, instructions: %Ld\n"
        (match outcome with
        | Platform.Halted -> "halted"
        | Platform.Out_of_budget -> "out of budget"
        | Platform.Deadlock -> "deadlock")
        (Platform.cycles platform)
        (Platform.instructions_retired platform);
      List.iter
        (fun (name, v) -> Printf.printf "%s: %d\n" name v)
        (Velum_machine.Engine.counters ~tlbs:[| platform.Platform.tlb |]
           ~dtlbs:[| platform.Platform.dtlb |] platform.Platform.engine);
      match (trace_to, tr) with
      | Some file, Some tr -> export_trace tr file
      | _ -> ()
    end
    else begin
      let hyp, vm =
        Images.boot ~name:"cli" ~paging
          ~pv:(if pv then Vm.full_pv else Vm.no_pv)
          ~exec_mode ~engine setup
      in
      Option.iter (fun _ -> Hypervisor.set_trace hyp (Trace.create ())) trace_to;
      (match faults with
      | Some f ->
          Blockdev.set_faults vm.Vm.blk f;
          Virtio_blk.set_faults vm.Vm.vblk f
      | None -> ());
      let outcome, vm =
        if ha then begin
          let store =
            Store.create
              ~sectors:(Store.sectors_for ~image_bytes:(Snapshot.image_bytes vm))
              ?faults ()
          in
          let backoff = knobs.Ha.Failover.takeover_backoff in
          let backoff_base =
            if Int64.compare backoff 0L > 0 then Some backoff else None
          in
          let sup =
            Ha.create ~hyp ~store ~vm ?wd_budget:watchdog ~checkpoint_every
              ?backoff_base ()
          in
          let o = Ha.run sup ~budget in
          let s = Ha.stats sup in
          Printf.printf "ha: %d checkpoints (%d torn), %d restarts, degraded: %b\n"
            s.Ha.checkpoints s.Ha.torn_checkpoints s.Ha.restarts s.Ha.degraded;
          if s.Ha.mttr_events > 0 then
            Printf.printf "ha: mean MTTR %Ld cycles over %d restores\n"
              (Int64.div s.Ha.mttr_total (Int64.of_int s.Ha.mttr_events))
              s.Ha.mttr_events;
          Printf.printf
            "store: %d commits (%d torn), %d bytes written, hint_misses=%d, %d gc runs\n"
            (Store.commits store) (Store.torn_commits store) (Store.bytes_written store)
            (Store.hint_misses store) (Store.gc_runs store);
          (o, Ha.vm sup)
        end
        else begin
          (match watchdog with
          | Some budget -> Hypervisor.set_watchdog hyp ~budget ~policy:watchdog_policy
          | None -> ());
          (Hypervisor.run hyp ~budget, vm)
        end
      in
      print_string (Vm.console_output vm);
      Printf.printf "[vm] outcome: %s, guest cycles: %Ld, vmm cycles: %Ld\n"
        (match outcome with
        | Hypervisor.All_halted -> "halted"
        | Hypervisor.Out_of_budget -> "out of budget"
        | Hypervisor.Idle_deadlock -> "deadlock"
        | Hypervisor.Until_satisfied -> "condition met")
        (Vm.guest_cycles vm) (Vm.vmm_cycles vm);
      Vm.publish_stats vm;
      Format.printf "%a@?" Monitor.pp vm.Vm.monitor;
      if Blockdev.error_count vm.Vm.blk > 0 || Virtio_blk.error_count vm.Vm.vblk > 0
      then
        Printf.printf "block errors: blk %d, vblk %d\n"
          (Blockdev.error_count vm.Vm.blk)
          (Virtio_blk.error_count vm.Vm.vblk);
      if Hypervisor.watchdog_fired hyp > 0 then
        Printf.printf "watchdog fired: %d\n" (Hypervisor.watchdog_fired hyp);
      Option.iter print_faults faults;
      match (trace_to, Hypervisor.trace hyp) with
      | Some file, Some tr -> export_trace tr file
      | _ -> ()
    end
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Boot a guest workload natively or under the hypervisor.")
    Term.(
      const action $ workload $ size $ native $ paging $ pv $ exec_mode $ engine $ budget
      $ faults_arg $ watchdog $ watchdog_policy $ ha $ checkpoint_every $ trace_to
      $ hosts $ domains $ quantum $ rounds $ migrate_every $ fail_host $ seed
      $ ha_knobs)

(* ---------------- trace report ---------------- *)

let trace_cmd =
  let file =
    Arg.(
      value
      & pos 0 string "velum.trace.jsonl"
      & info [] ~docv:"FILE" ~doc:"Trace export produced by 'run --trace'.")
  in
  let action file = print_string (Trace.render_report file) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Render a recorded trace: per-VM guest/VMM/device cycle attribution \
          and per-exit-kind latency histograms (p50/p95/p99).")
    Term.(const action $ file)

(* ---------------- migrate ---------------- *)

let migrate_cmd =
  let strategy =
    Arg.(
      value
      & opt (enum [ ("stopcopy", `Stop); ("precopy", `Pre); ("postcopy", `Post) ]) `Pre
      & info [ "strategy"; "s" ] ~doc:"Migration strategy.")
  in
  let delay =
    Arg.(value & opt int 4000 & info [ "delay" ] ~doc:"Guest inter-write delay (dirty rate knob).")
  in
  let pages =
    Arg.(value & opt int 64 & info [ "pages" ] ~doc:"Guest dirty working set in pages.")
  in
  let action strategy delay pages faults =
    let setup =
      Images.plan ~heap_pages:(pages + 8) ~user:(Workloads.dirty_loop ~pages ~delay) ()
    in
    let src, vm = Images.boot ~name:"mig" setup in
    let dst = Images.hypervisor setup in
    ignore (Hypervisor.run src ~budget:4_000_000L);
    let link = Link.create () in
    Option.iter (Link.set_faults link) faults;
    let twin, r =
      match strategy with
      | `Stop -> Migrate.stop_and_copy ~src ~dst ~vm ~link ()
      | `Pre -> Migrate.precopy ~src ~dst ~vm ~link ~max_rounds:10 ~stop_threshold:8 ()
      | `Post -> Migrate.postcopy ~src ~dst ~vm ~link ()
    in
    if r.Migrate.aborted then begin
      Printf.printf
        "migration ABORTED after %d retransmits; source '%s' resumed (round %d)\n"
        r.Migrate.retransmits twin.Vm.name r.Migrate.rounds;
      ignore (Hypervisor.run src ~budget:2_000_000L);
      Printf.printf "source is %s after rollback\n"
        (if Vm.halted twin then "halted" else "running")
    end
    else begin
      ignore (Hypervisor.run dst ~budget:2_000_000L);
      Printf.printf
        "migrated '%s': total %Ld cycles, downtime %Ld cycles, %d pages, %d rounds, %d \
         demand faults, %d retransmits\n"
        twin.Vm.name r.Migrate.total_cycles r.Migrate.downtime_cycles
        r.Migrate.pages_sent r.Migrate.rounds r.Migrate.remote_faults
        r.Migrate.retransmits;
      Printf.printf "twin is %s on the destination\n"
        (if Vm.halted twin then "halted" else "running")
    end;
    Option.iter print_faults faults
  in
  Cmd.v
    (Cmd.info "migrate" ~doc:"Live-migrate a running guest between two hosts.")
    Term.(const action $ strategy $ delay $ pages $ faults_arg)

(* ---------------- replicate ---------------- *)

let replicate_cmd =
  let epoch =
    Arg.(value & opt int64 300_000L & info [ "epoch" ] ~doc:"Checkpoint epoch in cycles.")
  in
  let epochs = Arg.(value & opt int 8 & info [ "epochs" ] ~doc:"Epochs before failover.") in
  let action epoch_cycles epochs faults =
    let setup =
      Images.plan ~heap_pages:64 ~user:(Workloads.dirty_loop ~pages:48 ~delay:500) ()
    in
    let primary, vm = Images.boot ~name:"protected" setup in
    let backup = Images.hypervisor setup in
    ignore (Hypervisor.run primary ~budget:3_000_000L);
    let link = Link.create () in
    Option.iter (Link.set_faults link) faults;
    let twin, st = Replicate.protect ~primary ~backup ~vm ~link ~epoch_cycles ~epochs () in
    Printf.printf
      "protected for %d epochs: %d pages shipped (+%d initial), paused %Ld cycles over %Ld run
"
      st.Replicate.epochs_completed st.Replicate.pages_sent st.Replicate.initial_pages
      st.Replicate.paused_cycles st.Replicate.run_cycles;
    if st.Replicate.retransmits > 0 || st.Replicate.link_failed then
      Printf.printf "checkpoint retransmits: %d%s\n" st.Replicate.retransmits
        (if st.Replicate.link_failed then " (link failed; early failover)" else "");
    ignore (Hypervisor.run backup ~budget:2_000_000L);
    Printf.printf "failover complete; '%s' is %s on the backup host
" twin.Vm.name
      (if Vm.halted twin then "halted" else "running");
    Option.iter print_faults faults
  in
  Cmd.v
    (Cmd.info "replicate" ~doc:"Protect a guest with Remus-style checkpoints, then fail over.")
    Term.(const action $ epoch $ epochs $ faults_arg)

(* ---------------- snapshot ---------------- *)

let snapshot_cmd =
  let action () =
    let setup = build_setup W_hello ~size:0 ~pv:false in
    let hyp, vm =
      Images.boot ~host_frames:((3 * setup.Images.frames) + 1024) ~name:"snap-demo" setup
    in
    ignore (Hypervisor.run hyp);
    let image = Snapshot.capture vm in
    Printf.printf "captured %s: %d bytes (%d guest frames)\n" vm.Vm.name
      (Snapshot.size_bytes image) (Vm.mem_frames vm);
    let restored = Snapshot.restore hyp image in
    Printf.printf "restored as vm%d; console identical: %b\n" restored.Vm.id
      (Vm.console_output restored = Vm.console_output vm)
  in
  Cmd.v
    (Cmd.info "snapshot" ~doc:"Capture and restore a full VM snapshot.")
    Term.(const action $ const ())

(* ---------------- recover ---------------- *)

(* Crash-recovery exercise for the durable snapshot store: commit one
   generation intact, cut the next (delta) commit's byte stream — or,
   with `--gc`, a GC compaction's stream — at a chosen (or swept)
   offset, power-cycle (remount the raw device), and verify the
   recovered image is byte-identical to a complete generation — never a
   torn hybrid, never a manifest pointing at reclaimed chunks.
   `--sweep` is the CI crash matrix; it exits nonzero on any torn or
   empty recovery.  The prepared baseline store is built once and
   byte-cloned per offset, so a stride-1 sweep of every offset stays
   cheap. *)
let recover_cmd =
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Sweep power-failure offsets across the full write stream and \
             verify recovery at each.")
  in
  let gc =
    Arg.(
      value & flag
      & info [ "gc" ]
          ~doc:
            "Crash during a GC compaction instead of a delta commit: fill \
             two generations, cut the compaction stream, and verify the \
             newest generation still recovers.")
  in
  let stride =
    Arg.(value & opt int 997 & info [ "stride" ] ~doc:"Sweep stride in bytes.")
  in
  let size =
    Arg.(
      value & opt int 16
      & info [ "size" ]
          ~doc:
            "Dirty-workload size; smaller sizes shrink the write stream so \
             a stride-1 sweep of every byte offset stays fast.")
  in
  let pages =
    Arg.(
      value
      & opt (some int) None
      & info [ "pages" ]
          ~doc:
            "Use synthetic patterned images of this many 4 KiB pages \
             instead of VM snapshots.  A megabyte-scale VM image makes a \
             stride-1 sweep take hours; a handful of synthetic pages \
             exercises the identical write stream (chunks, manifest, \
             catalog, reftable, superblock) in seconds, so CI covers \
             EVERY byte offset.")
  in
  let crash_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-at" ]
          ~doc:"Cut the write stream after this many bytes, then recover.")
  in
  let action sweep gc stride size pages crash_at =
    if stride <= 0 then failwith "recover: stride must be positive";
    if size <= 0 then failwith "recover: size must be positive";
    (* [base] holds generation 1 intact; [src2] is generation 2 *)
    let img1, img2, base, src2 =
      match pages with
      | Some n ->
          if n <= 0 then failwith "recover: pages must be positive";
          (* patterned pages, with a deliberate duplicate so intra-image
             dedup is on the swept path; generation 2 churns a quarter
             of them (at least one) *)
          let page i tag =
            let b = Bytes.create 4096 in
            for j = 0 to 4095 do
              Bytes.unsafe_set b j
                (Char.chr ((((i * 131) + (j * 7) + tag) land 0x7f) + 1))
            done;
            b
          in
          let mk tag churned =
            let b = Buffer.create (n * 4096) in
            for i = 0 to n - 1 do
              let dup = if i = n - 1 && n > 1 then 0 else i in
              Buffer.add_bytes b
                (page dup (if churned i then tag else 0))
            done;
            Buffer.to_bytes b
          in
          let img1 = mk 0 (fun _ -> false) in
          let img2 = mk 17 (fun i -> i mod 4 = 1 || n = 1) in
          let image_bytes = max (Bytes.length img1) (Bytes.length img2) in
          let base = Store.create ~sectors:(Store.sectors_for ~image_bytes) () in
          (match Store.commit base (Store.of_bytes img1) with
          | Store.Committed _ -> ()
          | Store.Torn _ -> failwith "recover: baseline commit torn");
          (img1, img2, base, Store.of_bytes img2)
      | None ->
          (* two generations of a real VM, some execution apart, both
             committed from the live VM as the HA supervisor does: the
             second through the dirty-set hint the first left *)
          let setup = build_setup W_dirty ~size ~pv:false in
          let hyp, vm = Images.boot ~name:"durable" setup in
          let source ?since () =
            match Snapshot.source ?since vm with
            | Ok src -> src
            | Error gfn -> failwith (Printf.sprintf "recover: page %Ld unavailable" gfn)
          in
          ignore (Hypervisor.run hyp ~budget:2_000_000L);
          let src1 = source () in
          let base =
            Store.create
              ~sectors:(Store.sectors_for ~image_bytes:(Snapshot.image_bytes vm))
              ()
          in
          let hint =
            match Store.commit base (Snapshot.chunks src1) with
            | Store.Committed { gen; _ } -> Snapshot.committed src1 ~gen
            | Store.Torn _ -> failwith "recover: baseline commit torn"
          in
          let img1 = Snapshot.capture vm in
          ignore (Hypervisor.run hyp ~budget:2_000_000L);
          let src2 = source ~since:hint () in
          (img1, Snapshot.capture vm, base, Snapshot.chunks src2)
    in
    if gc then
      (* the compaction needs a second live generation so dead chunks
         from gen 1 actually exist to reclaim *)
      match Store.commit base src2 with
      | Store.Committed _ -> ()
      | Store.Torn _ -> failwith "recover: second baseline commit torn"
    else ();
    let stream_bytes =
      if gc then Store.gc_bytes base else Store.commit_bytes base src2
    in
    let hint_misses = ref (Store.hint_misses base) in
    let base_gen = Store.generation base in
    let cut = if gc then Store.Cut_gc else Store.Cut_commit src2 in
    let check offset =
      let p = Store.crash_probe base cut ~at:offset in
      hint_misses := !hint_misses + p.Store.hint_misses;
      match p.Store.recovered with
      | None -> `Nothing
      | Some (img, _gen) ->
          if gc then
            (* GC must preserve the newest generation at every cut *)
            if Bytes.equal img img2 then
              if p.Store.generation > base_gen then `New else `Old
            else `Torn
          else if Bytes.equal img img2 then `New
          else if Bytes.equal img img1 then `Old
          else `Torn
    in
    let what = if gc then "gc" else "commit" in
    if sweep then begin
      let failures = ref 0 and old_n = ref 0 and new_n = ref 0 and offsets = ref 0 in
      let off = ref 0 in
      while !off < stream_bytes do
        incr offsets;
        (match check !off with
        | `Old -> incr old_n
        | `New -> incr new_n
        | `Torn ->
            incr failures;
            Printf.printf "TORN recovery at offset %d\n" !off
        | `Nothing ->
            incr failures;
            Printf.printf "NOTHING recoverable at offset %d\n" !off);
        off := !off + stride
      done;
      Printf.printf
        "crash sweep: %d offsets over %d %s bytes -> %d recover previous, %d \
         recover new, %d failures, hint_misses=%d\n"
        !offsets stream_bytes what !old_n !new_n !failures !hint_misses;
      if !failures > 0 then exit 1
    end
    else begin
      let offset =
        match crash_at with Some o -> o | None -> stream_bytes / 2
      in
      let outcome = check offset in
      let verdict =
        match outcome with
        | `Old ->
            if gc then "newest generation (compaction lost, image intact)"
            else "previous generation (commit lost, image intact)"
        | `New ->
            if gc then "newest generation (compaction flipped before the cut)"
            else "new generation (commit landed before the cut)"
        | `Torn -> "TORN HYBRID — crash consistency violated"
        | `Nothing -> "NOTHING — crash consistency violated"
      in
      Printf.printf "power failure at byte %d of %d (%s): recovered %s\n"
        offset stream_bytes what verdict;
      match outcome with `Old | `New -> () | _ -> exit 1
    end
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Verify crash-consistent snapshot-store recovery across power-failure offsets.")
    Term.(const action $ sweep $ gc $ stride $ size $ pages $ crash_at)

(* ---------------- disasm ---------------- *)

let disasm_cmd =
  let workload =
    Arg.(value & opt workload_conv W_hello & info [ "workload"; "w" ] ~doc:"Workload to disassemble.")
  in
  let kernel =
    Arg.(value & flag & info [ "kernel" ] ~doc:"Disassemble the guest kernel instead.")
  in
  let action workload kernel =
    let setup = build_setup workload ~size:16 ~pv:false in
    let img = if kernel then setup.Images.kernel else setup.Images.user in
    List.iter print_endline (Velum_isa.Asm.disassemble img)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a guest image.")
    Term.(const action $ workload $ kernel)

(* ---------------- consolidate ---------------- *)

let consolidate_cmd =
  let cores =
    Arg.(value & opt int 8 & info [ "host-cores" ] ~doc:"Cores per physical host.")
  in
  let ram =
    Arg.(value & opt int 16384 & info [ "host-ram-mb" ] ~doc:"RAM per physical host (MiB).")
  in
  let action cores ram =
    let spec = { Placement.default_host with cores; ram_mb = ram } in
    let fleet = Placement.deck_fleet in
    let plan = Placement.first_fit_decreasing spec fleet in
    let report = Placement.cost_savings spec fleet plan in
    let t = Tablefmt.create [ ("host", Tablefmt.Right); ("VMs", Tablefmt.Left) ] in
    for h = 0 to plan.Placement.hosts_used - 1 do
      let vms =
        List.filter_map
          (fun a ->
            if a.Placement.host_index = h then Some a.Placement.req.Placement.vm_name
            else None)
          plan.Placement.assignments
      in
      Tablefmt.add_row t [ string_of_int h; String.concat " " vms ]
    done;
    Tablefmt.print t;
    Printf.printf "%d VMs on %d hosts (%.1f VMs/host); %.0f EUR/year saved (%.0f per displaced server)\n"
      (List.length fleet) plan.Placement.hosts_used
      (Placement.consolidation_ratio plan) report.Placement.annual_euro_saved
      report.Placement.euro_saved_per_displaced_server
  in
  Cmd.v
    (Cmd.info "consolidate" ~doc:"Plan a 50-VM consolidation with FFD packing.")
    Term.(const action $ cores $ ram)

(* ---------------- cluster ---------------- *)

let cluster_cmd =
  let hosts =
    Arg.(value & opt int 16 & info [ "hosts" ] ~doc:"Fleet size in hosts.")
  in
  let vms =
    Arg.(
      value & opt int 0
      & info [ "vms" ]
          ~doc:"Initial workload size; 0 = two VMs per host.")
  in
  let burst =
    Arg.(
      value & opt int 0
      & info [ "burst" ]
          ~doc:
            "Overload burst: this many extra VMs arrive together at \
             --burst-round, exercising shed/balloon degradation.")
  in
  let burst_round =
    Arg.(
      value & opt int 6
      & info [ "burst-round" ] ~doc:"Arrival round of the overload burst.")
  in
  let quantum =
    Arg.(
      value & opt int64 50_000L
      & info [ "quantum" ] ~doc:"Cycles each host runs between round barriers.")
  in
  let rounds =
    Arg.(value & opt int 24 & info [ "rounds" ] ~doc:"Barrier rounds to run.")
  in
  let seed =
    Arg.(value & opt int64 0L & info [ "seed" ] ~doc:"Fleet seed.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:
            "Worker domains.  The printed report is byte-identical for \
             every value.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 4
      & info [ "checkpoint-every" ]
          ~doc:"Rounds between durable per-VM checkpoints (the evacuation source).")
  in
  let kills =
    Arg.(
      value
      & opt_all (pair int int) []
      & info [ "kill" ] ~docv:"ROUND,HOST"
          ~doc:
            "Kill host HOST at round ROUND (repeatable).  The detector \
             declares it dead, fences it, and evacuates its VMs from \
             their last checkpoint onto survivors.")
  in
  let drains =
    Arg.(
      value
      & opt_all (pair int int) []
      & info [ "drain" ] ~docv:"ROUND,HOST"
          ~doc:
            "Rolling maintenance on host HOST starting at round ROUND \
             (repeatable): cordon, live-migrate every VM off, reboot, \
             refill.")
  in
  let action hosts vms burst burst_round quantum rounds seed domains
      checkpoint_every kills drains faults knobs =
    let module C = Velum_cluster.Control in
    let cfg =
      C.chaos ~quantum ~rounds ~seed ?faults ~knobs ~checkpoint_every ~kills ~drains
        ~vms ~burst ~burst_round ~hosts ()
    in
    let res = C.run ~domains cfg in
    print_string res.C.report;
    Option.iter print_faults faults;
    (* stderr: stdout is the report, which must not change with host memory use *)
    let blk = Store.device (C.store res.C.control) in
    Printf.eprintf "host: store resident_bytes=%d capacity_bytes=%d\n"
      (Blockdev.resident_bytes blk) (Blockdev.capacity_bytes blk);
    Printf.eprintf "host: store digest=%016Lx\n" (Blockdev.resident_digest blk);
    let mems =
      Array.map
        (fun n -> (Hypervisor.host n.Velum_cluster.Parallel.hyp).Host.mem)
        (C.fleet res.C.control).Velum_cluster.Parallel.nodes
    in
    let sum f = Array.fold_left (fun acc m -> acc + f m) 0 mems in
    Printf.eprintf "host: ram resident_bytes=%d capacity_bytes=%d\n"
      (sum Velum_machine.Phys_mem.resident_bytes) (sum Velum_machine.Phys_mem.size_bytes)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run the self-healing cluster control plane: FFD admission with \
          anti-affinity and headroom, heartbeat failure detection, \
          fence-then-evacuate from durable checkpoints, rolling drain \
          maintenance, and priority-class overload shedding — \
          byte-deterministic at any --domains.")
    Term.(
      const action $ hosts $ vms $ burst $ burst_round $ quantum $ rounds $ seed
      $ domains $ checkpoint_every $ kills $ drains $ faults_arg $ ha_knobs)

(* ---------------- net ---------------- *)

(* A fleet of Fabric cells.  The printed fleet report and per-host
   digest are byte-identical at any --domains, so CI diffs the output
   across domain counts (clean and under --faults). *)

let net_cmd =
  let hosts =
    Arg.(value & opt int 2 & info [ "hosts" ] ~doc:"Fleet cells (one switch + LB + backends + clients each).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:"Worker domains.  Output is byte-identical for every value.")
  in
  let backends =
    Arg.(value & opt int 2 & info [ "backends" ] ~doc:"Backend VMs per cell.")
  in
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~doc:"Client VMs per cell.")
  in
  let requests =
    Arg.(value & opt int 16 & info [ "requests" ] ~doc:"Requests per client.")
  in
  let batch =
    Arg.(
      value & opt int 4
      & info [ "batch" ]
          ~doc:"Requests staged per doorbell (one VM exit per batch).")
  in
  let service =
    Arg.(value & opt int 150 & info [ "service" ] ~doc:"Backend service time in spin iterations.")
  in
  let quantum =
    Arg.(
      value & opt int64 400_000L
      & info [ "quantum" ] ~doc:"Cycles each host runs between round barriers.")
  in
  let rounds =
    Arg.(value & opt int 16 & info [ "rounds" ] ~doc:"Maximum barrier rounds.")
  in
  let seed = Arg.(value & opt int64 23L & info [ "seed" ] ~doc:"Fleet seed.") in
  let action hosts domains backends clients requests batch service quantum
      rounds seed faults =
    let module Fabric = Velum_cluster.Fabric in
    let r =
      Fabric.run ?faults ~domains
        { Fabric.backends; clients; requests; batch; service }
        ~hosts ~quantum ~rounds ~seed
    in
    print_string r.Fabric.report;
    print_string r.Fabric.digest;
    let t = r.Fabric.fleet and l = Fabric.tail r.Fabric.latencies in
    Printf.printf "fabric: replies=%d p50=%d p95=%d p99=%d drops=%d frames/kick=%s\n"
      l.Fabric.replies l.Fabric.p50 l.Fabric.p95 l.Fabric.p99
      (t.Fabric.sw_drops + t.Fabric.wire_dropped)
      (Fabric.frames_per_kick t)
    (* the base fault plan only seeds the per-link derived plans, so its
       own counters stay empty — nothing useful to print here *)
  in
  Cmd.v
    (Cmd.info "net"
       ~doc:
         "Run a switched virtio-net fleet (LB fan-out over backends under \
          open-loop clients) and print per-host latency/counter digests — \
          byte-deterministic at any --domains.")
    Term.(
      const action $ hosts $ domains $ backends $ clients $ requests $ batch
      $ service $ quantum $ rounds $ seed $ faults_arg)

(* ---------------- info ---------------- *)

let info_cmd =
  let action () =
    let c = Velum_machine.Cost_model.default in
    Printf.printf "Velum: a trap-and-emulate VMM for the VR64 simulated machine\n\n";
    Printf.printf "architecture: %d-bit, %d registers, %d-level paging, %d-byte pages\n"
      Velum_isa.Arch.xlen Velum_isa.Arch.num_regs Velum_isa.Arch.pt_levels
      Velum_isa.Arch.page_size;
    Printf.printf "cost model (cycles): vmexit %d, hypercall %d, trap %d, pt-ref %d\n"
      c.Velum_machine.Cost_model.vmexit c.Velum_machine.Cost_model.hypercall
      c.Velum_machine.Cost_model.trap_enter c.Velum_machine.Cost_model.pt_ref;
    Printf.printf "walk refs: 1-D %d, 2-D %d\n" Velum_machine.Cost_model.walk_refs_1d
      Velum_machine.Cost_model.walk_refs_2d;
    Printf.printf "\nmonitor exit counters (per VM):\n  %s\n"
      (String.concat " "
         (List.map Monitor.exit_kind_name Monitor.all_exit_kinds));
    Printf.printf
      "engine/TLB gauges (printed by 'run', set/dotted names):\n\
      \  engine.cache.{entries,hits,misses,invalidations,evictions}\n\
      \  engine.trace.{built,follows,severed,side_exits}\n\
      \  tlb.{hits,misses,evictions,flushes}  dtlb.{hits,misses,fills}\n\
      \  net.{sent,received,tx_dropped,rx_dropped,rx_overflow,rx_queued,kicks}\n";
    Printf.printf "fault-injection sites (--faults SPEC):\n  %s\n"
      (String.concat " " (List.map Fault.site_name Fault.all_sites));
    Printf.printf
      "recovery: link frames carry seq + FNV-1a checksum (NACK/timeout \
       retransmit,\n\
      \  exponential backoff, bounded retries); migration aborts and rolls \
       back on\n\
      \  exhaustion; replication commits checkpoints atomically; guest block \
       drivers\n\
      \  retry 3 times; the hypervisor watchdog counts under 'watchdog'.\n\
       high availability: the snapshot store is content-addressed — \
       images are\n\
      \  chunked, deduplicated across generations and VMs, and refcounted; \
       GC\n\
      \  compacts live chunks into the idle log space and flips \
       (store.gc cuts\n\
      \  the compaction, store.ref rots the refcount table); commits land \
       via a\n\
      \  two-slot superblock flip, so a cut at any byte offset of a delta \
       commit\n\
      \  or a compaction recovers the previous or new image, never a hybrid \
       and\n\
      \  never a dangling chunk — see 'velum recover --sweep [--gc]'; the \
       HA supervisor ('run --ha')\n\
      \  restores wedged VMs from the last checkpoint with exponential \
       backoff and a\n\
      \  crash-loop budget; missed heartbeats drive automatic failover with \
       generation\n\
      \  fencing against split-brain.\n\
       cluster: 'velum cluster' runs the fleet control plane — FFD \
       admission with\n\
      \  anti-affinity + headroom, heartbeat failure detection \
       (cluster.hb), fence-\n\
      \  then-evacuate from durable checkpoints (cluster.evac), rolling \
       drains\n\
      \  (cluster.drain), priority shedding under overload \
       (cluster.shed/degraded\n\
      \  events); byte-deterministic at any --domains.\n"
  in
  Cmd.v (Cmd.info "info" ~doc:"Print architecture and cost-model summary.")
    Term.(const action $ const ())

let () =
  let doc = "Velum hypervisor playground" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "velum" ~version:"1.0.0" ~doc)
          [
            run_cmd; cluster_cmd; net_cmd; trace_cmd; migrate_cmd;
            replicate_cmd; snapshot_cmd; recover_cmd; disasm_cmd;
            consolidate_cmd; info_cmd;
          ]))
