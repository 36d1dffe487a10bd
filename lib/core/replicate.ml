open Velum_machine
open Velum_devices

module Fault = Velum_util.Fault

type session = {
  primary : Hypervisor.t;
  backup : Hypervisor.t;
  vm : Vm.t;
  twin : Vm.t;
  link : Link.t;
  faults : Fault.t;
  mutable epochs_completed : int;
  mutable pages_sent : int;
  initial_pages : int;
  initial_sync_cycles : int64;
  mutable bytes_sent : int;
  mutable paused_cycles : int64;
  mutable run_cycles : int64;
  mutable retransmits : int;
  mutable link_failed : bool;
  mutable finished : bool;
  mutable failed_over : Vm.t option; (* failover is idempotent *)
}

type stats = {
  epochs_completed : int;
  pages_sent : int;
  initial_pages : int;
  initial_sync_cycles : int64;
  bytes_sent : int;
  paused_cycles : int64;
  run_cycles : int64;
  retransmits : int;
  link_failed : bool;
}

type epoch_outcome = Committed | Link_failed

(* Load the primary's state into the backup twin, which must not run
   until failover. *)
let sync ~backup ~twin state =
  Vm_state.load backup twin state;
  Array.iter Vcpu.block twin.Vm.vcpus

let start ?faults ~primary ~backup ~vm ~link () =
  let faults = match faults with Some f -> f | None -> Link.faults link in
  let state = Vm_state.save vm in
  let twin = Vm_state.create_vm backup ~suffix:"-backup" ~populate:false state in
  (* Initial full synchronization with the guest paused.  It is assumed
     reliable, so it ships on an ideal wire whatever the fault plan, in
     descending gfn order. *)
  let gfns = List.rev (Migrate.present_gfns vm) in
  let w = Migrate.Wire.create ~link ~faults:(Fault.none ()) ~compress:false () in
  Migrate.Wire.ship w ~vm ~vcpus:true gfns;
  Migrate.apply ~vm ~twin gfns;
  sync ~backup ~twin state;
  Vm.start_dirty_logging vm;
  {
    primary;
    backup;
    vm;
    twin;
    link;
    faults;
    epochs_completed = 0;
    pages_sent = 0;
    initial_pages = List.length gfns;
    initial_sync_cycles = Migrate.Wire.clock w;
    bytes_sent = Migrate.Wire.bytes_sent w;
    paused_cycles = 0L;
    run_cycles = 0L;
    retransmits = 0;
    link_failed = false;
    finished = false;
    failed_over = None;
  }

(* Session time drives cycle-windowed faults (a "link dies at cycle C"
   plan), so a checkpoint started after C reliably fails. *)
let elapsed (s : session) =
  Int64.add s.initial_sync_cycles (Int64.add s.run_cycles s.paused_cycles)

let epoch (s : session) ~run_cycles =
  if s.finished then failwith "Replicate.epoch: session finished";
  if s.link_failed then Link_failed (* a dead link stays dead *)
  else begin
    Hypervisor.run_vm s.primary s.vm ~cycles:run_cycles;
    s.run_cycles <- Int64.add s.run_cycles run_cycles;
    let dirty = Vm.collect_dirty s.vm ~clear:false in
    Vm.start_dirty_logging s.vm (* re-arm write protection, clear bitmap *);
    (* Checkpoint commit must be atomic: ship every page plus the vCPU
       record first (on a lossy link dropped acks are retransmitted; the
       backup dedups by sequence number and re-acks) and only then apply
       to the twin.  If retries exhaust, or the backup host is short of
       frames, nothing is applied — the backup stays at the last
       completed checkpoint. *)
    let now = elapsed s in
    let w = Migrate.Wire.create ~now ~link:s.link ~faults:s.faults ~compress:false () in
    let outcome =
      try
        Migrate.Wire.ship w ~vm:s.vm ~vcpus:true dirty;
        Migrate.apply ~vm:s.vm ~twin:s.twin dirty;
        sync ~backup:s.backup ~twin:s.twin (Vm_state.save s.vm);
        Committed
      with Migrate.Abort_migration _ -> Link_failed
    in
    s.retransmits <- s.retransmits + Migrate.Wire.retransmits w;
    s.bytes_sent <- s.bytes_sent + Migrate.Wire.bytes_sent w;
    s.paused_cycles <- Int64.add s.paused_cycles (Int64.sub (Migrate.Wire.clock w) now);
    (match outcome with
    | Committed ->
        s.pages_sent <- s.pages_sent + List.length dirty;
        s.epochs_completed <- s.epochs_completed + 1
    | Link_failed -> s.link_failed <- true);
    outcome
  end

let stats (s : session) =
  {
    epochs_completed = s.epochs_completed;
    pages_sent = s.pages_sent;
    initial_pages = s.initial_pages;
    initial_sync_cycles = s.initial_sync_cycles;
    bytes_sent = s.bytes_sent;
    paused_cycles = s.paused_cycles;
    run_cycles = s.run_cycles;
    retransmits = s.retransmits;
    link_failed = s.link_failed;
  }

(* Idempotent: HA control planes can race a heartbeat-driven failover
   against an explicit one, and the loser must not blow the whole
   recovery path up with a [Failure] — the second caller simply gets the
   twin the first activated. *)
let failover ?(fence_primary = true) (s : session) =
  match s.failed_over with
  | Some twin -> twin
  | None ->
      s.finished <- true;
      if fence_primary then begin
        Vm.stop_dirty_logging s.vm;
        Hypervisor.remove_vm s.primary s.vm
      end;
      (* unblock the twin at the last checkpoint *)
      Array.iter
        (fun (v : Vcpu.t) ->
          if not v.Vcpu.state.Cpu.halted then begin
            v.Vcpu.runstate <- Vcpu.Runnable;
            (Hypervisor.sched s.backup).Scheduler.wake v
          end
          else v.Vcpu.runstate <- Vcpu.Halted)
        s.twin.Vm.vcpus;
      Monitor.bump s.twin.Vm.monitor Monitor.E_ha_failover;
      s.failed_over <- Some s.twin;
      s.twin

let failed_over (s : session) = s.failed_over

let protect ?faults ~primary ~backup ~vm ~link ~epoch_cycles ~epochs () =
  let s = start ?faults ~primary ~backup ~vm ~link () in
  (try
     for _ = 1 to epochs do
       match epoch s ~run_cycles:epoch_cycles with
       | Committed -> ()
       | Link_failed -> raise Exit
     done
   with Exit -> ());
  let st = stats s in
  let twin = failover s in
  (twin, st)
