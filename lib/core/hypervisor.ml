open Velum_isa
open Velum_machine
open Velum_devices

let log_src = Logs.Src.create "velum.hypervisor" ~doc:"VM lifecycle and scheduling"

module Log = (val Logs.src_log log_src)

type pcpu = { mutable pclock : int64 }

type watchdog_policy = Wd_kill | Wd_notify | Wd_restart

type wd_mark = { mutable wd_instret : int64; mutable wd_window_start : int64 }

type watchdog = {
  wd_budget : int64;
  wd_policy : watchdog_policy;
  wd_marks : wd_mark Velum_util.Keytbl.Int.t; (* vm id -> progress mark *)
  mutable wd_fired : int;
}

type t = {
  ctx : Host_ctx.t; (* all per-host ambient state lives here *)
  mutable vms : Vm.t list;
  pcpus : pcpu array;
  mutable clock : int64; (* makespan: max over pcpu clocks *)
  mutable next_vm_id : int;
  mutable idle_cycles : int64;
  mutable sched_decisions : int;
  mutable watchdog : watchdog option;
  mutable restart_handler : (Vm.t -> unit) option;
  (* Ambient infrastructure that is not a VM device — a software switch
     between this host's VMs, for instance.  Tickers run at every wake
     point; event sources feed the idle-time search so a pending frame
     arrival wakes the host instead of deadlocking it. *)
  mutable tickers : (int64 -> unit) list;
  mutable event_sources : (unit -> int64 option) list;
}

let create ?ctx ?host ?sched ?(pcpus = 1) () =
  if pcpus <= 0 then invalid_arg "Hypervisor.create: pcpus must be positive";
  let ctx =
    match ctx with
    | Some c ->
        if Option.is_some host || Option.is_some sched then
          invalid_arg "Hypervisor.create: pass either ~ctx or ~host/~sched";
        c
    | None -> Host_ctx.create ?host ?sched ()
  in
  {
    ctx;
    vms = [];
    pcpus = Array.init pcpus (fun _ -> { pclock = 0L });
    clock = 0L;
    next_vm_id = 0;
    idle_cycles = 0L;
    sched_decisions = 0;
    watchdog = None;
    restart_handler = None;
    tickers = [];
    event_sources = [];
  }

let ctx t = t.ctx
let host t = t.ctx.Host_ctx.host
let sched t = t.ctx.Host_ctx.sched

let set_watchdog t ~budget ~policy =
  if Int64.compare budget 0L <= 0 then
    invalid_arg "Hypervisor.set_watchdog: budget must be positive";
  t.watchdog <-
    Some
      {
        wd_budget = budget;
        wd_policy = policy;
        wd_marks = Velum_util.Keytbl.Int.create 7;
        wd_fired = 0;
      }

let watchdog_fired t = match t.watchdog with None -> 0 | Some w -> w.wd_fired
let set_restart_handler t f = t.restart_handler <- Some f
let restart_handler t = t.restart_handler

(* Registration order is preserved (ticks run oldest-first) so a fixed
   wiring order gives a fixed tick order — the fleet's byte-determinism
   depends on it. *)
let add_ticker t f = t.tickers <- t.tickers @ [ f ]
let add_event_source t f = t.event_sources <- t.event_sources @ [ f ]

let now t = t.clock

let refresh_makespan t =
  Array.iter
    (fun p -> if Int64.unsigned_compare p.pclock t.clock > 0 then t.clock <- p.pclock)
    t.pcpus

let min_pcpu t =
  let best = ref t.pcpus.(0) in
  Array.iter
    (fun p -> if Int64.unsigned_compare p.pclock !best.pclock < 0 then best := p)
    t.pcpus;
  !best

(* The closest pcpu clock strictly ahead of [p] — an idle pcpu never
   runs ahead of its peers, so wakeups peers trigger stay visible. *)
let next_peer_clock t p =
  Array.fold_left
    (fun acc q ->
      if Int64.unsigned_compare q.pclock p.pclock > 0 then
        match acc with
        | None -> Some q.pclock
        | Some a -> if Int64.unsigned_compare q.pclock a < 0 then Some q.pclock else acc
      else acc)
    None t.pcpus

(* Fast-forward every pcpu to [to_] charging idle time — models a pause
   whose cost is known up front (checkpoint commits, restart backoff). *)
let advance_idle t ~to_ =
  Array.iter
    (fun p ->
      if Int64.unsigned_compare to_ p.pclock > 0 then begin
        t.idle_cycles <- Int64.add t.idle_cycles (Int64.sub to_ p.pclock);
        p.pclock <- to_
      end)
    t.pcpus;
  refresh_makespan t

let create_vm t ~name ~mem_frames ?(vcpu_count = 1) ?(paging = Vm.Nested_paging)
    ?(pv = Vm.no_pv) ?(weight = 256) ?(populate = true) ?tlb_size ?exec_mode ?engine
    ~entry () =
  let id = t.next_vm_id in
  t.next_vm_id <- id + 1;
  let vm =
    Vm.create ~host:(host t) ~id ~name ~mem_frames ~vcpu_count ~paging ~pv ~populate
      ?tlb_size ?exec_mode ?engine ~entry ()
  in
  vm.Vm.trace <- t.ctx.Host_ctx.trace;
  Array.iter
    (fun vcpu ->
      vcpu.Vcpu.weight <- weight;
      (sched t).Scheduler.enqueue vcpu)
    vm.Vm.vcpus;
  t.vms <- t.vms @ [ vm ];
  Log.info (fun m ->
      m "created %s (%d frames, %d vcpus)" vm.Vm.name mem_frames vcpu_count);
  vm

let remove_vm t vm =
  Log.info (fun m -> m "destroying %s" vm.Vm.name);
  Array.iter (fun vcpu -> (sched t).Scheduler.remove vcpu) vm.Vm.vcpus;
  t.vms <- List.filter (fun v -> not (v == vm)) t.vms;
  Vm.destroy vm

let find_vm t ~vm_id = List.find_opt (fun vm -> vm.Vm.id = vm_id) t.vms

(* ---- tracing ---- *)

let trace t = t.ctx.Host_ctx.trace

(* Attach a tracing sink: existing and future VMs share it, and the
   scheduler's notify field routes policy decisions into it.  Recording
   is host-side only, so a traced run burns exactly the same simulated
   cycles as an untraced one. *)
let set_trace t tr =
  Host_ctx.set_trace t.ctx tr;
  List.iter (fun vm -> vm.Vm.trace <- Some tr) t.vms;
  (sched t).Scheduler.notify <-
    Some
      (fun vcpu note ->
        let ev =
          match note with
          | Scheduler.N_wake { boosted } -> Trace.Sched_wake { boosted }
          | Scheduler.N_refill -> Trace.Sched_refill
          | Scheduler.N_clamp -> Trace.Sched_clamp
        in
        match vcpu with
        | Some v -> (
            match find_vm t ~vm_id:v.Vcpu.vm_id with
            | Some vm -> Trace.record tr ~vm_id:vm.Vm.id ~name:vm.Vm.name ~at:t.clock ev
            | None -> ())
        | None -> Trace.record tr ~vm_id:(-1) ~name:"scheduler" ~at:t.clock ev)

let vcpu_index vm vcpu =
  let found = ref (-1) in
  Array.iteri (fun i v -> if v == vcpu then found := i) vm.Vm.vcpus;
  if !found < 0 then raise Not_found;
  !found

(* ---- vCPU execution ---- *)

type exec_outcome = Slice_done | Yielded | Blocked | Halted_vcpu

(* Run one vCPU for up to [slice] cycles starting at [base], servicing
   exits as they occur.  Returns cycles consumed (guest + VMM). *)
let exec_vcpu vm ~vcpu_idx ~base ~slice =
  let vcpu = vm.Vm.vcpus.(vcpu_idx) in
  let state = vcpu.Vcpu.state in
  vcpu.Vcpu.runstate <- Vcpu.Running;
  let used = ref 0 in
  let now_fn () = Int64.add base (Int64.of_int !used) in
  let charge_vmm_delta before =
    let delta = Int64.to_int (Int64.sub vcpu.Vcpu.vmm_cycles before) in
    used := !used + delta
  in
  let ctx = Vm.cpu_ctx vm ~vcpu_idx ~now:now_fn in
  let inject () =
    let before = vcpu.Vcpu.vmm_cycles in
    let injected = Emulate.maybe_inject_irq vm ~vcpu_idx ~now:(now_fn ()) in
    if injected then charge_vmm_delta before
  in
  inject ();
  let outcome = ref None in
  while !outcome = None do
    if !used >= slice then outcome := Some Slice_done
    else begin
      (* Bound the chunk by the virtual timer so expiry is noticed
         promptly even inside a long slice. *)
      let remaining = slice - !used in
      let chunk =
        let cmp = Cpu.get_csr state Arch.Stimecmp in
        if cmp = 0L then remaining
        else
          let until = Int64.sub cmp (now_fn ()) in
          if until <= 0L then remaining
          else min remaining (max 200 (Int64.to_int (min until 1_000_000L)))
      in
      let consumed, stop = vm.Vm.engine.Engine.step_n state ctx ~fuel:chunk in
      used := !used + consumed;
      vcpu.Vcpu.guest_cycles <- Int64.add vcpu.Vcpu.guest_cycles (Int64.of_int consumed);
      (match vm.Vm.trace with
      | Some tr when consumed > 0 ->
          Trace.add_guest_cycles tr ~vm_id:vm.Vm.id ~name:vm.Vm.name consumed
      | _ -> ());
      (* Surface superblock-trace compilation in the event ring: the
         promotion happens deep inside the engine, so poll the cache
         counter across the chunk and record the delta. *)
      (match vm.Vm.trace with
      | Some tr ->
          let built = Vm.traces_built vm in
          if built > vm.Vm.traces_seen then begin
            Trace.record tr ~vm_id:vm.Vm.id ~name:vm.Vm.name ~at:(now_fn ())
              (Trace.Trace_formed { count = built - vm.Vm.traces_seen });
            vm.Vm.traces_seen <- built
          end
      | None -> ());
      match stop with
      | Cpu.Budget -> inject ()
      | Cpu.Halted ->
          vcpu.Vcpu.runstate <- Vcpu.Halted;
          outcome := Some Halted_vcpu
      | Cpu.Waiting ->
          Vcpu.block vcpu;
          outcome := Some Blocked
      | Cpu.Exit e -> (
          let before = vcpu.Vcpu.vmm_cycles in
          let action = Emulate.handle_exit vm ~vcpu_idx ~now:(now_fn ()) e in
          charge_vmm_delta before;
          match action with
          | Emulate.Resume -> inject ()
          | Emulate.Yielded -> outcome := Some Yielded
          | Emulate.Became_blocked -> outcome := Some Blocked
          | Emulate.Vcpu_halted -> outcome := Some Halted_vcpu)
    end
  done;
  Bus.tick vm.Vm.bus (now_fn ());
  (if vcpu.Vcpu.runstate = Vcpu.Running then vcpu.Vcpu.runstate <- Vcpu.Runnable);
  let result = match !outcome with Some o -> o | None -> assert false in
  (!used, result)

(* ---- wake and idle machinery ---- *)

let wake_sleepers t ~now =
  List.iter (fun f -> f now) t.tickers;
  List.iter
    (fun vm ->
      Bus.tick vm.Vm.bus now;
      Array.iteri
        (fun _i vcpu ->
          if vcpu.Vcpu.runstate = Vcpu.Blocked && Emulate.irq_deliverable vm vcpu ~now
          then begin
            Vcpu.wake vcpu ~boost:true;
            (sched t).Scheduler.wake vcpu
          end)
        vm.Vm.vcpus)
    t.vms

let next_event t =
  let earliest = ref None in
  let consider when_ =
    match !earliest with
    | None -> earliest := Some when_
    | Some e -> if Int64.unsigned_compare when_ e < 0 then earliest := Some when_
  in
  List.iter
    (fun vm ->
      Array.iter
        (fun vcpu ->
          if vcpu.Vcpu.runstate = Vcpu.Blocked then begin
            let cmp = Cpu.get_csr vcpu.Vcpu.state Arch.Stimecmp in
            if cmp <> 0L then consider cmp
          end)
        vm.Vm.vcpus;
      Option.iter consider (Blockdev.next_completion vm.Vm.blk);
      Option.iter consider (Virtio_blk.next_completion vm.Vm.vblk);
      Option.iter (fun n -> Option.iter consider (Nic.next_arrival n)) vm.Vm.nic;
      Option.iter (fun v -> Option.iter consider (Virtio_net.next_arrival v)) vm.Vm.vnet)
    t.vms;
  List.iter (fun src -> Option.iter consider (src ())) t.event_sources;
  !earliest

let all_halted t = t.vms <> [] && List.for_all Vm.halted t.vms

(* ---- progress watchdog ---- *)

(* Fire when a VM retires no instructions for a whole cycle budget.
   [Wd_notify] counts the event and restarts the window; [Wd_kill] halts
   the VM's vCPUs (the VM stays registered so its state can be examined);
   [Wd_restart] hands the VM to the registered restart handler (an HA
   supervisor) — or behaves like [Wd_kill] when none is attached.  A
   no-op unless [set_watchdog] was called. *)
let check_watchdog t =
  match t.watchdog with
  | None -> ()
  | Some wd ->
      List.iter
        (fun vm ->
          if not (Vm.halted vm) then begin
            let instret = Vm.instret vm in
            match Velum_util.Keytbl.Int.find_opt wd.wd_marks vm.Vm.id with
            | None ->
                Velum_util.Keytbl.Int.replace wd.wd_marks vm.Vm.id
                  { wd_instret = instret; wd_window_start = t.clock }
            | Some m ->
                if Int64.compare instret m.wd_instret <> 0 then begin
                  m.wd_instret <- instret;
                  m.wd_window_start <- t.clock
                end
                else if
                  Int64.unsigned_compare (Int64.sub t.clock m.wd_window_start)
                    wd.wd_budget
                  >= 0
                then begin
                  wd.wd_fired <- wd.wd_fired + 1;
                  Monitor.bump vm.Vm.monitor Monitor.E_watchdog;
                  (match vm.Vm.trace with
                  | Some tr ->
                      Trace.record tr ~vm_id:vm.Vm.id ~name:vm.Vm.name ~at:t.clock
                        (Trace.Exit
                           { kind = Monitor.E_watchdog; cost = 0; detail = 0L })
                  | None -> ());
                  m.wd_window_start <- t.clock;
                  let kill () =
                    Array.iter
                      (fun vcpu ->
                        vcpu.Vcpu.runstate <- Vcpu.Halted;
                        (sched t).Scheduler.remove vcpu)
                      vm.Vm.vcpus
                  in
                  match wd.wd_policy with
                  | Wd_notify ->
                      Log.warn (fun msg ->
                          msg "watchdog: %s made no progress for %Ld cycles"
                            vm.Vm.name wd.wd_budget)
                  | Wd_kill ->
                      Log.warn (fun msg ->
                          msg "watchdog: killing stalled %s" vm.Vm.name);
                      kill ()
                  | Wd_restart -> (
                      match t.restart_handler with
                      | Some handler ->
                          Log.warn (fun msg ->
                              msg "watchdog: restarting stalled %s" vm.Vm.name);
                          (* the handler replaces the VM (new id), so the
                             stale progress mark must not linger *)
                          Velum_util.Keytbl.Int.remove wd.wd_marks vm.Vm.id;
                          handler vm
                      | None ->
                          Log.warn (fun msg ->
                              msg "watchdog: killing stalled %s (no restart handler)"
                                vm.Vm.name);
                          kill ())
                end
          end)
        t.vms

(* ---- main run loop ---- *)

type outcome = All_halted | Until_satisfied | Out_of_budget | Idle_deadlock

let dispatch_on t p (vcpu : Vcpu.t) slice =
  t.sched_decisions <- t.sched_decisions + 1;
  match find_vm t ~vm_id:vcpu.Vcpu.vm_id with
  | None -> () (* VM was removed; drop the stale pick *)
  | Some vm ->
      let vcpu_idx = vcpu_index vm vcpu in
      (* a vCPU's virtual time never runs backwards across pcpus *)
      if Int64.unsigned_compare vcpu.Vcpu.last_scheduled p.pclock > 0 then begin
        t.idle_cycles <-
          Int64.add t.idle_cycles (Int64.sub vcpu.Vcpu.last_scheduled p.pclock);
        p.pclock <- vcpu.Vcpu.last_scheduled
      end;
      p.pclock <-
        Int64.add p.pclock (Int64.of_int (host t).Host.cost.Cost_model.ctx_switch);
      let dispatched_at = p.pclock in
      let used, outcome = exec_vcpu vm ~vcpu_idx ~base:p.pclock ~slice in
      p.pclock <- Int64.add p.pclock (Int64.of_int used);
      vcpu.Vcpu.last_scheduled <- p.pclock;
      (sched t).Scheduler.charge vcpu ~used ~now:p.pclock;
      (match trace t with
      | Some tr ->
          let stop =
            match outcome with
            | Slice_done -> Trace.S_slice
            | Yielded -> Trace.S_yield
            | Blocked -> Trace.S_block
            | Halted_vcpu -> Trace.S_halt
          in
          Trace.record tr ~vm_id:vm.Vm.id ~name:vm.Vm.name ~at:dispatched_at
            (Trace.Dispatch { vcpu = vcpu_idx; slice; used; stop })
      | None -> ());
      (match outcome with
      | Slice_done | Yielded -> (sched t).Scheduler.requeue vcpu
      | Blocked -> ()
      | Halted_vcpu -> (sched t).Scheduler.remove vcpu);
      refresh_makespan t

let run ?(budget = 2_000_000_000L) ?until t =
  let deadline = Int64.add t.clock budget in
  let stalls = ref 0 in
  let max_stalls = (2 * Array.length t.pcpus) + 2 in
  let rec loop () =
    if (match until with Some f -> f t | None -> false) then Until_satisfied
    else if all_halted t then All_halted
    else if Int64.unsigned_compare t.clock deadline >= 0 then Out_of_budget
    else begin
      check_watchdog t;
      let p = min_pcpu t in
      wake_sleepers t ~now:p.pclock;
      match (sched t).Scheduler.pick ~now:p.pclock with
      | Some (vcpu, slice) ->
          stalls := 0;
          dispatch_on t p vcpu slice;
          loop ()
      | None -> (
          (* Idle: catch up to the nearest peer clock, the next device/
             timer event, or a scheduler release (CPU caps), whichever
             comes first. *)
          let min_opt a b =
            match (a, b) with
            | Some a, Some b -> Some (if Int64.unsigned_compare a b < 0 then a else b)
            | Some a, None -> Some a
            | None, b -> b
          in
          let target =
            min_opt
              (min_opt (next_peer_clock t p) (next_event t))
              ((sched t).Scheduler.next_release ~now:p.pclock)
          in
          match target with
          | Some when_ when Int64.unsigned_compare when_ p.pclock > 0 ->
              stalls := 0;
              t.idle_cycles <- Int64.add t.idle_cycles (Int64.sub when_ p.pclock);
              p.pclock <- when_;
              refresh_makespan t;
              loop ()
          | Some _ | None ->
              incr stalls;
              if !stalls > max_stalls then Idle_deadlock
              else begin
                (* Give devices one more tick; a wake may become due. *)
                List.iter (fun vm -> Bus.tick vm.Vm.bus p.pclock) t.vms;
                loop ()
              end)
    end
  in
  loop ()

(* ---- single-VM execution (live migration, replication) ---- *)

let run_vm t vm ~cycles =
  let p = t.pcpus.(0) in
  let deadline = Int64.add p.pclock cycles in
  let next = ref 0 in
  let rec loop () =
    if Int64.unsigned_compare p.pclock deadline >= 0 then ()
    else begin
      wake_sleepers t ~now:p.pclock;
      let n = Array.length vm.Vm.vcpus in
      let runnable =
        List.filter
          (fun i -> Vcpu.is_runnable vm.Vm.vcpus.(i))
          (List.init n (fun i -> (i + !next) mod n))
      in
      match runnable with
      | [] -> (
          match next_event t with
          | Some when_
            when Int64.unsigned_compare when_ p.pclock > 0
                 && Int64.unsigned_compare when_ deadline <= 0 ->
              t.idle_cycles <- Int64.add t.idle_cycles (Int64.sub when_ p.pclock);
              p.pclock <- when_;
              loop ()
          | _ ->
              t.idle_cycles <- Int64.add t.idle_cycles (Int64.sub deadline p.pclock);
              p.pclock <- deadline)
      | i :: _ ->
          next := i + 1;
          let remaining = Int64.to_int (min (Int64.sub deadline p.pclock) 1_000_000L) in
          let slice = min Scheduler.default_slice (max 1 remaining) in
          let used, _outcome = exec_vcpu vm ~vcpu_idx:i ~base:p.pclock ~slice in
          p.pclock <- Int64.add p.pclock (Int64.of_int used);
          loop ()
    end
  in
  (if not (Vm.halted vm) then loop ()
   else begin
     t.idle_cycles <- Int64.add t.idle_cycles (Int64.sub deadline p.pclock);
     p.pclock <- deadline
   end);
  refresh_makespan t

(* ---- accounting ---- *)

let guest_cycles t = List.fold_left (fun acc vm -> Int64.add acc (Vm.guest_cycles vm)) 0L t.vms
let vmm_cycles t = List.fold_left (fun acc vm -> Int64.add acc (Vm.vmm_cycles vm)) 0L t.vms
