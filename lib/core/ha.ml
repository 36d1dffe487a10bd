open Velum_devices

module Fault = Velum_util.Fault

let log_src = Logs.Src.create "velum.ha" ~doc:"HA supervision and failover"

module Log = (val Logs.src_log log_src)

(* ---- per-VM supervisor ---- *)

(* Crash-loop window, in cycles: [max_restarts] restarts inside it
   degrade the VM. *)
let restart_window = 50_000_000L

type t = {
  hyp : Hypervisor.t;
  store : Store.t;
  churn : Churn.cursor; (* this supervisor's view of the host's dirty frames *)
  checkpoint_every : int64;
  max_restarts : int;
  backoff_base : int64;
  mutable vm : Vm.t;
  mutable hint : Snapshot.hint option; (* left by the last committed checkpoint *)
  mutable pending : int64 option; (* restore due at this host cycle *)
  mutable stalled_at : int64;
  mutable window_start : int64;
  mutable window_restarts : int;
  mutable restarts : int;
  mutable degraded : bool;
  mutable checkpoints : int;
  mutable torn_checkpoints : int;
  mutable checkpoint_cycles : int64;
  mutable mttr_total : int64;
  mutable mttr_events : int;
  mutable last_ckpt_instret : int64;
  mutable ckpt_bytes : int;
  mutable frames_churned : int;
}

type stats = {
  checkpoints : int;
  torn_checkpoints : int;
  checkpoint_cycles : int64;
  restarts : int;
  degraded : bool;
  mttr_total : int64;
  mttr_events : int;
  ckpt_bytes : int;
  ckpt_logical_bytes : int;
  frames_churned : int;
}

let trace_ha (hyp : Hypervisor.t) (vm : Vm.t) what ~detail =
  match Hypervisor.trace hyp with
  | Some tr ->
      Trace.record tr ~vm_id:vm.Vm.id ~name:vm.Vm.name ~at:(Hypervisor.now hyp)
        (Trace.Ha_event { what; detail })
  | None -> ()

(* Only a VM that can still make progress is worth persisting: an
   all-blocked image IS the wedge, and committing it would make every
   restore land right back in it.  "Last good checkpoint" = the newest
   runnable, progressing state. *)
let checkpointable (vm : Vm.t) =
  Array.exists
    (fun (v : Vcpu.t) ->
      match v.Vcpu.runstate with
      | Vcpu.Runnable | Vcpu.Running -> true
      | Vcpu.Blocked | Vcpu.Halted -> false)
    vm.Vm.vcpus

(* Crash-loop exhaustion: stop restarting, halt the vCPUs but keep the
   VM registered so its wedged state can be examined post-mortem. *)
let degrade (t : t) =
  t.degraded <- true;
  t.pending <- None;
  Log.warn (fun m -> m "ha: degrading %s to halted" t.vm.Vm.name);
  Monitor.bump t.vm.Vm.monitor Monitor.E_ha_degraded;
  trace_ha t.hyp t.vm Trace.Ha_degraded ~detail:0L;
  Array.iter
    (fun (v : Vcpu.t) ->
      v.Vcpu.runstate <- Vcpu.Halted;
      (Hypervisor.sched t.hyp).Scheduler.remove v)
    t.vm.Vm.vcpus

(* The watchdog (or the idle-deadlock path) says the supervised VM is
   wedged.  Inside the crash-loop budget: destroy it and schedule a
   restore after exponential backoff.  Past the budget: degrade. *)
let handle_stall (t : t) =
  if (not t.degraded) && t.pending = None then begin
    let now = Hypervisor.now t.hyp in
    if Int64.unsigned_compare (Int64.sub now t.window_start) restart_window > 0
    then begin
      t.window_start <- now;
      t.window_restarts <- 0
    end;
    if t.window_restarts >= t.max_restarts then degrade t
    else begin
      t.window_restarts <- t.window_restarts + 1;
      t.stalled_at <- now;
      let backoff =
        Int64.mul t.backoff_base
          (Int64.shift_left 1L (min (t.window_restarts - 1) 20))
      in
      Log.warn (fun m ->
          m "ha: destroying wedged %s, restore in %Ld cycles" t.vm.Vm.name backoff);
      Hypervisor.remove_vm t.hyp t.vm;
      t.pending <- Some (Int64.add now backoff)
    end
  end

let maybe_restore (t : t) =
  match t.pending with
  | Some due when Int64.unsigned_compare (Hypervisor.now t.hyp) due >= 0 -> (
      t.pending <- None;
      match Store.recover t.store with
      | None ->
          (* nothing ever committed intact: no image to come back to *)
          t.degraded <- true
      | Some (image, gen) -> (
          match Snapshot.restore t.hyp image with
          | vm ->
              t.vm <- vm;
              t.last_ckpt_instret <- Vm.instret vm;
              t.restarts <- t.restarts + 1;
              t.mttr_events <- t.mttr_events + 1;
              let mttr = Int64.sub (Hypervisor.now t.hyp) t.stalled_at in
              t.mttr_total <- Int64.add t.mttr_total mttr;
              Monitor.bump vm.Vm.monitor Monitor.E_ha_restart;
              trace_ha t.hyp vm Trace.Ha_restart ~detail:mttr;
              Log.info (fun m -> m "ha: restored %s from generation %d" vm.Vm.name gen)
          | exception Failure _ -> t.degraded <- true))
  | _ -> ()

let checkpoint (t : t) =
  if
    (not t.degraded) && t.pending = None
    && (not (Vm.halted t.vm))
    && checkpointable t.vm
  then begin
    let instret = Vm.instret t.vm in
    (* A cadence tick with no retired instructions AND no dirtied frames
       has nothing new to persist; device DMA dirties memory without
       retiring guest instructions, which the churn tracker catches. *)
    if Int64.compare instret t.last_ckpt_instret <> 0 || Churn.churned t.churn > 0
    then begin
      match Snapshot.source ?since:t.hint t.vm with
      | Error gfn ->
          (* A page could not be brought in: nothing consistent to
             commit.  Skipped, not torn — nothing streamed, no pause
             charged, and the previous generation still rules. *)
          Log.warn (fun m ->
              m "ha: checkpoint of %s skipped, page %Ld cannot be brought in"
                t.vm.Vm.name gfn)
      | Ok src ->
          t.last_ckpt_instret <- instret;
          (* The pause is charged on the bytes the commit actually
             streamed — the churned delta (or the torn prefix), not the
             full image. *)
          let outcome = Store.commit t.store (Snapshot.chunks src) in
          let bytes =
            match outcome with
            | Store.Committed { gen; bytes; _ } ->
                t.checkpoints <- t.checkpoints + 1;
                t.ckpt_bytes <- t.ckpt_bytes + bytes;
                t.frames_churned <- t.frames_churned + Churn.drain t.churn;
                t.hint <- Some (Snapshot.committed src ~gen);
                bytes
            | Store.Torn cut ->
                t.torn_checkpoints <- t.torn_checkpoints + 1;
                cut
          in
          let cost = Store.commit_cycles ~bytes in
          (match outcome with
          | Store.Committed _ -> trace_ha t.hyp t.vm Trace.Ha_checkpoint ~detail:cost
          | Store.Torn _ -> ());
          t.checkpoint_cycles <- Int64.add t.checkpoint_cycles cost;
          (* the guest is paused while the commit streams out *)
          Hypervisor.advance_idle t.hyp ~to_:(Int64.add (Hypervisor.now t.hyp) cost)
    end
  end

let create ~hyp ~store ~vm ?(checkpoint_every = 300_000L) ?(wd_budget = 150_000L)
    ?(max_restarts = 3) ?(backoff_base = 100_000L) () =
  if Int64.compare checkpoint_every 0L <= 0 then
    invalid_arg "Ha.create: checkpoint_every must be positive";
  let t =
    {
      hyp;
      store;
      churn = Churn.cursor (Host.churn (Hypervisor.host hyp));
      checkpoint_every;
      max_restarts;
      backoff_base;
      vm;
      hint = None;
      pending = None;
      stalled_at = 0L;
      window_start = Hypervisor.now hyp;
      window_restarts = 0;
      restarts = 0;
      degraded = false;
      checkpoints = 0;
      torn_checkpoints = 0;
      checkpoint_cycles = 0L;
      mttr_total = 0L;
      mttr_events = 0;
      last_ckpt_instret = Int64.minus_one;
      ckpt_bytes = 0;
      frames_churned = 0;
    }
  in
  Hypervisor.set_watchdog hyp ~budget:wd_budget ~policy:Hypervisor.Wd_restart;
  let prev = Hypervisor.restart_handler hyp in
  Hypervisor.set_restart_handler hyp (fun wedged ->
      if wedged == t.vm then handle_stall t
      else match prev with Some h -> h wedged | None -> ());
  (* baseline image, before anything can wedge *)
  checkpoint t;
  t

let run (t : t) ~budget =
  let hyp = t.hyp in
  let deadline = Int64.add (Hypervisor.now hyp) budget in
  let result = ref Hypervisor.Out_of_budget in
  let continue = ref true in
  while !continue do
    if Int64.unsigned_compare (Hypervisor.now hyp) deadline >= 0 then
      continue := false
    else begin
      maybe_restore t;
      let slice =
        let r = Int64.sub deadline (Hypervisor.now hyp) in
        if Int64.unsigned_compare t.checkpoint_every r < 0 then t.checkpoint_every
        else r
      in
      let o = Hypervisor.run hyp ~budget:slice in
      checkpoint t;
      match o with
      | Hypervisor.Out_of_budget | Hypervisor.Until_satisfied -> ()
      | Hypervisor.All_halted -> (
          match t.pending with
          | Some due -> Hypervisor.advance_idle hyp ~to_:due
          | None ->
              result := Hypervisor.All_halted;
              continue := false)
      | Hypervisor.Idle_deadlock -> (
          (* A wedged sole VM freezes the hypervisor clock, so the
             in-loop watchdog never sees its budget elapse — the
             deadlock outcome is the stall signal here. *)
          if (not t.degraded) && t.pending = None && not (Vm.halted t.vm)
          then begin
            Monitor.bump t.vm.Vm.monitor Monitor.E_watchdog;
            handle_stall t
          end;
          match t.pending with
          | Some due -> Hypervisor.advance_idle hyp ~to_:due
          | None ->
              (* a degrade halts the VM, so the deadlock resolved to a stop *)
              result :=
                (if t.degraded && Vm.halted t.vm then Hypervisor.All_halted
                 else Hypervisor.Idle_deadlock);
              continue := false)
    end
  done;
  !result

let vm (t : t) = t.vm
let degraded (t : t) = t.degraded

let stats (t : t) =
  {
    checkpoints = t.checkpoints;
    torn_checkpoints = t.torn_checkpoints;
    checkpoint_cycles = t.checkpoint_cycles;
    restarts = t.restarts;
    degraded = t.degraded;
    mttr_total = t.mttr_total;
    mttr_events = t.mttr_events;
    ckpt_bytes = t.ckpt_bytes;
    ckpt_logical_bytes = Store.logical_bytes t.store;
    frames_churned = t.frames_churned;
  }

let inject_stall (vm : Vm.t) =
  Array.iter
    (fun (v : Vcpu.t) -> if v.Vcpu.runstate <> Vcpu.Halted then Vcpu.block v)
    vm.Vm.vcpus

(* ---- heartbeat-driven host failover ---- *)

module Failover = struct
  type hb_knobs = {
    miss_limit : int;
    timeout : int64;
    takeover_backoff : int64;
  }

  let default_hb_knobs = { miss_limit = 3; timeout = 0L; takeover_backoff = 0L }

  type t = {
    session : Replicate.session;
    primary : Hypervisor.t;
    backup : Hypervisor.t;
    prot_vm : Vm.t;
    link : Link.t;
    faults : Fault.t;
    knobs : hb_knobs;
    primary_dies_at : int64 option;
    mutable generation : int; (* backup's view *)
    mutable primary_gen : int; (* primary's view *)
    mutable now : int64; (* session cycles *)
    primary_watch : Suspicion.t; (* backup's view, clocked in session cycles *)
    mutable hb_sent : int;
    mutable hb_lost : int;
    mutable hb_seen : int;
    mutable fenced : bool;
    mutable primary_alive : bool;
    mutable failover_at : int64 option;
    mutable mttr : int64 option;
    mutable epochs : int;
    mutable primary_epochs : int;
    mutable backup_epochs : int;
    mutable split_brain_epochs : int;
    mutable announces : int; (* TAKEOVER frames actually sent *)
    mutable next_announce : int64; (* backoff gate; 0 = immediately *)
  }

  type stats = {
    epochs : int;
    primary_epochs : int;
    backup_epochs : int;
    split_brain_epochs : int;
    hb_sent : int;
    hb_lost : int;
    hb_seen : int;
    generation : int;
    fenced : bool;
    failover_at : int64 option;
    mttr : int64 option;
  }

  let hb_tag = "HB"
  let takeover_tag = "TAKEOVER"

  let parse_gen ~tag msg =
    match String.split_on_char ' ' msg with
    | t :: g :: _ when String.equal t tag -> int_of_string_opt g
    | _ -> None

  let create ?faults ~primary ~backup ~vm ~link ?(knobs = default_hb_knobs)
      ?primary_dies_at () =
    let faults = match faults with Some f -> f | None -> Link.faults link in
    let session = Replicate.start ~faults ~primary ~backup ~vm ~link () in
    let now = Replicate.elapsed session in
    {
      session;
      primary;
      backup;
      prot_vm = vm;
      link;
      faults;
      knobs;
      primary_dies_at;
      generation = 1;
      primary_gen = 1;
      now;
      primary_watch =
        Suspicion.create ~backoff:knobs.takeover_backoff
          ~miss_limit:knobs.miss_limit ~timeout:knobs.timeout
          ~last_heard:(Int64.to_int now) ();
      hb_sent = 0;
      hb_lost = 0;
      hb_seen = 0;
      fenced = false;
      primary_alive = true;
      failover_at = None;
      mttr = None;
      epochs = 0;
      primary_epochs = 0;
      backup_epochs = 0;
      split_brain_epochs = 0;
      announces = 0;
      next_announce = 0L;
    }

  (* The returning stale primary has seen a higher generation: it stands
     down, destroying its (now divergent) instance. *)
  let fence_primary (t : t) =
    Log.warn (fun m ->
        m "ha: primary fenced at generation %d" t.primary_gen);
    Vm.stop_dirty_logging t.prot_vm;
    Hypervisor.remove_vm t.primary t.prot_vm

  let primary_may_run (t : t) = t.primary_alive && not t.fenced
  let failed_over (t : t) = Replicate.failed_over t.session

  let epoch (t : t) ~run_cycles =
    t.epochs <- t.epochs + 1;
    (match t.primary_dies_at with
    | Some c when Int64.unsigned_compare t.now c >= 0 -> t.primary_alive <- false
    | _ -> ());
    let advanced = ref false in
    (* --- primary's half --- *)
    if primary_may_run t then begin
      (* honour takeover announcements before running anything *)
      List.iter
        (fun msg ->
          match parse_gen ~tag:takeover_tag msg with
          | Some g when g > t.primary_gen ->
              t.primary_gen <- g;
              t.fenced <- true
          | _ -> ())
        (Link.poll_control t.link ~at:`A ~now:t.now);
      if t.fenced then fence_primary t
      else begin
        let session_usable =
          Replicate.failed_over t.session = None
          && not (Replicate.stats t.session).Replicate.link_failed
        in
        if session_usable then begin
          (match Replicate.epoch t.session ~run_cycles with
          | Replicate.Committed | Replicate.Link_failed -> ());
          t.now <- Replicate.elapsed t.session;
          advanced := true
        end
        else
          (* checkpoints can no longer commit (partition or a completed
             takeover the primary has not yet heard of): the stale
             primary keeps running unprotected — the split-brain window
             the generation fence closes *)
          Hypervisor.run_vm t.primary t.prot_vm ~cycles:run_cycles;
        t.primary_epochs <- t.primary_epochs + 1;
        (* cycle-stamped heartbeat, unless the hb.loss site eats it *)
        if Fault.fire t.faults Fault.Hb_loss ~now:t.now then
          t.hb_lost <- t.hb_lost + 1
        else begin
          ignore
            (Link.send_control t.link ~from:`A ~now:t.now
               ~payload:(Printf.sprintf "%s %d %Ld" hb_tag t.primary_gen t.now));
          t.hb_sent <- t.hb_sent + 1
        end
      end
    end;
    if not !advanced then t.now <- Int64.add t.now run_cycles;
    (* --- backup's half --- *)
    let got_hb =
      List.exists
        (fun msg -> parse_gen ~tag:hb_tag msg <> None)
        (Link.poll_control t.link ~at:`B ~now:t.now)
    in
    let now = Int64.to_int t.now in
    if got_hb then begin
      t.hb_seen <- t.hb_seen + 1;
      Suspicion.heard t.primary_watch ~now
    end
    else if Fault.injected t.faults Fault.Hb_loss > Fault.observed t.faults Fault.Hb_loss
    then Fault.observe t.faults Fault.Hb_loss;
    if (not got_hb) && Suspicion.missed t.primary_watch ~now then begin
      let silent =
        Int64.sub t.now (Int64.of_int (Suspicion.last_heard t.primary_watch))
      in
      t.generation <- t.generation + 1;
      (* the primary may in fact be alive across a partition — activate
         the twin without touching it and let the fence do its job *)
      ignore (Replicate.failover ~fence_primary:false t.session);
      t.failover_at <- Some t.now;
      t.mttr <- Some silent;
      trace_ha t.backup t.prot_vm Trace.Ha_failover ~detail:silent;
      Log.warn (fun m ->
          m "ha: %d heartbeats missed, failover at generation %d"
            (Suspicion.misses t.primary_watch) t.generation)
    end;
    match Replicate.failed_over t.session with
    | None -> ()
    | Some _ ->
        (* announce (and re-announce) until the primary is known gone;
           a nonzero takeover backoff spaces the re-announcements out
           exponentially instead of flooding the control lane.  The
           split-brain clock keeps ticking either way — both instances
           are running whether or not a frame goes out this epoch. *)
        if t.primary_alive && not t.fenced then begin
          t.split_brain_epochs <- t.split_brain_epochs + 1;
          let due =
            Int64.compare t.knobs.takeover_backoff 0L <= 0
            || Int64.unsigned_compare t.now t.next_announce >= 0
          in
          if due then begin
            ignore
              (Link.send_control t.link ~from:`B ~now:t.now
                 ~payload:(Printf.sprintf "%s %d" takeover_tag t.generation));
            t.announces <- t.announces + 1;
            if Int64.compare t.knobs.takeover_backoff 0L > 0 then
              t.next_announce <-
                Int64.add t.now
                  (Int64.mul t.knobs.takeover_backoff
                     (Int64.shift_left 1L (min 16 (t.announces - 1))))
          end
        end;
        ignore (Hypervisor.run t.backup ~budget:run_cycles);
        t.backup_epochs <- t.backup_epochs + 1

  let stats (t : t) =
    {
      epochs = t.epochs;
      primary_epochs = t.primary_epochs;
      backup_epochs = t.backup_epochs;
      split_brain_epochs = t.split_brain_epochs;
      hb_sent = t.hb_sent;
      hb_lost = t.hb_lost;
      hb_seen = t.hb_seen;
      generation = t.generation;
      fenced = t.fenced;
      failover_at = t.failover_at;
      mttr = t.mttr;
    }

  let run (t : t) ~epoch_cycles ~epochs =
    for _ = 1 to epochs do
      epoch t ~run_cycles:epoch_cycles
    done;
    let survivor =
      match Replicate.failed_over t.session with
      | Some twin -> twin
      | None -> t.prot_vm
    in
    (survivor, stats t)
end
