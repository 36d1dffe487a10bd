open Velum_vmm
module Fault = Velum_util.Fault
module Images = Velum_guests.Images
module Pool = Placement.Pool

(* ---- workload description ---- *)

type priority = Low | Normal | High

let priority_rank = function Low -> 0 | Normal -> 1 | High -> 2
let priority_name = function Low -> "low" | Normal -> "normal" | High -> "high"

type vm_desc = {
  name : string;
  setup : Images.setup;
  prio : priority;
  group : int option;
  arrives : int;
}

let desc ?(prio = Normal) ?group ?(arrives = 0) ~name setup =
  { name; setup; prio; group; arrives }

(* ---- configuration ---- *)

type config = {
  hosts : int;
  quantum : int64;
  rounds : int;
  seed : int64;
  faults : Fault.t option;
  knobs : Ha.Failover.hb_knobs;
  cap_units : int;
  headroom : int;
  checkpoint_every : int;
  drains : (int * int) list;
  kills : (int * int) list;
  workload : vm_desc list;
  trace : bool;
}

(* Checkpoint restores started per round (restart-storm rate limit). *)
let evac_per_round = 2

(* Failed evacuation attempts per VM before it is degraded to halted. *)
let crash_loop_budget = 3

let config ?(quantum = 50_000L) ?(rounds = 24) ?(seed = 0L) ?faults
    ?(knobs = Ha.Failover.default_hb_knobs) ?(headroom = 0)
    ?(checkpoint_every = 4) ?(drains = []) ?(kills = []) ?(trace = false) ~hosts
    ~cap_units ~workload () =
  if hosts <= 0 then invalid_arg "Control.config: hosts must be positive";
  if cap_units <= 0 then
    invalid_arg "Control.config: cap_units must be positive";
  if headroom < 0 || headroom >= cap_units then
    invalid_arg "Control.config: headroom must be in [0, cap_units)";
  if checkpoint_every <= 0 then
    invalid_arg "Control.config: checkpoint_every must be positive";
  let check_target what (r, h) =
    if r < 0 || h < 0 || h >= hosts then
      invalid_arg
        (Printf.sprintf
           "Control.config: %s (%d, %d) needs a round >= 0 and a host in \
            [0, hosts)"
           what r h)
  in
  List.iter (check_target "kill") kills;
  List.iter (check_target "drain") drains;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen d.name then
        invalid_arg
          (Printf.sprintf "Control.config: duplicate VM name %S" d.name);
      Hashtbl.add seen d.name ();
      if d.setup.Images.frames > cap_units - headroom then
        invalid_arg
          (Printf.sprintf "Control.config: %s (%d frames) exceeds admittable \
                           capacity %d"
             d.name d.setup.Images.frames (cap_units - headroom)))
    workload;
  {
    hosts;
    quantum;
    rounds;
    seed;
    faults;
    knobs;
    cap_units;
    headroom;
    checkpoint_every;
    drains;
    kills;
    workload;
    trace;
  }

let chaos ?quantum ?rounds ?seed ?faults ?knobs ?checkpoint_every ?drains ?kills
    ?(vms = 0) ?(burst = 0) ?(burst_round = 6) ~hosts () =
  let setup =
    Images.plan ~heap_pages:16
      ~user:(Velum_guests.Workloads.dirty_loop ~pages:8 ~delay:1500)
      ()
  in
  let prio i = match i mod 3 with 0 -> High | 1 -> Normal | _ -> Low in
  (* the first four VMs form an anti-affinity group: the placer must
     spread them over four distinct hosts *)
  let mk ~arrives tag i =
    let group = if arrives <= 0 && i < 4 then Some 0 else None in
    desc ~prio:(prio i) ?group ~arrives ~name:(Printf.sprintf "%s%02d" tag i) setup
  in
  let workload =
    List.init (if vms > 0 then vms else 2 * hosts) (mk ~arrives:0 "vm")
    @ List.init burst (mk ~arrives:burst_round "burst")
  in
  config ?quantum ?rounds ?seed ?faults ?knobs ?checkpoint_every ?drains ?kills
    ~cap_units:(3 * setup.Images.frames) ~headroom:setup.Images.frames ~hosts ~workload
    ()

(* ---- per-VM supervision state ---- *)

type vm_state = Pending | Placed of int | Evacuating of int | Shed | Degraded

type entry = {
  desc : vm_desc;
  units : int;
  mutable state : vm_state;
  mutable vm : Vm.t option;
  mutable hint : Snapshot.hint option; (* left by the last committed checkpoint *)
  mutable checkpoints : int;
  mutable failed_attempts : int; (* evacuation attempts that failed *)
  mutable drain_retries : int; (* failed drain-migration attempts *)
  mutable evacuations : int;
  mutable up_rounds : int;
  mutable down_rounds : int;
  mutable ballooned_rounds : int;
  mutable balloon_frames : int;
  mutable mttr_rounds : int;
}

type t = {
  cfg : config;
  fleet : Parallel.fleet;
  det : Detector.t;
  pool : Pool.t;
  store : Store.t;
      (* ONE shared (network-attached) content-addressed checkpoint
         store for the whole fleet: each VM is a named stream, and
         identical pages — across generations and across VMs booted
         from the same image — are stored once *)
  entries : entry array;
  monitor : Monitor.t; (* cluster-level shed/degrade events *)
  evac_faults : Fault.t;
  drain_faults : Fault.t;
  mutable drain_ops : Drain.t list; (* newest first *)
  mutable evac_queue : int list; (* entry indices, FIFO *)
  mutable fenced_alive : int; (* false-positive declarations fenced *)
  mutable cold_moves : int;
  mutable mig_bytes : int; (* wire bytes of drain live migrations *)
  twins : (string, unit) Hashtbl.t;
      (* VMs seen this round with two running incarnations on live hosts *)
  mutable split_brain : int; (* (round, VM) pairs with a twin *)
}

(* Stream ids 0-3 belong to the fleet runner (2 retired) and 4-5 to the
   detector; the control plane's own draws start at 6. *)
let evac_stream = 6
let drain_stream = 7
let store_stream = 8

let round_target cfg round = Int64.mul cfg.quantum (Int64.of_int (round + 1))

let create cfg =
  let pcfg =
    Parallel.config ~quantum:cfg.quantum ~rounds:cfg.rounds ~seed:cfg.seed
      ?faults:cfg.faults ~trace:cfg.trace
      ~host_frames:(cfg.cap_units + 1024) ~hosts:cfg.hosts
      ~mk_vms:(fun _ -> [])
      ()
  in
  let fleet = Parallel.init pcfg in
  let det =
    Detector.create ~knobs:cfg.knobs ?faults:cfg.faults ~hosts:cfg.hosts
      ~quantum:cfg.quantum ~seed:cfg.seed ()
  in
  let store =
    Store.create
      ~sectors:
        (Store.fleet_sectors_for
           ~streams:(max 1 (List.length cfg.workload))
           ~image_bytes:
             (List.fold_left
                (fun acc d -> max acc ((d.setup.Images.frames + 8) * 4096))
                4096 cfg.workload))
      ()
  in
  Store.set_faults store
    (Parallel.derive_plan cfg.faults ~seed:cfg.seed ~stream:store_stream ~i:0);
  let entries =
    Array.of_list
      (List.map
         (fun d ->
           {
             desc = d;
             units = d.setup.Images.frames;
             state = Pending;
             vm = None;
             hint = None;
             checkpoints = 0;
             failed_attempts = 0;
             drain_retries = 0;
             evacuations = 0;
             up_rounds = 0;
             down_rounds = 0;
             ballooned_rounds = 0;
             balloon_frames = 0;
             mttr_rounds = 0;
           })
         cfg.workload)
  in
  {
    cfg;
    fleet;
    det;
    pool = Pool.create ~hosts:cfg.hosts ~cap_units:cfg.cap_units
        ~headroom:cfg.headroom;
    store;
    entries;
    monitor = Monitor.create ();
    evac_faults =
      Parallel.derive_plan cfg.faults ~seed:cfg.seed ~stream:evac_stream ~i:0;
    drain_faults =
      Parallel.derive_plan cfg.faults ~seed:cfg.seed ~stream:drain_stream ~i:0;
    drain_ops = [];
    evac_queue = [];
    fenced_alive = 0;
    cold_moves = 0;
    mig_bytes = 0;
    twins = Hashtbl.create 8;
    split_brain = 0;
  }

(* ---- checkpointing (shared-storage) ----

   Every VM checkpoints into the ONE fleet store as its own named
   stream, so unchanged pages — across a VM's generations and across
   sibling VMs cloned from the same image — land on the network array
   exactly once.  The commit streams asynchronously from a
   copy-on-write view (the {!Snapshot.capture_live} model), so the
   guest pause charged here is only the fixed metadata pass +
   superblock flush — [Store.commit_cycles ~bytes:0] — not the full
   image stream.  Charging the stream would stall a host for dozens of
   rounds per multi-megabyte image and starve every guest on it; the
   streamed bytes are still accounted by the store itself. *)

(* The first half of a checkpoint, on the domain that steps [host]'s
   stripe: the image source, its chunk plan against the store as the
   round's checkpoints found it, and the guest pause.  Touches only
   [host] and reads the store. *)
let prepare_checkpoint t e ~host =
  match e.vm with
  | Some vm when not (Vm.halted vm) -> (
      match Snapshot.source ?since:e.hint vm with
      | Error _ ->
          (* a page could not be brought in: skipped, not torn — nothing
             streamed and the previous generation still rules *)
          None
      | Ok src ->
          let q = Store.prepare ~id:e.desc.name t.store (Snapshot.chunks src) in
          let hyp = t.fleet.Parallel.nodes.(host).Parallel.hyp in
          Hypervisor.advance_idle hyp
            ~to_:(Int64.add (Hypervisor.now hyp) (Store.commit_cycles ~bytes:0));
          Some (src, q))
  | _ -> None

(* The second half, on the coordinator in entry order: the commit. *)
let finish_checkpoint t e (src, q) =
  match Store.commit_prepared t.store q with
  | Store.Committed { gen; _ } ->
      e.checkpoints <- e.checkpoints + 1;
      e.hint <- Some (Snapshot.committed src ~gen)
  | Store.Torn _ -> () (* previous generation still rules; retried *)

let commit_checkpoint t e ~host = Option.iter (finish_checkpoint t e) (prepare_checkpoint t e ~host)

(* ---- split-brain watch ----

   Fencing must turn a declared host into a dead one before any twin of
   its VMs starts.  Every restore or move, and the end of every round,
   counts the running (non-halted) incarnations of a VM over the live
   hosts; a second one is a split brain, counted once per round and VM. *)

let incarnations t name =
  Array.fold_left
    (fun acc node ->
      if node.Parallel.alive then
        List.fold_left
          (fun acc vm -> if vm.Vm.name = name && not (Vm.halted vm) then acc + 1 else acc)
          acc node.Parallel.hyp.Hypervisor.vms
      else acc)
    0 t.fleet.Parallel.nodes

let watch_twins t name =
  if incarnations t name > 1 then Hashtbl.replace t.twins name ()

let close_round_twins t =
  Array.iter (fun e -> watch_twins t e.desc.name) t.entries;
  t.split_brain <- t.split_brain + Hashtbl.length t.twins;
  Hashtbl.reset t.twins

(* ---- placement ---- *)

let place_fresh t e ~host =
  let node = t.fleet.Parallel.nodes.(host) in
  let vm = Parallel.place node (Parallel.spec ~name:e.desc.name e.desc.setup) in
  Pool.commit t.pool host ~units:e.units ~group:e.desc.group;
  e.vm <- Some vm;
  e.state <- Placed host;
  Parallel.clear_halted node;
  watch_twins t e.desc.name;
  commit_checkpoint t e ~host

let shed t e =
  e.state <- Shed;
  e.vm <- None;
  Monitor.bump t.monitor Monitor.E_cluster_shed

let degrade t e =
  e.state <- Degraded;
  e.vm <- None;
  Monitor.bump t.monitor Monitor.E_cluster_degraded

(* Balloon lower-priority residents down (hypervisor swapping through
   {!Mem_mgr.evict}) until [e] fits on some host.  Victims are squeezed
   lowest priority first, never above half their reservation, and the
   highest class is never squeezed by an equal-or-lower one.  Returns
   the host that now has room, if the squeeze succeeded. *)
let balloon_make_room t e =
  let rank = priority_rank e.desc.prio in
  let victims_on h =
    let vs = ref [] in
    Array.iteri
      (fun j o ->
        match o.state with
        | Placed h' when h' = h && priority_rank o.desc.prio < rank ->
            vs := (j, o) :: !vs
        | _ -> ())
      t.entries;
    (* lowest priority squeezed first; entry order breaks ties *)
    List.sort
      (fun (i, a) (j, b) ->
        match compare (priority_rank a.desc.prio) (priority_rank b.desc.prio)
        with
        | 0 -> compare i j
        | c -> c)
      !vs
  in
  let balloonable o = max 0 ((o.units / 2) - o.balloon_frames) in
  let admit_cap = t.cfg.cap_units - t.cfg.headroom in
  let group_ok h =
    match e.desc.group with
    | None -> true
    | Some g -> not (List.mem g (Pool.host t.pool h).Pool.groups)
  in
  let rec find h =
    if h >= t.cfg.hosts then None
    else
      let hs = Pool.host t.pool h in
      let free = admit_cap - hs.Pool.used_units in
      let needed = e.units - free in
      let reclaimable =
        List.fold_left (fun acc (_, o) -> acc + balloonable o) 0 (victims_on h)
      in
      if hs.Pool.open_ && group_ok h && needed > 0 && reclaimable >= needed
      then Some (h, needed)
      else find (h + 1)
  in
  match find 0 with
  | None -> None
  | Some (h, needed) ->
      let remaining = ref needed in
      List.iter
        (fun (_, o) ->
          if !remaining > 0 then begin
            let want = min (balloonable o) !remaining in
            match o.vm with
            | Some vm when want > 0 ->
                let got = Mem_mgr.evict vm ~n:want in
                if got > 0 then begin
                  o.balloon_frames <- o.balloon_frames + got;
                  Pool.shrink t.pool h ~units:got;
                  remaining := !remaining - got;
                  Monitor.bump t.monitor Monitor.E_cluster_degraded
                end
            | _ -> ()
          end)
        (victims_on h);
      if !remaining <= 0 then Some h else None

let admit t e ~round =
  let _ = round in
  match Pool.choose t.pool ~units:e.units ?group:e.desc.group with
  | Some h -> place_fresh t e ~host:h
  | None -> (
      match e.desc.prio with
      | Low -> shed t e (* reject the lowest class outright *)
      | Normal | High -> (
          match balloon_make_room t e with
          | Some h -> place_fresh t e ~host:h
          | None ->
              (* the highest class is never given up on: it stays
                 pending and is retried every round *)
              if e.desc.prio = Normal then shed t e))

(* ---- evacuation (restore from the last durable checkpoint) ---- *)

let evacuate_one t idx ~round =
  let e = t.entries.(idx) in
  match e.state with
  | Evacuating died_at -> (
      let now = round_target t.cfg round in
      let fail () =
        e.failed_attempts <- e.failed_attempts + 1;
        if e.failed_attempts > crash_loop_budget then begin
          degrade t e;
          false (* leaves the queue *)
        end
        else true (* stays queued; retried next round *)
      in
      match
        Pool.choose t.pool ~use_headroom:true ~units:e.units
          ?group:e.desc.group
      with
      | None -> true (* no survivor has room yet; keep waiting *)
      | Some h ->
          if Fault.fire t.evac_faults Fault.Cluster_evac ~now then begin
            Fault.observe t.evac_faults Fault.Cluster_evac;
            fail ()
          end
          else (
            match Store.recover ~id:e.desc.name t.store with
            | None -> fail ()
            | Some (img, _gen) -> (
                let node = t.fleet.Parallel.nodes.(h) in
                match Snapshot.restore node.Parallel.hyp img with
                | vm ->
                    Pool.commit t.pool h ~units:e.units ~group:e.desc.group;
                    e.vm <- Some vm;
                    e.state <- Placed h;
                    e.evacuations <- e.evacuations + 1;
                    e.mttr_rounds <- e.mttr_rounds + (round - died_at + 1);
                    Parallel.clear_halted node;
                    watch_twins t e.desc.name;
                    false
                | exception Failure _ -> fail ())))
  | _ -> false

(* ---- the per-round control loop (coordinator phase only) ---- *)

let fence t h ~why_alive =
  let node = t.fleet.Parallel.nodes.(h) in
  if node.Parallel.alive && why_alive then t.fenced_alive <- t.fenced_alive + 1;
  Parallel.set_alive node false

let host_died t h ~round =
  (* Fence FIRST: a false positive must be turned into a true positive
     before any twin starts, so a split-brain epoch can never exist. *)
  fence t h ~why_alive:true;
  (* a dead host takes no placements, ever *)
  Pool.cordon t.pool h;
  (* a draining host that dies is no longer draining *)
  t.drain_ops <-
    List.filter
      (fun d -> not (Drain.host d = h && Drain.active d))
      t.drain_ops;
  Array.iteri
    (fun idx e ->
      match e.state with
      | Placed h' when h' = h ->
          Pool.release t.pool h ~units:(e.units - e.balloon_frames)
            ~group:e.desc.group;
          e.balloon_frames <- 0;
          e.state <- Evacuating round;
          e.vm <- None (* the instance died with its host *);
          t.evac_queue <- t.evac_queue @ [ idx ]
      | _ -> ())
    t.entries

let resident_indices t h =
  let r = ref [] in
  Array.iteri
    (fun idx e ->
      match e.state with Placed h' when h' = h -> r := idx :: !r | _ -> ())
    t.entries;
  List.rev !r

(* Drain one VM off [h]: live stop-and-copy, retries accounted, cold
   checkpoint-move once the retry budget is gone. *)
let drain_migrate_one t d ~round () =
  let h = Drain.host d in
  match resident_indices t h with
  | [] -> `No_target
  | idx :: _ -> (
      let e = t.entries.(idx) in
      (* maintenance may spend the evacuation reserve: the point of the
         headroom is that planned and unplanned moves always land *)
      match
        Pool.choose t.pool ~use_headroom:true ~units:e.units
          ?group:e.desc.group
      with
      | None -> `No_target
      | Some target -> (
          let now = round_target t.cfg round in
          let src = t.fleet.Parallel.nodes.(h) in
          let dst = t.fleet.Parallel.nodes.(target) in
          let move_accounting vm' =
            Pool.release t.pool h ~units:(e.units - e.balloon_frames)
              ~group:e.desc.group;
            e.balloon_frames <- 0;
            Pool.commit t.pool target ~units:e.units ~group:e.desc.group;
            e.vm <- Some vm';
            e.state <- Placed target;
            Parallel.clear_halted dst;
            watch_twins t e.desc.name
          in
          let cold_move () =
            (* freeze on the source, restore the image on the target —
               the slow path that always completes *)
            match e.vm with
            | None -> `Failed
            | Some vm -> (
                match Snapshot.restore dst.Parallel.hyp (Snapshot.capture vm) with
                | vm' ->
                    Hypervisor.remove_vm src.Parallel.hyp vm;
                    t.cold_moves <- t.cold_moves + 1;
                    move_accounting vm';
                    `Cold_moved
                | exception Failure _ ->
                    e.drain_retries <- e.drain_retries + 1;
                    `Failed)
          in
          if e.drain_retries > Drain.retry_limit then cold_move ()
          else if Fault.fire t.drain_faults Fault.Cluster_drain ~now then begin
            Fault.observe t.drain_faults Fault.Cluster_drain;
            e.drain_retries <- e.drain_retries + 1;
            `Failed
          end
          else
            match e.vm with
            | None -> `Failed
            | Some vm ->
                let vm', res =
                  Migrate.stop_and_copy ~src:src.Parallel.hyp
                    ~dst:dst.Parallel.hyp ~vm ~link:t.fleet.Parallel.mig_link ()
                in
                t.mig_bytes <- t.mig_bytes + res.Migrate.bytes_sent;
                if res.Migrate.aborted then begin
                  e.drain_retries <- e.drain_retries + 1;
                  `Failed
                end
                else begin
                  move_accounting vm';
                  `Moved
                end))

let step_drains t ~round =
  List.iter
    (fun d ->
      if Drain.active d then begin
        let h = Drain.host d in
        Drain.step d ~round
          ~resident:(List.length (resident_indices t h))
          ~migrate_one:(drain_migrate_one t d ~round)
          ~on_reboot:(fun () ->
            fence t h ~why_alive:false;
            Detector.disarm t.det h)
          ~on_refill:(fun () ->
            let node = t.fleet.Parallel.nodes.(h) in
            Parallel.set_alive node true;
            Parallel.clear_halted node;
            Detector.rearm t.det h ~round;
            Pool.uncordon t.pool h)
      end)
    (List.rev t.drain_ops)

let step t ~across ~round =
  let cfg = t.cfg in
  (* 1. scheduled host kills (ground truth; the detector finds out) *)
  List.iter
    (fun (r, h) ->
      if r = round then Parallel.set_alive t.fleet.Parallel.nodes.(h) false)
    cfg.kills;
  (* 2. failure detection over the spoke control lanes *)
  let newly_dead =
    Detector.observe_round t.det
      ~alive:(fun i -> t.fleet.Parallel.nodes.(i).Parallel.alive)
      ~round
  in
  List.iter (fun h -> host_died t h ~round) newly_dead;
  (* 3. begin scheduled maintenance *)
  List.iter
    (fun (r, h) ->
      if
        r = round && t.fleet.Parallel.nodes.(h).Parallel.alive
        && not (List.exists (fun d -> Drain.host d = h && Drain.active d)
                  t.drain_ops)
      then begin
        Pool.cordon t.pool h;
        t.drain_ops <- Drain.start ~host:h ~round :: t.drain_ops
      end)
    cfg.drains;
  (* 4. advance active drains *)
  step_drains t ~round;
  (* 5. evacuate from checkpoints, restart-storm rate-limited *)
  let rec evac budget queue =
    match queue with
    | [] -> []
    | idx :: rest when budget > 0 ->
        if evacuate_one t idx ~round then idx :: evac (budget - 1) rest
        else evac (budget - 1) rest
    | rest -> rest
  in
  t.evac_queue <- evac evac_per_round t.evac_queue;
  (* 6. admission of newly arrived (and still-pending) requests, FFD *)
  let pending =
    Array.to_list t.entries
    |> List.filter (fun e -> e.state = Pending && e.desc.arrives <= round)
  in
  let ordered =
    List.sort
      (fun a b ->
        match compare (priority_rank b.desc.prio) (priority_rank a.desc.prio)
        with
        | 0 -> (
            match compare b.units a.units with
            | 0 -> compare a.desc.name b.desc.name
            | c -> c)
        | c -> c)
      pending
  in
  List.iter (fun e -> admit t e ~round) ordered;
  (* 7. keep idle hosts' clocks at the round boundary so a VM placed
     many rounds in is not handed all the skipped budget at once *)
  let target = round_target cfg round in
  Array.iter
    (fun node ->
      if node.Parallel.alive then
        Hypervisor.advance_idle node.Parallel.hyp ~to_:target)
    t.fleet.Parallel.nodes;
  (* 8. periodic durable checkpoints (commit pause charged as idle):
     every due VM's source and chunk plan on its host's stripe, against
     the store as it stands now, then the commits in entry order *)
  if (round + 1) mod cfg.checkpoint_every = 0 then begin
    let due = Array.make cfg.hosts [] in
    for idx = Array.length t.entries - 1 downto 0 do
      match t.entries.(idx).state with
      | Placed h when t.fleet.Parallel.nodes.(h).Parallel.alive -> due.(h) <- idx :: due.(h)
      | _ -> ()
    done;
    let prepared = Array.make (Array.length t.entries) None in
    across (fun h ->
        List.iter
          (fun idx -> prepared.(idx) <- prepare_checkpoint t t.entries.(idx) ~host:h)
          due.(h));
    Array.iteri (fun idx p -> Option.iter (finish_checkpoint t t.entries.(idx)) p) prepared
  end;
  (* 9. availability / SLO accounting *)
  Array.iter
    (fun e ->
      match e.state with
      | Placed h when t.fleet.Parallel.nodes.(h).Parallel.alive ->
          e.up_rounds <- e.up_rounds + 1;
          if e.balloon_frames > 0 then
            e.ballooned_rounds <- e.ballooned_rounds + 1
      | Placed _ | Evacuating _ -> e.down_rounds <- e.down_rounds + 1
      | Pending when e.desc.arrives <= round ->
          e.down_rounds <- e.down_rounds + 1
      | _ -> ())
    t.entries;
  (* 10. no VM may have run twice this round *)
  close_round_twins t

(* ---- metrics and canonical report ---- *)

type metrics = {
  availability : float;
  slo_violations : int;
  migration_bytes : int;
  evac_mttr_rounds : float;
  consolidation : float;
  placed : int;
  shed : int;
  degraded : int;
  evacuated : int;
  fenced_alive : int;
  split_brain : int;
  cold_moves : int;
}

let metrics t =
  let up = ref 0 and down = ref 0 and slo = ref 0 in
  let placed = ref 0 and shed = ref 0 and degraded = ref 0 in
  let evacs = ref 0 and mttr = ref 0 in
  Array.iter
    (fun e ->
      up := !up + e.up_rounds;
      down := !down + e.down_rounds;
      slo := !slo + e.down_rounds + e.ballooned_rounds;
      (match e.state with
      | Placed _ -> incr placed
      | Shed -> incr shed
      | Degraded -> incr degraded
      | Pending | Evacuating _ -> ());
      evacs := !evacs + e.evacuations;
      mttr := !mttr + e.mttr_rounds)
    t.entries;
  {
    availability =
      (if !up + !down = 0 then 1.0
       else float_of_int !up /. float_of_int (!up + !down));
    slo_violations = !slo;
    migration_bytes = t.mig_bytes;
    evac_mttr_rounds =
      (if !evacs = 0 then 0.0 else float_of_int !mttr /. float_of_int !evacs);
    consolidation = Pool.consolidation t.pool;
    placed = !placed;
    shed = !shed;
    degraded = !degraded;
    evacuated = !evacs;
    fenced_alive = t.fenced_alive;
    split_brain = t.split_brain;
    cold_moves = t.cold_moves;
  }

let state_name = function
  | Pending -> "pending"
  | Placed h -> Printf.sprintf "host%d" h
  | Evacuating r -> Printf.sprintf "evacuating@%d" r
  | Shed -> "shed"
  | Degraded -> "degraded"

(* The cluster determinism artifact: control-plane state + the fleet
   runner's own canonical report.  Nothing about domain count or wall
   clock may ever appear here. *)
let report t =
  let buf = Buffer.create 8192 in
  let cfg = t.cfg in
  Printf.bprintf buf
    "cluster hosts=%d quantum=%Ld rounds=%d seed=%Ld cap=%d headroom=%d \
     knobs=%d/%Ld/%Ld ckpt_every=%d evac_per_round=%d\n"
    cfg.hosts cfg.quantum cfg.rounds cfg.seed cfg.cap_units cfg.headroom
    cfg.knobs.Ha.Failover.miss_limit cfg.knobs.Ha.Failover.timeout
    cfg.knobs.Ha.Failover.takeover_backoff cfg.checkpoint_every evac_per_round;
  Array.iter
    (fun e ->
      Printf.bprintf buf
        "vm %s: prio=%s group=%s units=%d state=%s up=%d down=%d ckpts=%d \
         evacs=%d fails=%d balloon=%d mttr=%d\n"
        e.desc.name (priority_name e.desc.prio)
        (match e.desc.group with Some g -> string_of_int g | None -> "-")
        e.units (state_name e.state) e.up_rounds e.down_rounds e.checkpoints
        e.evacuations
        (e.failed_attempts + e.drain_retries)
        e.balloon_frames e.mttr_rounds)
    t.entries;
  for h = 0 to cfg.hosts - 1 do
    let hs = Pool.host t.pool h in
    Printf.bprintf buf "pool host %d: open=%b used=%d placed=%d\n" h
      hs.Pool.open_ hs.Pool.used_units hs.Pool.placed
  done;
  Buffer.add_string buf (Detector.summary t.det);
  List.iter
    (fun d ->
      let s = Drain.stats d in
      Printf.bprintf buf
        "drain host %d: done=%b migrations=%d failed=%d cold=%d \
         completed=%s\n"
        (Drain.host d)
        (not (Drain.active d))
        s.Drain.migrations s.Drain.failed_attempts s.Drain.cold_moves
        (match s.Drain.completed_at with
        | Some r -> string_of_int r
        | None -> "-"))
    (List.rev t.drain_ops);
  Printf.bprintf buf "events %s\n" (Monitor.to_json t.monitor);
  Printf.bprintf buf
    "store commits=%d torn=%d gc=%d bytes_written=%d logical=%d \
     chunks_live=%d\n"
    (Store.commits t.store) (Store.torn_commits t.store)
    (Store.gc_runs t.store) (Store.bytes_written t.store)
    (Store.logical_bytes t.store) (Store.chunks_live t.store);
  let m = metrics t in
  Printf.bprintf buf
    "metrics availability=%.4f slo=%d mig_bytes=%d evac_mttr=%.2f \
     consolidation=%.2f placed=%d shed=%d degraded=%d evacuated=%d \
     cold_moves=%d fenced_alive=%d split_brain=%d\n"
    m.availability m.slo_violations m.migration_bytes m.evac_mttr_rounds
    m.consolidation m.placed m.shed m.degraded m.evacuated m.cold_moves
    m.fenced_alive m.split_brain;
  Buffer.add_string buf (Parallel.report t.fleet);
  Buffer.contents buf

type result = { control : t; report : string }

let run ?(domains = 1) cfg =
  let t = create cfg in
  (* initial admission happens before cycle 0, FFD over the whole
     starting set — exactly the single-shot consolidation case *)
  let initial =
    Array.to_list t.entries |> List.filter (fun e -> e.desc.arrives <= 0)
  in
  let ordered =
    List.sort
      (fun a b ->
        match compare (priority_rank b.desc.prio) (priority_rank a.desc.prio)
        with
        | 0 -> (
            match compare b.units a.units with
            | 0 -> compare a.desc.name b.desc.name
            | c -> c)
        | c -> c)
      initial
  in
  List.iter (fun e -> admit t e ~round:0) ordered;
  Parallel.run_fleet_across ~domains
    ~on_round:(fun _fleet ~across ~round -> step t ~across ~round)
    t.fleet;
  { control = t; report = report t }

let fleet t = t.fleet
let cluster_monitor t = t.monitor
let entry_state t ~name =
  let found = ref None in
  Array.iter
    (fun e -> if e.desc.name = name then found := Some e.state)
    t.entries;
  !found

let entry_host t ~name =
  match entry_state t ~name with Some (Placed h) -> Some h | _ -> None

let detector t = t.det
let store t = t.store
