open Velum_devices
open Velum_vmm
module Fault = Velum_util.Fault

(* ---- configuration ---- *)

type vm_spec = {
  vname : string;
  setup : Velum_guests.Images.setup;
  paging : Vm.paging_mode;
  pv : bool;
  engine : Velum_machine.Engine.kind;
}

let spec ?(paging = Vm.Nested_paging) ?(pv = false)
    ?(engine = Velum_machine.Engine.default) ~name setup =
  { vname = name; setup; paging; pv; engine }

type config = {
  hosts : int;
  quantum : int64;
  rounds : int;
  mk_vms : int -> vm_spec list;
  seed : int64;
  faults : Fault.t option;
  migrate_every : int;
  fail_host : (int * int) option;
  trace : bool;
  host_frames : int option;
  wire : (int -> Hypervisor.t -> unit) option;
}

let config ?(quantum = 200_000L) ?(rounds = 8) ?(seed = 0L) ?faults
    ?(migrate_every = 0) ?fail_host ?(trace = false) ?host_frames ?wire ~hosts
    ~mk_vms () =
  if hosts <= 0 then invalid_arg "Parallel.config: hosts must be positive";
  if Int64.compare quantum 0L <= 0 then
    invalid_arg "Parallel.config: quantum must be positive";
  if rounds <= 0 then invalid_arg "Parallel.config: rounds must be positive";
  if migrate_every < 0 then
    invalid_arg "Parallel.config: migrate_every must be non-negative";
  (match fail_host with
  | Some (r, h) when r < 0 || h < 0 || h >= hosts ->
      invalid_arg
        (Printf.sprintf
           "Parallel.config: fail_host (%d, %d) needs a round >= 0 and a \
            host in [0, hosts)"
           r h)
  | _ -> ());
  (match host_frames with
  | Some n when n <= 0 ->
      invalid_arg "Parallel.config: host_frames must be positive"
  | _ -> ());
  {
    hosts;
    quantum;
    rounds;
    mk_vms;
    seed;
    faults;
    migrate_every;
    fail_host;
    trace;
    host_frames;
    wire;
  }

(* ---- fleet state ---- *)

type node = {
  id : int;
  hyp : Hypervisor.t;
  mutable alive : bool; (* injected host failure flips this *)
  mutable halted : bool; (* every VM halted *)
  mutable error : exn option; (* escaped from a worker; re-raised by the coordinator *)
}

type fleet = {
  cfg : config;
  nodes : node array;
  mig_link : Link.t; (* dedicated migration channel, coordinator-owned *)
  mutable migrations : int;
  mutable mig_aborts : int;
  mutable mig_pages : int;
}

(* Distinct deterministic seed per consumer: the fleet seed is mixed
   with a per-purpose stream id and the host index so no two RNG streams
   in the process coincide. *)
let mix_seed base ~stream ~i =
  let gold = 0x9E3779B97F4A7C15L in
  Int64.add base
    (Int64.mul gold (Int64.of_int (((stream + 1) * 8191) + i + 1)))

let derive_plan faults ~seed ~stream ~i =
  match faults with
  | Some f -> Fault.derive f ~seed:(mix_seed seed ~stream ~i)
  | None -> Fault.none ()

let place node s =
  let vm =
    Velum_guests.Images.create_vm node.hyp ~name:s.vname ~paging:s.paging
      ~pv:(if s.pv then Vm.full_pv else Vm.no_pv)
      ~engine:s.engine s.setup
  in
  let faults = Host_ctx.faults (Hypervisor.ctx node.hyp) in
  if Fault.active faults then begin
    Blockdev.set_faults vm.Vm.blk faults;
    Virtio_blk.set_faults vm.Vm.vblk faults
  end;
  vm

let init cfg =
  let nodes =
    Array.init cfg.hosts (fun i ->
        let specs = cfg.mk_vms i in
        let frames_needed =
          List.fold_left (fun acc s -> acc + s.setup.Velum_guests.Images.frames) 0 specs
        in
        let frames =
          match cfg.host_frames with
          | Some n -> n
          | None -> frames_needed + 1024
        in
        let host = Host.create ~frames () in
        let node_faults = derive_plan cfg.faults ~seed:cfg.seed ~stream:0 ~i in
        let ctx =
          Host_ctx.create ~host ~seed:(mix_seed cfg.seed ~stream:1 ~i)
            ~faults:node_faults ()
        in
        let hyp = Hypervisor.create ~ctx () in
        if cfg.trace then Hypervisor.set_trace hyp (Trace.create ());
        let node = { id = i; hyp; alive = true; halted = false; error = None } in
        List.iter (fun s -> ignore (place node s)) specs;
        (* intra-host fabric (switch, vnet adapters, tickers): runs
           before the first round, in host order, on the coordinator *)
        Option.iter (fun w -> w i hyp) cfg.wire;
        node)
  in
  (* stream 2 stays unused: renumbering would shift the fault draws of
     every later stream *)
  let mig_link = Link.create () in
  Link.set_faults mig_link
    (derive_plan cfg.faults ~seed:cfg.seed ~stream:3 ~i:0);
  { cfg; nodes; mig_link; migrations = 0; mig_aborts = 0; mig_pages = 0 }

(* ---- worker phase (runs on a domain; touches only this node) ---- *)

let round_target cfg round = Int64.mul cfg.quantum (Int64.of_int (round + 1))

let step_node fleet node ~round =
  if node.alive then begin
    (* The budget targets the absolute round boundary: a host that
       overshot the previous boundary (idle fast-forward can do that)
       simply runs less now. *)
    let target = round_target fleet.cfg round in
    let now = Hypervisor.now node.hyp in
    let budget =
      if Int64.unsigned_compare target now > 0 then Int64.sub target now else 0L
    in
    match Hypervisor.run node.hyp ~budget with
    | Hypervisor.All_halted -> node.halted <- true
    | Hypervisor.Out_of_budget | Hypervisor.Idle_deadlock
    | Hypervisor.Until_satisfied ->
        ()
  end

(* ---- barrier phase (coordinator only; workers are parked) ---- *)

(* Runs strictly sequentially, so the migration link's state (arrival
   heaps, fault RNG draws, line occupancy) evolves identically whatever
   the domain count was during the worker phase.  Every [migrate_every]
   rounds the storm moves one runnable VM from host [tick mod hosts] to
   the next host; a tick whose pair is not both alive, or whose source
   has nothing runnable, is skipped, and the next tick tries the next
   pair. *)
let migrate_storm fleet ~round =
  let cfg = fleet.cfg in
  let k = cfg.migrate_every in
  if k > 0 && cfg.hosts > 1 && (round + 1) mod k = 0 then begin
    let si = (((round + 1) / k) - 1) mod cfg.hosts in
    let src = fleet.nodes.(si) and dst = fleet.nodes.((si + 1) mod cfg.hosts) in
    if src.alive && dst.alive then
      match
        List.find_opt (fun vm -> not (Vm.halted vm)) src.hyp.Hypervisor.vms
      with
      | None -> ()
      | Some vm ->
          let _moved, r =
            Migrate.stop_and_copy ~src:src.hyp ~dst:dst.hyp ~vm
              ~link:fleet.mig_link ()
          in
          fleet.migrations <- fleet.migrations + 1;
          fleet.mig_pages <- fleet.mig_pages + r.Migrate.pages_sent;
          if r.Migrate.aborted then fleet.mig_aborts <- fleet.mig_aborts + 1
  end

let apply_failure fleet ~round =
  match fleet.cfg.fail_host with
  | Some (r, h) when r = round -> fleet.nodes.(h).alive <- false
  | _ -> ()

let all_done fleet =
  Array.for_all (fun n -> (not n.alive) || n.halted) fleet.nodes

let check_worker_errors fleet =
  Array.iter
    (fun n -> match n.error with Some e -> raise e | None -> ())
    fleet.nodes

(* ---- drivers ---- *)

(* The one round loop: a scheduled failure takes effect, the worker
   phase [workers round] runs every live host up to the round boundary,
   then the coordinator alone migrates and calls [on_round], which may
   hand per-host work back to the stripes through [across]. *)
let run_rounds fleet ~on_round ~workers ~across =
  let round = ref 0 in
  let continue = ref true in
  while !continue && !round < fleet.cfg.rounds do
    apply_failure fleet ~round:!round;
    workers !round;
    migrate_storm fleet ~round:!round;
    on_round fleet ~across ~round:!round;
    if all_done fleet then continue := false;
    incr round
  done

(* Split the hosts into [m = min domains hosts] fixed stripes (host [i]
   is in stripe [i mod m]) and hand [body] two phases: [workers r] steps
   every host to round [r]'s boundary, [across f] runs [f i] for every
   host [i].  In both the calling domain takes stripe 0 itself while
   [m - 1] spawned domains take the others, each its hosts in increasing
   order; with [m = 1] that is the plain sequential loop.  Every stripe's
   exceptions are recorded per host and re-raised, in host order, once
   the phase is over.  Domains are joined however [body] ends. *)
let with_domains fleet ~domains body =
  let m = min domains fleet.cfg.hosts in
  (* the m stripes meet at both edges of every phase *)
  let start_b = Barrier.create ~parties:m in
  let done_b = Barrier.create ~parties:m in
  let job = ref (fun (_ : int) -> ()) in
  let stop = ref false in
  (* [job] and [stop] are written by the coordinator strictly before it
     enters [start_b] and read by workers strictly after they leave it;
     the barrier mutex orders those accesses, so plain refs are
     race-free here. *)
  let stripe f w =
    Array.iteri (fun i n -> if i mod m = w then try f i with e -> n.error <- Some e) fleet.nodes
  in
  let worker w =
    let live = ref true in
    while !live do
      Barrier.await start_b;
      if !stop then live := false
      else begin
        !job w;
        Barrier.await done_b
      end
    done
  in
  let doms = Array.init (m - 1) (fun w -> Domain.spawn (fun () -> worker (w + 1))) in
  let shutdown () =
    stop := true;
    Barrier.await start_b;
    Array.iter Domain.join doms
  in
  let run_phase f =
    job := stripe f;
    Barrier.await start_b;
    !job 0;
    Barrier.await done_b;
    check_worker_errors fleet
  in
  let workers r = run_phase (fun i -> step_node fleet fleet.nodes.(i) ~round:r) in
  (try body ~workers ~across:run_phase
   with e ->
     shutdown ();
     raise e);
  shutdown ();
  check_worker_errors fleet

(* ---- canonical report ---- *)

(* The determinism artifact: everything simulated, nothing about how the
   simulation was executed.  Domain count, worker-to-domain assignment
   and wall-clock time must never appear here — the whole point is that
   this string is byte-identical for any [domains]. *)
let report fleet =
  let cfg = fleet.cfg in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "fleet hosts=%d quantum=%Ld rounds=%d seed=%Ld faults=%b migrate_every=%d \
     fail_host=%s\n"
    cfg.hosts cfg.quantum cfg.rounds cfg.seed
    (match cfg.faults with Some f -> Fault.active f | None -> false)
    cfg.migrate_every
    (match cfg.fail_host with
    | Some (r, h) -> Printf.sprintf "%d@round%d" h r
    | None -> "none");
  Array.iter
    (fun node ->
      Printf.bprintf buf
        "host %d: alive=%b halted=%b cycles=%Ld guest=%Ld vmm=%Ld idle=%Ld \
         sched=%d\n"
        node.id node.alive node.halted
        (Hypervisor.now node.hyp)
        (Hypervisor.guest_cycles node.hyp)
        (Hypervisor.vmm_cycles node.hyp)
        node.hyp.Hypervisor.idle_cycles node.hyp.Hypervisor.sched_decisions;
      List.iter
        (fun vm ->
          Vm.publish_stats vm;
          Printf.bprintf buf "  vm %d %s: halted=%b instret=%Ld console=%S %s\n"
            vm.Vm.id vm.Vm.name (Vm.halted vm) (Vm.instret vm)
            (Vm.console_output vm)
            (Monitor.to_json vm.Vm.monitor))
        node.hyp.Hypervisor.vms;
      match Hypervisor.trace node.hyp with
      | Some tr ->
          Printf.bprintf buf "  trace %d %d\n" (Trace.events_recorded tr)
            (String.length (Trace.export_string tr))
      | None -> ())
    fleet.nodes;
  let fault_summary f =
    String.concat ""
      (List.filter_map
         (fun site ->
           let inj = Fault.injected f site in
           if inj > 0 then
             Some (Printf.sprintf " %s=%d" (Fault.site_name site) inj)
           else None)
         Fault.all_sites)
  in
  Printf.bprintf buf "migrations=%d aborts=%d pages=%d mig_bytes=%d\n"
    fleet.migrations fleet.mig_aborts fleet.mig_pages
    (Link.bytes_sent fleet.mig_link);
  (match cfg.faults with
  | Some _ ->
      Array.iter
        (fun node ->
          let f = Host_ctx.faults (Hypervisor.ctx node.hyp) in
          Printf.bprintf buf "faults host %d:%s\n" node.id (fault_summary f))
        fleet.nodes
  | None -> ());
  Buffer.contents buf

let traces fleet =
  Array.to_list fleet.nodes
  |> List.filter_map (fun node ->
         Option.map
           (fun tr -> (node.id, Trace.export_string tr))
           (Hypervisor.trace node.hyp))

type result = { fleet : fleet; report : string }

let set_alive node v = node.alive <- v
let clear_halted node = node.halted <- false

let run_fleet_across ?(domains = 1) ~on_round fleet =
  if domains <= 0 then
    invalid_arg "Parallel.run_fleet: domains must be positive";
  with_domains fleet ~domains (run_rounds fleet ~on_round)

let run_fleet ?domains ?(on_round = fun _ ~round:_ -> ()) fleet =
  run_fleet_across ?domains ~on_round:(fun fleet ~across:_ ~round -> on_round fleet ~round) fleet

let run ?(domains = 1) ?on_round cfg =
  if domains <= 0 then invalid_arg "Parallel.run: domains must be positive";
  let fleet = init cfg in
  run_fleet ~domains ?on_round fleet;
  { fleet; report = report fleet }
