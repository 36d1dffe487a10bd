open Velum_devices
open Velum_vmm
module Fault = Velum_util.Fault

type host_lane = {
  spoke : Link.t;
  faults : Fault.t; (* this host's pre-wire Cluster_hb plan *)
  watch : Suspicion.t; (* in rounds; last heard = round of the last HB/ACK *)
  mutable next_probe : int;
  mutable probes_unanswered : int;
}

type t = {
  quantum : int64;
  backoff_rounds : int;
  lanes : host_lane array;
  mutable hb_sent : int;
  mutable hb_lost : int;
  mutable probes_sent : int;
  mutable acks_seen : int;
  mutable deaths : int;
}

(* The detector's per-host plans must be independent of the fleet
   runner's streams (0-3, 2 retired), so its stream ids start at 4. *)
let spoke_stream = 4
let prewire_stream = 5

let create ?(knobs = Ha.Failover.default_hb_knobs) ?faults ~hosts ~quantum
    ~seed () =
  if hosts <= 0 then invalid_arg "Detector.create: hosts must be positive";
  if Int64.compare quantum 0L <= 0 then
    invalid_arg "Detector.create: quantum must be positive";
  let { Ha.Failover.miss_limit; timeout; takeover_backoff = backoff } = knobs in
  let derive ~stream ~i = Parallel.derive_plan faults ~seed ~stream ~i in
  let lanes =
    Array.init hosts (fun i ->
        let spoke = Link.create () in
        Link.set_faults spoke (derive ~stream:spoke_stream ~i);
        {
          spoke;
          faults = derive ~stream:prewire_stream ~i;
          watch =
            Suspicion.create ~quantum ~backoff ~miss_limit ~timeout
              ~last_heard:(-1) ();
          next_probe = 0;
          probes_unanswered = 0;
        })
  in
  {
    quantum;
    backoff_rounds = Suspicion.rounds_of_cycles ~quantum backoff;
    lanes;
    hb_sent = 0;
    hb_lost = 0;
    probes_sent = 0;
    acks_seen = 0;
    deaths = 0;
  }

let declared_at t i = Suspicion.declared_at t.lanes.(i).watch
let spoke_bytes t = Array.fold_left (fun a l -> a + Link.bytes_sent l.spoke) 0 t.lanes

let disarm t i = Suspicion.disarm t.lanes.(i).watch

let rearm t i ~round =
  let l = t.lanes.(i) in
  Suspicion.rearm l.watch ~now:round;
  l.next_probe <- round + 1;
  l.probes_unanswered <- 0

let observe_round t ~alive ~round =
  let target = Int64.mul t.quantum (Int64.of_int (round + 1)) in
  let horizon = Int64.add target t.quantum in
  let newly_dead = ref [] in
  Array.iteri
    (fun i l ->
      if Suspicion.state l.watch <> Suspicion.Disarmed then begin
        (* -- host side (simulated here so the whole protocol runs in
              the coordinator phase): answer probes, emit heartbeat;
              the cluster.hb site may eat either before the wire -- *)
        let inbound = Link.poll_control l.spoke ~at:`A ~now:target in
        let send payload =
          let eaten = Fault.fire l.faults Fault.Cluster_hb ~now:target in
          if eaten then begin
            t.hb_lost <- t.hb_lost + 1;
            Fault.observe l.faults Fault.Cluster_hb
          end
          else ignore (Link.send_control l.spoke ~from:`A ~now:target ~payload);
          not eaten
        in
        if alive i then begin
          List.iter
            (fun p ->
              if String.starts_with ~prefix:"PROBE" p then
                ignore (send (Printf.sprintf "ACK %d %d" i round)))
            inbound;
          if send (Printf.sprintf "HB %d %d" i round) then
            t.hb_sent <- t.hb_sent + 1
        end;
        (* -- hub side: poll this round's arrivals, update suspicion -- *)
        let arrived = Link.poll_control l.spoke ~at:`B ~now:horizon in
        let acks = List.filter (String.starts_with ~prefix:"ACK") arrived in
        t.acks_seen <- t.acks_seen + List.length acks;
        let saw =
          acks <> [] || List.exists (String.starts_with ~prefix:"HB") arrived
        in
        match Suspicion.state l.watch with
        | Suspicion.Dead | Suspicion.Disarmed -> ()
        | (Suspicion.Up | Suspicion.Suspect) as before ->
            if saw then begin
              Suspicion.heard l.watch ~now:round;
              l.probes_unanswered <- 0
            end
            else if Suspicion.missed l.watch ~now:round then begin
              t.deaths <- t.deaths + 1;
              newly_dead := i :: !newly_dead
            end
            else begin
              (* still suspect: probe with exponential backoff so a
                 flaky-but-alive host is re-checked without flooding
                 the control lane *)
              if before = Suspicion.Up then l.next_probe <- round;
              if round >= l.next_probe then begin
                t.probes_sent <- t.probes_sent + 1;
                ignore
                  (Link.send_control l.spoke ~from:`B ~now:horizon
                     ~payload:(Printf.sprintf "PROBE %d %d" i round));
                l.probes_unanswered <- l.probes_unanswered + 1;
                let step =
                  max 1 t.backoff_rounds
                  * (1 lsl min 8 (l.probes_unanswered - 1))
                in
                l.next_probe <- round + step
              end
            end
      end)
    t.lanes;
  List.rev !newly_dead

let run_watched ?knobs ?domains (cfg : Parallel.config) =
  let fleet = Parallel.init cfg in
  let det =
    create ?knobs ?faults:cfg.faults ~hosts:cfg.hosts ~quantum:cfg.quantum
      ~seed:cfg.seed ()
  in
  Parallel.run_fleet ?domains fleet ~on_round:(fun fl ~round ->
      ignore
        (observe_round det ~alive:(fun i -> fl.Parallel.nodes.(i).Parallel.alive) ~round));
  (fleet, det)

type stats = {
  hb_sent : int;
  hb_lost : int;
  probes_sent : int;
  acks_seen : int;
  deaths : int;
}

let stats (t : t) =
  {
    hb_sent = t.hb_sent;
    hb_lost = t.hb_lost;
    probes_sent = t.probes_sent;
    acks_seen = t.acks_seen;
    deaths = t.deaths;
  }

let summary (t : t) =
  Printf.sprintf
    "detector: hb_sent=%d hb_lost=%d probes=%d acks=%d deaths=%d bytes=%d\n"
    t.hb_sent t.hb_lost t.probes_sent t.acks_seen t.deaths (spoke_bytes t)
