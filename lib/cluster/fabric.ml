open Velum_util
open Velum_devices
open Velum_vmm
open Velum_guests

type shape = {
  backends : int;
  clients : int;
  requests : int;
  batch : int;
  service : int;
}

let n_ports s = 1 + s.backends + s.clients
let mac p = Int64.of_int (0x10 + p)

let mk_vms s =
  let plan user = Images.plan ~heap_pages:2 ~vnet:true ~user () in
  let lb =
    plan
      (Workloads.vnet_lb ~my_mac:(mac 0)
         ~backends:(List.init s.backends (fun b -> mac (1 + b))))
  in
  let backend b =
    plan (Workloads.vnet_backend ~my_mac:(mac (1 + b)) ~service:s.service)
  in
  let client c =
    plan
      (Workloads.vnet_client ~my_mac:(mac (1 + s.backends + c)) ~lb_mac:(mac 0)
         ~peers:(n_ports s - 1) ~requests:s.requests ~batch:s.batch ~gap:500)
  in
  fun _host ->
    [ Parallel.spec ~name:"lb" lb ]
    @ List.init s.backends (fun b ->
          Parallel.spec ~name:(Printf.sprintf "backend%d" b) (backend b))
    @ List.init s.clients (fun c ->
          Parallel.spec ~name:(Printf.sprintf "client%d" c) (client c))

type cell = { sw : Switch.t; ports : Link.t array; mutable latencies : int list }

(* Static MAC entries keep early traffic off the unknown-unicast path
   (guests still broadcast a boot announce).  The snoop fires inside the
   worker phase, so everything it touches is per-host. *)
let wire ?faults s ~cell hyp =
  let ports =
    Array.init (n_ports s) (fun _ ->
        Link.create ~bytes_per_cycle:1.0 ~latency_cycles:200 ())
  in
  Option.iter
    (fun base ->
      Array.iteri
        (fun p l ->
          Link.set_faults l
            (Fault.derive base ~seed:(Int64.of_int (7_001 + (cell * 97) + p))))
        ports)
    faults;
  let sw = Switch.create ports in
  Array.iteri (fun p _ -> Switch.learn sw ~mac:(mac p) ~port:p) ports;
  let c = { sw; ports; latencies = [] } in
  Switch.set_snoop sw
    (Some
       (fun port now frame ->
         (* a reply crossing toward a client port closes a request *)
         if
           port > s.backends
           && String.length frame >= 48
           && String.get_int64_le frame 16 = 2L
         then
           c.latencies <-
             Int64.to_int (Int64.sub now (String.get_int64_le frame 32))
             :: c.latencies));
  Hypervisor.add_ticker hyp (Switch.tick sw);
  Hypervisor.add_event_source hyp (fun () -> Switch.next_event sw);
  List.iteri
    (fun p vm -> ignore (Vm.attach_vnet vm ~link:ports.(p) ~endpoint:`A))
    hyp.Hypervisor.vms;
  c

let host_vnets hyp = List.filter_map (fun vm -> vm.Vm.vnet) hyp.Hypervisor.vms
let sum_vnets vnets f = List.fold_left (fun a v -> a + f v) 0 vnets
let sum_ports c f = Array.fold_left (fun a l -> a + f l) 0 c.ports

let check_conserved c vnets =
  if not (Switch.conserved c.sw) then failwith "switch conservation violated";
  let sum = sum_vnets vnets and psum = sum_ports c in
  let lhs =
    sum Virtio_net.frames_sent + psum Link.wire_duplicated
    + Switch.flood_extra c.sw
  in
  let rhs =
    sum Virtio_net.frames_received + sum Virtio_net.rx_dropped
    + sum Virtio_net.rx_overflow + Switch.drops c.sw + psum Link.wire_dropped
    + psum Link.in_flight + sum Virtio_net.backlog_length
  in
  if lhs <> rhs then
    failwith (Printf.sprintf "frame conservation violated (%d <> %d)" lhs rhs)

type totals = {
  sent : int;
  received : int;
  sw_drops : int;
  wire_dropped : int;
  kicks : int;
}

let totals parts =
  let sum f = List.fold_left (fun a part -> a + f part) 0 parts in
  let vsum f = sum (fun (_, vnets) -> sum_vnets vnets f) in
  {
    sent = vsum Virtio_net.frames_sent;
    received = vsum Virtio_net.frames_received;
    sw_drops = sum (fun (c, _) -> Switch.drops c.sw);
    wire_dropped = sum (fun (c, _) -> sum_ports c Link.wire_dropped);
    kicks = vsum Virtio_net.kicks;
  }

let frames_per_kick t =
  if t.kicks = 0 then "-"
  else Printf.sprintf "%.2f" (float_of_int t.sent /. float_of_int t.kicks)

type tail = { replies : int; p50 : int; p95 : int; p99 : int; max : int }

let tail latencies =
  match Array.of_list latencies with
  | [||] -> { replies = 0; p50 = 0; p95 = 0; p99 = 0; max = 0 }
  | a ->
      let at = Stats.nearest_rank a in
      {
        replies = Array.length a;
        p50 = at 50.0;
        p95 = at 95.0;
        p99 = at 99.0;
        max = at 100.0;
      }

let digest_line ~host c vnets =
  let t = totals [ (c, vnets) ] and l = tail c.latencies in
  Printf.sprintf
    "host%d replies=%d p50=%d p95=%d p99=%d max=%d sent=%d recv=%d \
     sw_drops=%d wire_drop=%d kicks=%d\n"
    host l.replies l.p50 l.p95 l.p99 l.max t.sent t.received t.sw_drops t.wire_dropped
    t.kicks

type run = { report : string; digest : string; latencies : int list; fleet : totals }

let run ?faults ?domains s ~hosts ~quantum ~rounds ~seed =
  let cells = Array.make hosts None in
  let wire i hyp = cells.(i) <- Some (wire ?faults s ~cell:i hyp) in
  let r =
    Parallel.run ?domains
      (Parallel.config ~quantum ~rounds ~seed ~hosts ~wire ~mk_vms:(mk_vms s) ())
  in
  let parts =
    List.init hosts (fun i ->
        let node = r.Parallel.fleet.Parallel.nodes.(i) in
        (Option.get cells.(i), host_vnets node.Parallel.hyp))
  in
  let digest =
    List.mapi
      (fun i (c, vnets) ->
        (try check_conserved c vnets
         with Failure m -> failwith (Printf.sprintf "host%d: %s" i m));
        digest_line ~host:i c vnets)
      parts
  in
  {
    report = r.Parallel.report;
    digest = String.concat "" digest;
    latencies = List.concat_map (fun ((c : cell), _) -> c.latencies) parts;
    fleet = totals parts;
  }
