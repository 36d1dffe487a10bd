(* Software L2 switch: N ports, each the [`B] end of a point-to-point
   {!Link} whose [`A] end is a VM's NIC.  Forwarding is store-and-poll:
   each tick drains every port's arrivals in port order and re-enqueues
   them toward their destination port, so contention, queueing and loss
   all happen on the per-port links and every non-forwarded frame lands
   in a named drop counter. *)

let broadcast_mac = -1L (* ff:ff:ff:ff:ff:ff:ff:ff *)
let header_bytes = 16 (* dst mac u64 + src mac u64; shorter = runt *)

let mac_dst frame = String.get_int64_le frame 0
let mac_src frame = String.get_int64_le frame 8

type t = {
  ports : Link.t array;
  macs : int Velum_util.Keytbl.I64.t;
  queue_cap : int;
  snoop : (int -> int64 -> string -> unit) option ref;
  mutable in_frames : int;
  mutable out_frames : int;
  mutable flood_extra : int;
  mutable drop_unknown : int;
  mutable drop_reflect : int;
  mutable drop_runt : int;
  mutable drop_queue_full : int;
  mutable now : int64;
}

let create ?(queue_cap = 64) ports =
  if Array.length ports = 0 then invalid_arg "Switch.create: no ports";
  if queue_cap <= 0 then invalid_arg "Switch.create: queue_cap must be positive";
  {
    ports;
    macs = Velum_util.Keytbl.I64.create 16;
    queue_cap;
    snoop = ref None;
    in_frames = 0;
    out_frames = 0;
    flood_extra = 0;
    drop_unknown = 0;
    drop_reflect = 0;
    drop_runt = 0;
    drop_queue_full = 0;
    now = 0L;
  }

let port_count t = Array.length t.ports
let port t i = t.ports.(i)
let learn t ~mac ~port = Velum_util.Keytbl.I64.replace t.macs mac port
let lookup t mac = Velum_util.Keytbl.I64.find_opt t.macs mac
let set_snoop t f = t.snoop := f

(* Bounded egress: a full queue toward the VM is an explicit drop, not
   unbounded buffering. *)
let egress t i frame =
  let link = t.ports.(i) in
  if Link.queued link ~at:`A >= t.queue_cap then
    t.drop_queue_full <- t.drop_queue_full + 1
  else begin
    ignore (Link.send link ~from:`B ~now:t.now ~payload:frame);
    t.out_frames <- t.out_frames + 1;
    match !(t.snoop) with Some f -> f i t.now frame | None -> ()
  end

let ingress t i frame =
  t.in_frames <- t.in_frames + 1;
  if String.length frame < header_bytes then t.drop_runt <- t.drop_runt + 1
  else begin
    let dst = mac_dst frame and src = mac_src frame in
    learn t ~mac:src ~port:i;
    if dst = broadcast_mac then begin
      let copies = port_count t - 1 in
      if copies > 1 then t.flood_extra <- t.flood_extra + (copies - 1);
      Array.iteri (fun j _ -> if j <> i then egress t j frame) t.ports
    end
    else
      match lookup t dst with
      | None -> t.drop_unknown <- t.drop_unknown + 1
      | Some j when j = i -> t.drop_reflect <- t.drop_reflect + 1
      | Some j -> egress t j frame
  end

let tick t now =
  (* Two hypervisors can share a switch during a live migration; their
     clocks only ever move this one forward. *)
  if Int64.unsigned_compare now t.now > 0 then t.now <- now;
  Array.iteri
    (fun i link ->
      List.iter (ingress t i) (Link.poll link ~at:`B ~now:t.now))
    t.ports

let next_event t =
  Array.fold_left
    (fun acc link ->
      match (Link.next_arrival link ~at:`B, acc) with
      | None, acc -> acc
      | Some a, None -> Some a
      | Some a, Some b -> Some (if Int64.unsigned_compare a b < 0 then a else b))
    None t.ports

let in_frames t = t.in_frames
let out_frames t = t.out_frames
let flood_extra t = t.flood_extra
let drop_unknown t = t.drop_unknown
let drop_runt t = t.drop_runt
let drop_queue_full t = t.drop_queue_full

let drops t = t.drop_unknown + t.drop_reflect + t.drop_runt + t.drop_queue_full

(* Conservation: every ingress frame (plus flood copies) either left on
   a port or is in a named counter. *)
let conserved t = t.in_frames + t.flood_extra = t.out_frames + drops t

let pp ppf t =
  Format.fprintf ppf
    "switch: in=%d out=%d flood_extra=%d drop{unknown=%d reflect=%d runt=%d \
     queue_full=%d}"
    t.in_frames t.out_frames t.flood_extra t.drop_unknown t.drop_reflect
    t.drop_runt t.drop_queue_full
