open Velum_util

let reg_tx_kick = 0x00L
let reg_isr = 0x08L
let reg_tx_ring_base = 0x10L
let reg_tx_ring_size = 0x18L
let reg_rx_ring_base = 0x20L
let reg_rx_ring_size = 0x28L
let reg_sent = 0x30L
let reg_received = 0x38L
let reg_tx_dropped = 0x40L
let reg_rx_dropped = 0x48L
let reg_rx_overflow = 0x50L
let reg_kicks = 0x58L
let mmio_base = 0x4000_4000L
let max_frame = 9000

(* Status words (the guest zeroes its status array, so 0 = not yet
   completed).  TX: 0 stays "ok" after completion — the guest tracks
   completion by the used index, not the status — and 1 flags an error
   (matching [Virtio_ring.error_status], which [fail_slot] writes as a
   single byte).  RX: length-carrying, [(len lsl 8)] on delivery; frames
   are never empty so a delivered status is never 0. *)
let status_error = 1L

type t = {
  link : Link.t;
  endpoint : Link.endpoint;
  mem : Virtio_ring.guest_mem;
  mutable tx_base : int64;
  mutable tx_size : int64;
  mutable rx_base : int64;
  mutable rx_size : int64;
  mutable tx_ring : Virtio_ring.t option;
  mutable rx_ring : Virtio_ring.t option;
  backlog : string Ring.t; (* arrived, awaiting a guest rx buffer *)
  mutable irq : bool;
  mutable sent : int;
  mutable received : int;
  mutable tx_dropped : int;
  mutable tx_malformed : int;
  mutable rx_dropped : int;
  mutable rx_malformed : int;
  mutable rx_overflow : int;
  mutable kick_count : int;
  mutable now : int64;
}

let create ~link ~endpoint ~mem ?(backlog_capacity = 256) () =
  {
    link;
    endpoint;
    mem;
    tx_base = 0L;
    tx_size = 0L;
    rx_base = 0L;
    rx_size = 0L;
    tx_ring = None;
    rx_ring = None;
    backlog = Ring.create ~capacity:backlog_capacity;
    irq = false;
    sent = 0;
    received = 0;
    tx_dropped = 0;
    tx_malformed = 0;
    rx_dropped = 0;
    rx_malformed = 0;
    rx_overflow = 0;
    kick_count = 0;
    now = 0L;
  }

let make_ring t ~base ~size =
  let size = Int64.to_int size in
  if size > 0 && size land (size - 1) = 0 then
    Some (Virtio_ring.create ~mem:t.mem ~base ~size)
  else None

let tx_ring t =
  match t.tx_ring with
  | Some _ as r -> r
  | None ->
      t.tx_ring <- make_ring t ~base:t.tx_base ~size:t.tx_size;
      t.tx_ring

let rx_ring t =
  match t.rx_ring with
  | Some _ as r -> r
  | None ->
      t.rx_ring <- make_ring t ~base:t.rx_base ~size:t.rx_size;
      t.rx_ring

let write_status t (d : Virtio_ring.desc) v = ignore (t.mem.write_u64 d.status_gpa v)

(* One TX doorbell consumes the whole published batch: every slot in
   [used, avail) is executed (or failed) and completed in a single pass,
   so a burst of n frames costs the guest one VM exit. *)
let consume_tx t =
  match tx_ring t with
  | None -> ()
  | Some ring ->
      let slots = Virtio_ring.pending_slots ring in
      if slots <> [] then begin
        List.iter
          (fun (idx, d) ->
            match d with
            | None ->
                t.tx_malformed <- t.tx_malformed + 1;
                Virtio_ring.fail_slot ring idx
            | Some d ->
                let len = d.Virtio_ring.data_len in
                if len <= 0 || len > max_frame then begin
                  t.tx_dropped <- t.tx_dropped + 1;
                  write_status t d status_error
                end
                else begin
                  match t.mem.read_bytes d.data_gpa len with
                  | Some frame ->
                      ignore
                        (Link.send t.link ~from:t.endpoint ~now:t.now
                           ~payload:(Bytes.to_string frame));
                      t.sent <- t.sent + 1
                      (* status stays 0 = ok; completion is the used index *)
                  | None ->
                      t.tx_dropped <- t.tx_dropped + 1;
                      write_status t d status_error
                end)
          slots;
        Virtio_ring.complete ring ~count:(List.length slots);
        t.irq <- true
      end

let kick t =
  t.kick_count <- t.kick_count + 1;
  consume_tx t

(* Deliver backlogged frames into posted rx buffers, in order.  The
   guest reposts buffers with plain stores and tracks delivery by the
   used index + length-carrying status words — the rx path costs zero
   VM exits.  The walk reads a slot's descriptor when it reaches the
   slot: a malformed slot is failed and passed even with no frame
   waiting, and the first good slot with no frame for it ends the walk,
   so an idle tick reads the two indexes and one descriptor, not the
   whole posted ring. *)
let deliver_rx t =
  match rx_ring t with
  | None -> ()
  | Some ring ->
      let used, n = Virtio_ring.pending_range ring in
      let rec go i =
        if i = n then i
        else
          let idx = Int64.add used (Int64.of_int i) in
          match Virtio_ring.read_desc ring idx with
          | None ->
              (* bad buffer descriptor: consume the slot, keep the frame *)
              t.rx_malformed <- t.rx_malformed + 1;
              Virtio_ring.fail_slot ring idx;
              go (i + 1)
          | Some d -> (
              match Ring.peek t.backlog with
              | None -> i
              | Some frame ->
                let len = String.length frame in
                if len > d.Virtio_ring.data_len then begin
                  (* buffer too small: the frame cannot be delivered and
                     the buffer is returned with an error — both counted *)
                  ignore (Ring.pop t.backlog);
                  t.rx_dropped <- t.rx_dropped + 1;
                  write_status t d status_error
                end
                else if t.mem.write_bytes d.data_gpa (Bytes.of_string frame) then begin
                  ignore (Ring.pop t.backlog);
                  t.received <- t.received + 1;
                  write_status t d (Int64.of_int (len lsl 8))
                end
                else begin
                  ignore (Ring.pop t.backlog);
                  t.rx_dropped <- t.rx_dropped + 1;
                  write_status t d status_error
                end;
                go (i + 1))
      in
      let completed = go 0 in
      if completed > 0 then begin
        Virtio_ring.complete ring ~count:completed;
        t.irq <- true
      end

let tick t now =
  if Int64.unsigned_compare now t.now > 0 then t.now <- now;
  List.iter
    (fun frame ->
      if not (Ring.push t.backlog frame) then t.rx_overflow <- t.rx_overflow + 1)
    (Link.poll t.link ~at:t.endpoint ~now:t.now);
  deliver_rx t

let read_reg t off =
  if off = reg_isr then begin
    let v = if t.irq then 1L else 0L in
    t.irq <- false;
    v
  end
  else if off = reg_tx_ring_base then t.tx_base
  else if off = reg_tx_ring_size then t.tx_size
  else if off = reg_rx_ring_base then t.rx_base
  else if off = reg_rx_ring_size then t.rx_size
  else if off = reg_sent then Int64.of_int t.sent
  else if off = reg_received then Int64.of_int t.received
  else if off = reg_tx_dropped then Int64.of_int (t.tx_dropped + t.tx_malformed)
  else if off = reg_rx_dropped then Int64.of_int (t.rx_dropped + t.rx_malformed)
  else if off = reg_rx_overflow then Int64.of_int t.rx_overflow
  else if off = reg_kicks then Int64.of_int t.kick_count
  else 0L

let write_reg t off v =
  if off = reg_tx_kick then kick t
  else if off = reg_tx_ring_base then begin
    t.tx_base <- v;
    t.tx_ring <- None
  end
  else if off = reg_tx_ring_size then begin
    t.tx_size <- v;
    t.tx_ring <- None
  end
  else if off = reg_rx_ring_base then begin
    t.rx_base <- v;
    t.rx_ring <- None
  end
  else if off = reg_rx_ring_size then begin
    t.rx_size <- v;
    t.rx_ring <- None
  end

let device ?(base = mmio_base) t =
  {
    Velum_machine.Bus.name = "virtio-net";
    base;
    size = 0x100;
    read = (fun off _w -> read_reg t off);
    write = (fun off _w v -> write_reg t off v);
    tick = (fun now -> tick t now);
    pending_irq = (fun () -> t.irq || not (Ring.is_empty t.backlog));
  }

(* The device state: the ring layout and the frames that arrived but are
   not delivered yet. *)
let state t io =
  t.tx_base <- Serial.i64 io t.tx_base;
  t.tx_size <- Serial.i64 io t.tx_size;
  t.rx_base <- Serial.i64 io t.rx_base;
  t.rx_size <- Serial.i64 io t.rx_size;
  if Serial.loading io then begin
    t.tx_ring <- None;
    t.rx_ring <- None
  end;
  Serial.ring io (Serial.string io) "" t.backlog

let unplug t = Ring.clear t.backlog

let frames_sent t = t.sent
let frames_received t = t.received
let tx_dropped t = t.tx_dropped
let tx_malformed t = t.tx_malformed
let rx_dropped t = t.rx_dropped
let rx_malformed t = t.rx_malformed
let rx_overflow t = t.rx_overflow
let kicks t = t.kick_count
let backlog_length t = Ring.length t.backlog
let next_arrival t = Link.next_arrival t.link ~at:t.endpoint
let link t = t.link
let endpoint t = t.endpoint
