open Velum_util

let reg_tx_addr = 0x00L
let reg_tx_len = 0x08L
let reg_tx_cmd = 0x10L
let reg_rx_len = 0x18L
let reg_rx_dma = 0x20L
let reg_rx_cmd = 0x28L
let reg_frames_sent = 0x30L
let reg_frames_received = 0x38L
let reg_tx_dropped = 0x40L
let reg_rx_dropped = 0x48L
let reg_rx_overflow = 0x50L
let mmio_base = 0x4000_1000L
let max_frame = 9000

type link_binding = Link.t * Link.endpoint

type t = {
  link : Link.t;
  endpoint : Link.endpoint;
  dma : Blockdev.dma;
  rx : string Ring.t;
  mutable tx_addr : int64;
  mutable tx_len : int64;
  mutable rx_dma : int64;
  mutable sent : int;
  mutable received : int;
  mutable tx_dropped : int;
  mutable rx_dropped : int;
  mutable rx_overflow : int;
  mutable now : int64;
}

let create ~link ~endpoint ~dma ?(rx_capacity = 256) () =
  {
    link;
    endpoint;
    dma;
    rx = Ring.create ~capacity:rx_capacity;
    tx_addr = 0L;
    tx_len = 0L;
    rx_dma = 0L;
    sent = 0;
    received = 0;
    tx_dropped = 0;
    rx_dropped = 0;
    rx_overflow = 0;
    now = 0L;
  }

(* [sent] counts frames actually handed to the wire; everything else a
   TX doorbell can do to a frame (bad length, unreadable DMA source)
   lands in [tx_dropped].  Wire losses are the link's to count. *)
let transmit t =
  let len = Int64.to_int t.tx_len in
  if len <= 0 || len > max_frame then t.tx_dropped <- t.tx_dropped + 1
  else
    match t.dma.dma_read t.tx_addr len with
    | Some frame ->
        ignore
          (Link.send t.link ~from:t.endpoint ~now:t.now ~payload:(Bytes.to_string frame));
        t.sent <- t.sent + 1
    | None -> t.tx_dropped <- t.tx_dropped + 1

(* The frame leaves the queue either delivered ([received]) or counted
   ([rx_dropped]) — never destroyed silently by a bad RX_DMA target. *)
let receive t =
  match Ring.pop t.rx with
  | Some frame ->
      if t.dma.dma_write t.rx_dma (Bytes.of_string frame) then
        t.received <- t.received + 1
      else t.rx_dropped <- t.rx_dropped + 1
  | None -> ()

let tick t now =
  if Int64.unsigned_compare now t.now > 0 then t.now <- now;
  List.iter
    (fun frame ->
      if not (Ring.push t.rx frame) then t.rx_overflow <- t.rx_overflow + 1)
    (Link.poll t.link ~at:t.endpoint ~now:t.now)

(* The device state: the DMA registers and the received frames not yet
   read. *)
let state t io =
  t.tx_addr <- Serial.i64 io t.tx_addr;
  t.tx_len <- Serial.i64 io t.tx_len;
  t.rx_dma <- Serial.i64 io t.rx_dma;
  Serial.ring io (Serial.string io) "" t.rx

let read_reg t off =
  if off = reg_rx_len then
    match Ring.peek t.rx with
    | Some frame -> Int64.of_int (String.length frame)
    | None -> 0L
  else if off = reg_frames_sent then Int64.of_int t.sent
  else if off = reg_frames_received then Int64.of_int t.received
  else if off = reg_tx_dropped then Int64.of_int t.tx_dropped
  else if off = reg_rx_dropped then Int64.of_int t.rx_dropped
  else if off = reg_rx_overflow then Int64.of_int t.rx_overflow
  else if off = reg_tx_addr then t.tx_addr
  else if off = reg_tx_len then t.tx_len
  else if off = reg_rx_dma then t.rx_dma
  else 0L

let write_reg t off v =
  if off = reg_tx_addr then t.tx_addr <- v
  else if off = reg_tx_len then t.tx_len <- v
  else if off = reg_tx_cmd then transmit t
  else if off = reg_rx_dma then t.rx_dma <- v
  else if off = reg_rx_cmd then receive t

let device ?(base = mmio_base) t =
  {
    Velum_machine.Bus.name = "nic";
    base;
    size = 0x100;
    read = (fun off _w -> read_reg t off);
    write = (fun off _w v -> write_reg t off v);
    tick = (fun now -> tick t now);
    pending_irq = (fun () -> not (Ring.is_empty t.rx));
  }

let frames_sent t = t.sent
let frames_received t = t.received
let tx_dropped t = t.tx_dropped
let rx_dropped t = t.rx_dropped
let rx_overflow t = t.rx_overflow
let rx_queue_length t = Ring.length t.rx
let next_arrival t = Link.next_arrival t.link ~at:t.endpoint
let binding t = (t.link, t.endpoint)
