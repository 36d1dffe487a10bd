module Serial = Velum_util.Serial

let sector_bytes = 512
let reg_cmd = 0x00L
let reg_sector = 0x08L
let reg_count = 0x10L
let reg_dma = 0x18L
let reg_status = 0x20L
let cmd_read = 1L
let cmd_write = 2L
let status_idle = 0L
let status_busy = 1L
let status_done = 2L
let status_error = 3L
let mmio_base = 0x4000_2000L

(* Default latency model: a fixed per-command overhead plus a per-byte
   streaming cost, in cycles. *)
let seek_cycles = 2_000
let cycles_per_byte = 2

type dma = {
  dma_read : int64 -> int -> Bytes.t option;
  dma_write : int64 -> Bytes.t -> bool;
}

type pending = { finish_at : int64; ok : bool }

type t = {
  store : Backing.t; (* extents allocated on their first write *)
  nsectors : int;
  dma : dma;
  mutable sector : int64;
  mutable count : int64;
  mutable dma_addr : int64;
  mutable status : int64;
  mutable pending : pending option;
  mutable irq : bool;
  mutable ops : int;
  mutable errors : int;
  mutable now : int64;
  mutable faults : Velum_util.Fault.t;
  mutable broken : bool; (* a permanent fault fired: fail everything *)
}

let create ?(sectors = 8192) dma =
  if sectors <= 0 then invalid_arg "Blockdev.create: sectors must be positive";
  {
    store = Backing.create ~bytes:(sectors * sector_bytes);
    nsectors = sectors;
    dma;
    sector = 0L;
    count = 0L;
    dma_addr = 0L;
    status = status_idle;
    pending = None;
    irq = false;
    ops = 0;
    errors = 0;
    now = 0L;
    faults = Velum_util.Fault.none ();
    broken = false;
  }

let sectors t = t.nsectors
let set_faults t f = t.faults <- f
let error_count t = t.errors

let resident_bytes t = Backing.resident_bytes t.store

(* Sectors [s .. s+c-1] lie on the disk; [s + c] and [s * sector_bytes]
   are never formed before this holds, so neither can overflow. *)
let sectors_ok t ~sector:s ~count:c = c >= 0 && c <= t.nsectors && s >= 0 && s <= t.nsectors - c

let load t ~sector s =
  let len = String.length s in
  if not (sectors_ok t ~sector ~count:((len + sector_bytes - 1) / sector_bytes)) then
    invalid_arg "Blockdev.load: out of range";
  Backing.blit_from_string t.store ~off:(sector * sector_bytes) s

let read_back t ~sector ~count =
  if not (sectors_ok t ~sector ~count) then invalid_arg "Blockdev.read_back: out of range";
  Backing.sub_string t.store ~off:(sector * sector_bytes) ~len:(count * sector_bytes)

(* Byte-addressed host-side access: the durable snapshot store writes
   records that straddle sector boundaries, and its power-failure model
   cuts a write at an arbitrary *byte*, so sector granularity would hide
   exactly the torn states it must exercise. *)
let pwrite t ~off b ~pos ~len =
  if pos < 0 || pos > Bytes.length b - len || not (Backing.in_range t.store ~off ~len)
  then invalid_arg "Blockdev.pwrite: out of range";
  Backing.blit_from t.store ~off b ~pos ~len

let pequal t ~off b ~pos ~len =
  if pos < 0 || pos > Bytes.length b - len || not (Backing.in_range t.store ~off ~len)
  then invalid_arg "Blockdev.pequal: out of range";
  Backing.equal_range t.store ~off b ~pos ~len

let pequal_by t ~off ~len eq =
  if not (Backing.in_range t.store ~off ~len) then invalid_arg "Blockdev.pequal_by: out of range";
  Backing.equal_by t.store ~off ~len eq

let pcopy t ~src ~dst ~len =
  if not (Backing.in_range t.store ~off:src ~len && Backing.in_range t.store ~off:dst ~len)
  then invalid_arg "Blockdev.pcopy: out of range";
  Backing.copy_within t.store ~src ~dst ~len

let pread t ~off ~len =
  if not (Backing.in_range t.store ~off ~len) then
    invalid_arg "Blockdev.pread: out of range";
  Backing.sub t.store ~off ~len

let capacity_bytes t = t.nsectors * sector_bytes

let copy t =
  { (create ~sectors:t.nsectors t.dma) with store = Backing.copy t.store }

(* Checked on the 64-bit register values: [Int64.to_int] drops the top
   bit, so converting first would alias a huge sector onto a small one. *)
let valid_range t =
  let n = Int64.of_int t.nsectors in
  t.count > 0L && t.count <= n && t.sector >= 0L && t.sector <= Int64.sub n t.count

let fail_now t =
  t.status <- status_error;
  t.errors <- t.errors + 1;
  t.irq <- true

(* Perform the data movement immediately; expose completion after the
   latency so guests observe an asynchronous device. *)
let start_command t cmd =
  if t.status = status_busy then ()
  else if cmd <> cmd_read && cmd <> cmd_write then
    (* Malformed command: reject immediately, no seek latency. *)
    fail_now t
  else if not (valid_range t) then fail_now t
  else begin
    let module F = Velum_util.Fault in
    if F.fire t.faults F.Blk_permanent ~now:t.now then t.broken <- true;
    let injected =
      if t.broken then begin
        F.observe t.faults F.Blk_permanent;
        true
      end
      else if F.fire t.faults F.Blk_transient ~now:t.now then begin
        F.observe t.faults F.Blk_transient;
        true
      end
      else false
    in
    let s = Int64.to_int t.sector and c = Int64.to_int t.count in
    let off = s * sector_bytes in
    let len = c * sector_bytes in
    let ok =
      if injected then false
      else if cmd = cmd_read then
        t.dma.dma_write t.dma_addr (Backing.sub t.store ~off ~len)
      else begin
        match t.dma.dma_read t.dma_addr len with
        | Some b ->
            Backing.blit_from t.store ~off b ~pos:0 ~len;
            true
        | None -> false
      end
    in
    let latency = seek_cycles + (len * cycles_per_byte) in
    t.status <- status_busy;
    t.pending <- Some { finish_at = Int64.add t.now (Int64.of_int latency); ok }
  end

let tick t now =
  (* ticks may arrive from lagging pCPUs: device time is monotonic *)
  if Int64.unsigned_compare now t.now > 0 then t.now <- now;
  match t.pending with
  | Some { finish_at; ok } when Int64.unsigned_compare t.now finish_at >= 0 ->
      t.pending <- None;
      t.status <- (if ok then status_done else status_error);
      if not ok then t.errors <- t.errors + 1;
      t.ops <- t.ops + 1;
      t.irq <- true
  | _ -> ()

(* The device state: the registers, the command in flight with its
   finish time relative to the device clock, the interrupt line and the
   counters.  The disk's contents and fault plan are not state. *)
let state t io ~now =
  let now = if Serial.loading io then now else t.now in
  t.sector <- Serial.i64 io t.sector;
  t.count <- Serial.i64 io t.count;
  t.dma_addr <- Serial.i64 io t.dma_addr;
  t.status <- Int64.of_int (Serial.int ~max:3 io (Int64.to_int t.status));
  let pending p =
    let rel = Serial.i64 io (Int64.sub p.finish_at t.now) in
    { finish_at = Int64.add now rel; ok = Serial.bool io p.ok }
  in
  t.pending <-
    List.nth_opt
      (Serial.list ~max:1 io pending { finish_at = 0L; ok = false } (Option.to_list t.pending))
      0;
  t.irq <- Serial.bool io t.irq;
  t.ops <- Serial.int ~max:max_int io t.ops;
  t.errors <- Serial.int ~max:max_int io t.errors;
  t.now <- now

let read_reg t off =
  if off = reg_status then begin
    let v = t.status in
    if t.status = status_done || t.status = status_error then begin
      t.status <- status_idle;
      t.irq <- false
    end;
    v
  end
  else if off = reg_sector then t.sector
  else if off = reg_count then t.count
  else if off = reg_dma then t.dma_addr
  else 0L

let write_reg t off v =
  if off = reg_cmd then start_command t v
  else if off = reg_sector then t.sector <- v
  else if off = reg_count then t.count <- v
  else if off = reg_dma then t.dma_addr <- v

let device ?(base = mmio_base) t =
  {
    Velum_machine.Bus.name = "blockdev";
    base;
    size = 0x100;
    read = (fun off _w -> read_reg t off);
    write = (fun off _w v -> write_reg t off v);
    tick = (fun now -> tick t now);
    pending_irq = (fun () -> t.irq);
  }

let completed_ops t = t.ops
let busy t = t.status = status_busy

let next_completion t =
  match t.pending with None -> None | Some { finish_at; _ } -> Some finish_at
