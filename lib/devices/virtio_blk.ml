module Serial = Velum_util.Serial

let reg_kick = 0x00L
let reg_isr = 0x08L
let reg_ring_base = 0x10L
let reg_ring_size = 0x18L
let kind_read = 1L
let kind_write = 2L
let mmio_base = 0x4000_3000L

let sector_bytes = Blockdev.sector_bytes
let seek_cycles = 2_000
let cycles_per_byte = 2

(* A batch completes every slot it consumed — malformed slots included,
   otherwise the in-order used index desynchronizes from avail and the
   guest spins on a status byte that will never be written. *)
type completion =
  | Exec of int64 * bool (* status_gpa, ok *)
  | Bad_slot of int64 (* free-running ring index of a malformed slot *)

type batch = { finish_at : int64; completions : completion list }

type t = {
  store : Backing.t; (* extents allocated on their first write *)
  nsectors : int;
  mem : Virtio_ring.guest_mem;
  mutable ring : Virtio_ring.t option;
  mutable ring_base : int64;
  mutable ring_size : int64;
  mutable batches : batch list; (* oldest first *)
  mutable irq : bool;
  mutable ops : int;
  mutable error_count : int;
  mutable kick_count : int;
  mutable now : int64;
  mutable faults : Velum_util.Fault.t;
  mutable broken : bool; (* a permanent fault fired: fail everything *)
}

let create ?(sectors = 8192) mem =
  if sectors <= 0 then invalid_arg "Virtio_blk.create: sectors must be positive";
  {
    store = Backing.create ~bytes:(sectors * sector_bytes);
    nsectors = sectors;
    mem;
    ring = None;
    ring_base = 0L;
    ring_size = 0L;
    batches = [];
    irq = false;
    ops = 0;
    error_count = 0;
    kick_count = 0;
    now = 0L;
    faults = Velum_util.Fault.none ();
    broken = false;
  }

let sectors t = t.nsectors
let set_faults t f = t.faults <- f
let error_count t = t.error_count

let resident_bytes t = Backing.resident_bytes t.store

(* Sectors [s .. s+c-1] lie on the disk; [s + c] and [s * sector_bytes]
   are never formed before this holds, so neither can overflow. *)
let sectors_ok t ~sector:s ~count:c = c >= 0 && c <= t.nsectors && s >= 0 && s <= t.nsectors - c

let load t ~sector s =
  let len = String.length s in
  if not (sectors_ok t ~sector ~count:((len + sector_bytes - 1) / sector_bytes)) then
    invalid_arg "Virtio_blk.load: out of range";
  Backing.blit_from_string t.store ~off:(sector * sector_bytes) s

let read_back t ~sector ~count =
  if not (sectors_ok t ~sector ~count) then invalid_arg "Virtio_blk.read_back: out of range";
  Backing.sub_string t.store ~off:(sector * sector_bytes) ~len:(count * sector_bytes)

(* The ring size the registers hold, or 0 when it is not a power of two. *)
let ring_slots t =
  let size = Int64.to_int t.ring_size in
  if size > 0 && size land (size - 1) = 0 then size else 0

let setup_ring t =
  match t.ring with
  | Some r -> Some r
  | None ->
      let size = ring_slots t in
      if size > 0 then begin
        let r = Virtio_ring.create ~mem:t.mem ~base:t.ring_base ~size in
        t.ring <- Some r;
        Some r
      end
      else None

(* Execute one descriptor against the backing store; data moves now,
   completion (status byte + used index) is deferred to the batch's
   finish time. *)
let exec_desc t (d : Virtio_ring.desc) =
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
  let len = d.data_len and count = d.data_len / sector_bytes in
  (* Checked on the 64-bit sector before [Int64.to_int], which drops the
     top bit and would alias a huge sector onto a small one. *)
  let in_disk =
    len > 0
    && len mod sector_bytes = 0
    && count <= t.nsectors
    && d.arg >= 0L
    && d.arg <= Int64.of_int (t.nsectors - count)
  in
  let off = if in_disk then Int64.to_int d.arg * sector_bytes else 0 in
  let ok =
    (not injected)
    && in_disk
    &&
    if d.kind = kind_read then t.mem.write_bytes d.data_gpa (Backing.sub t.store ~off ~len)
    else if d.kind = kind_write then begin
      match t.mem.read_bytes d.data_gpa len with
      | Some b ->
          Backing.blit_from t.store ~off b ~pos:0 ~len;
          true
      | None -> false
    end
    else false
  in
  (d.status_gpa, ok, len)

let kick t =
  t.kick_count <- t.kick_count + 1;
  match setup_ring t with
  | None -> ()
  | Some ring ->
      let slots = Virtio_ring.pending_slots ring in
      if slots <> [] then begin
        let results =
          List.map
            (fun (idx, d) ->
              match d with
              | Some d ->
                  let gpa, ok, len = exec_desc t d in
                  (Exec (gpa, ok), len)
              | None -> (Bad_slot idx, 0))
            slots
        in
        let total_bytes = List.fold_left (fun acc (_, len) -> acc + len) 0 results in
        let latency = seek_cycles + (total_bytes * cycles_per_byte) in
        let completions = List.map fst results in
        t.batches <-
          t.batches @ [ { finish_at = Int64.add t.now (Int64.of_int latency); completions } ]
      end

let finish_batch t b =
  List.iter
    (function
      | Exec (status_gpa, ok) ->
          if not ok then t.error_count <- t.error_count + 1;
          ignore
            (t.mem.write_bytes status_gpa (Bytes.make 1 (if ok then '\000' else '\001')))
      | Bad_slot idx ->
          t.error_count <- t.error_count + 1;
          Option.iter (fun ring -> Virtio_ring.fail_slot ring idx) t.ring)
    b.completions;
  (match t.ring with
  | Some ring -> Virtio_ring.complete ring ~count:(List.length b.completions)
  | None -> ());
  t.ops <- t.ops + List.length b.completions;
  t.irq <- true

let tick t now =
  if Int64.unsigned_compare now t.now > 0 then t.now <- now;
  let rec drain () =
    match t.batches with
    | b :: rest when Int64.unsigned_compare t.now b.finish_at >= 0 ->
        t.batches <- rest;
        finish_batch t b;
        drain ()
    | _ -> ()
  in
  drain ()

(* The device state: the ring layout, each batch in flight with its
   finish time relative to the device clock, the interrupt line and the
   counters.  The disk's contents and fault plan are not state.  A batch
   completes through the ring's used index, so a loaded one needs a ring
   whose header lies in the [ram_bytes] of guest RAM, and a slot per
   entry. *)
let state t io ~now ~ram_bytes =
  let now = if Serial.loading io then now else t.now in
  t.ring_base <- Serial.i64 io t.ring_base;
  t.ring_size <- Serial.i64 io t.ring_size;
  let slots =
    if t.ring_base >= 0L && t.ring_base <= Int64.of_int (ram_bytes - 16) then ring_slots t
    else 0
  in
  let completion c =
    let tag, v = match c with Exec (gpa, ok) -> (Bool.to_int ok, gpa) | Bad_slot i -> (2, i) in
    let tag = Serial.int ~max:2 io tag in
    let v = Serial.i64 io v in
    if tag = 2 then Bad_slot v else Exec (v, tag = 1)
  in
  let batch b =
    let rel = Serial.i64 io (Int64.sub b.finish_at t.now) in
    let completions = Serial.list ~max:slots io completion (Bad_slot 0L) b.completions in
    { finish_at = Int64.add now rel; completions }
  in
  t.batches <- Serial.list io batch { finish_at = 0L; completions = [] } t.batches;
  t.irq <- Serial.bool io t.irq;
  t.ops <- Serial.int ~max:max_int io t.ops;
  t.error_count <- Serial.int ~max:max_int io t.error_count;
  t.kick_count <- Serial.int ~max:max_int io t.kick_count;
  t.now <- now;
  if Serial.loading io then begin
    t.ring <- None;
    ignore (setup_ring t)
  end

let read_reg t off =
  if off = reg_isr then begin
    let v = if t.irq then 1L else 0L in
    t.irq <- false;
    v
  end
  else if off = reg_ring_base then t.ring_base
  else if off = reg_ring_size then t.ring_size
  else 0L

let write_reg t off v =
  if off = reg_kick then kick t
  else if off = reg_ring_base then begin
    t.ring_base <- v;
    t.ring <- None
  end
  else if off = reg_ring_size then begin
    t.ring_size <- v;
    t.ring <- None
  end

let device ?(base = mmio_base) t =
  {
    Velum_machine.Bus.name = "virtio-blk";
    base;
    size = 0x100;
    read = (fun off _w -> read_reg t off);
    write = (fun off _w v -> write_reg t off v);
    tick = (fun now -> tick t now);
    pending_irq = (fun () -> t.irq);
  }

let completed_ops t = t.ops
let kicks t = t.kick_count

let next_completion t =
  match t.batches with [] -> None | b :: _ -> Some b.finish_at
