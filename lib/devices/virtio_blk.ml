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
  store : Backing.t; (* allocated on the first write *)
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

let load t ~sector s =
  let off = sector * sector_bytes in
  if sector < 0 || not (Backing.in_range t.store ~off ~len:(String.length s)) then
    invalid_arg "Virtio_blk.load: out of range";
  Backing.blit_from_string t.store ~off s

let read_back t ~sector ~count =
  let off = sector * sector_bytes in
  let len = count * sector_bytes in
  if sector < 0 || not (Backing.in_range t.store ~off ~len) then
    invalid_arg "Virtio_blk.read_back: out of range";
  Backing.sub_string t.store ~off ~len

let setup_ring t =
  match t.ring with
  | Some r -> Some r
  | None ->
      let size = Int64.to_int t.ring_size in
      if size > 0 && size land (size - 1) = 0 then begin
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
  let sector = Int64.to_int d.arg in
  let off = sector * sector_bytes and len = d.data_len in
  let ok =
    (not injected)
    && len > 0
    && len mod sector_bytes = 0
    && sector >= 0
    && Backing.in_range t.store ~off ~len
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
