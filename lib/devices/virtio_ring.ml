type guest_mem = {
  read_u64 : int64 -> int64 option;
  write_u64 : int64 -> int64 -> bool;
  read_bytes : int64 -> int -> Bytes.t option;
  write_bytes : int64 -> Bytes.t -> bool;
}

type desc = {
  data_gpa : int64;
  data_len : int;
  kind : int64;
  arg : int64;
  status_gpa : int64;
}

let desc_stride = 40
let header_bytes = 16

type t = { mem : guest_mem; base_addr : int64; ring_size : int }

let create ~mem ~base ~size =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Virtio_ring.create: size must be a positive power of two";
  { mem; base_addr = base; ring_size = size }

let size t = t.ring_size
let base t = t.base_addr

let avail_addr t = t.base_addr
let used_addr t = Int64.add t.base_addr 8L

let slot_addr t idx =
  let slot = Int64.to_int (Int64.rem idx (Int64.of_int t.ring_size)) in
  Int64.add t.base_addr (Int64.of_int (header_bytes + (slot * desc_stride)))

let read_u64_or_zero t addr = Option.value (t.mem.read_u64 addr) ~default:0L

let avail_idx t = read_u64_or_zero t (avail_addr t)
let used_idx t = read_u64_or_zero t (used_addr t)

let read_desc t idx =
  let a = slot_addr t idx in
  let ( let* ) = Option.bind in
  let* data_gpa = t.mem.read_u64 a in
  let* len = t.mem.read_u64 (Int64.add a 8L) in
  let* kind = t.mem.read_u64 (Int64.add a 16L) in
  let* arg = t.mem.read_u64 (Int64.add a 24L) in
  let* status_gpa = t.mem.read_u64 (Int64.add a 32L) in
  Some { data_gpa; data_len = Int64.to_int len; kind; arg; status_gpa }

let pending_range t =
  let avail = avail_idx t and used = used_idx t in
  let n = Int64.to_int (Int64.sub avail used) in
  (used, if n <= 0 || n > t.ring_size then 0 else n)

let pending_slots t =
  let used, n = pending_range t in
  List.init n (fun i ->
      let idx = Int64.add used (Int64.of_int i) in
      (idx, read_desc t idx))

let pending t = List.filter_map snd (pending_slots t)

let complete t ~count =
  let used = used_idx t in
  ignore (t.mem.write_u64 (used_addr t) (Int64.add used (Int64.of_int count)))

(* A malformed slot still owes the guest a completion: the used index
   must advance past it (the caller counts it in [complete ~count]) and
   its status byte — if the status pointer itself is readable — gets an
   error so the guest's poll loop terminates instead of spinning on a
   status that will never be written. *)
let error_status = '\001'

let fail_slot t idx =
  match t.mem.read_u64 (Int64.add (slot_addr t idx) 32L) with
  | Some status_gpa ->
      ignore (t.mem.write_bytes status_gpa (Bytes.make 1 error_status))
  | None -> ()

let guest_push t d =
  let avail = avail_idx t and used = used_idx t in
  if Int64.to_int (Int64.sub avail used) >= t.ring_size then false
  else begin
    let a = slot_addr t avail in
    let ok =
      t.mem.write_u64 a d.data_gpa
      && t.mem.write_u64 (Int64.add a 8L) (Int64.of_int d.data_len)
      && t.mem.write_u64 (Int64.add a 16L) d.kind
      && t.mem.write_u64 (Int64.add a 24L) d.arg
      && t.mem.write_u64 (Int64.add a 32L) d.status_gpa
    in
    ok && t.mem.write_u64 (avail_addr t) (Int64.add avail 1L)
  end
