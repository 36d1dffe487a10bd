open Velum_isa
open Velum_machine
open Velum_devices

let log_src = Logs.Src.create "velum.migrate" ~doc:"live migration"

module Log = (val Logs.src_log log_src)

module Fault = Velum_util.Fault
module Fnv = Velum_util.Fnv

type result = {
  total_cycles : int64;
  downtime_cycles : int64;
  pages_sent : int;
  bytes_sent : int;
  rounds : int;
  remote_faults : int;
  retransmits : int;
  aborted : bool;
}

let page_wire_bytes = Arch.page_size + 16
let zero_page_wire_bytes = 24 (* header + "all zero" marker *)
let vcpu_state_bytes = 1024

(* Wire footprint of a page set, optionally eliding zero pages. *)
let wire_bytes ~compress (vm : Vm.t) gfns =
  if not compress then List.length gfns * page_wire_bytes
  else
    List.fold_left
      (fun acc gfn ->
        match Vm.resolve_read vm gfn with
        | Some ppn when Phys_mem.frame_is_zero vm.Vm.host.Host.mem ~ppn ->
            acc + zero_page_wire_bytes
        | _ -> acc + page_wire_bytes)
      0 gfns

exception Abort_migration of string

(* ---- the wire ----

   Every batch of pages (and, at the end of a migration or checkpoint,
   the vCPU record) travels over one transport, which picks its cost
   model once, at creation:

   - Ideal, when the fault plan is inactive: a batch costs one
     [Link.transfer_cycles] over its wire footprint, zero pages elided
     to a marker when [compress] is set.
   - Reliable, when a plan is active: each page travels as one frame,
     [seq:8][body][fnv1a-checksum:8], the checksum covering everything
     before it.  The receiver NACKs frames whose checksum fails and
     dedups by sequence number (retransmits reuse the page's seq, so a
     delayed original and its retransmit cannot both apply).  The sender
     retries on timeout/NACK with exponential backoff, bounded by
     [max_attempts]; exhaustion raises [Abort_migration].  Compression is
     skipped: every frame carries its full body so checksums protect
     real content.

   Both advance one clock and one byte counter. *)

module Wire = struct
  type reliable = {
    seen : (int, unit) Hashtbl.t; (* receiver-side dedup by seq *)
    mutable next_seq : int;
  }

  type mode = Ideal | Reliable of reliable

  type t = {
    link : Link.t;
    faults : Fault.t;
    compress : bool;
    mode : mode;
    mutable clock : int64;
    mutable bytes : int;
    mutable pages : int;
    mutable retx : int;
  }

  let max_attempts = 8

  let create ?(now = 0L) ~link ~faults ~compress () =
    let mode =
      if Fault.active faults then Reliable { seen = Hashtbl.create 1024; next_seq = 0 }
      else Ideal
    in
    { link; faults; compress; mode; clock = now; bytes = 0; pages = 0; retx = 0 }

  let frame_of ~seq body =
    let n = Bytes.length body in
    let b = Bytes.create (n + 16) in
    Bytes.set_int64_le b 0 (Int64.of_int seq);
    Bytes.blit body 0 b 8 n;
    Bytes.set_int64_le b (n + 8) (Fnv.hash_bytes ~pos:0 ~len:(n + 8) b);
    Bytes.to_string b

  (* [None] = corrupted (checksum mismatch); [Some seq] otherwise. *)
  let decode_frame s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    if n < 16 then None
    else if Bytes.get_int64_le b (n - 8) <> Fnv.hash_bytes ~pos:0 ~len:(n - 8) b then
      None
    else Some (Int64.to_int (Bytes.get_int64_le b 0))

  let backoff_cycles w n =
    let base = max 64 (Link.latency_cycles w.link / 2) in
    min (base * (1 lsl min (n - 1) 8)) (base * 256)

  (* Push one body through the link until the receiver has it, advancing
     the clock by the real wire time, ack latencies, and any backoff
     waits.  @raise Abort_migration when attempts exhaust. *)
  let send w r ~body =
    let seq = r.next_seq in
    r.next_seq <- seq + 1;
    let frame = frame_of ~seq body in
    let len = String.length frame in
    let ack_lat = Int64.of_int (Link.latency_cycles w.link) in
    let rec attempt n =
      if n > max_attempts then
        raise (Abort_migration (Printf.sprintf "page seq %d: retries exhausted" seq));
      if n > 1 then w.retx <- w.retx + 1;
      w.bytes <- w.bytes + len;
      let t0 = w.clock in
      ignore (Link.send w.link ~from:`A ~now:t0 ~payload:frame);
      let expected =
        Int64.add t0 (Int64.of_int (Link.transfer_cycles w.link ~bytes:len))
      in
      List.iter
        (fun s ->
          match decode_frame s with
          | None -> Fault.observe w.faults Fault.Corrupt
          | Some seq' ->
              if Hashtbl.mem r.seen seq' then Fault.observe w.faults Fault.Duplicate
              else Hashtbl.add r.seen seq' ())
        (Link.poll w.link ~at:`B ~now:expected);
      if Hashtbl.mem r.seen seq then w.clock <- Int64.add expected ack_lat
      else begin
        (* Timeout (drop/partition/late frame) or NACK (corruption): wait
           out the ack window plus a growing backoff, then retransmit. *)
        w.clock <-
          Int64.add (Int64.add expected ack_lat) (Int64.of_int (backoff_cycles w n));
        attempt (n + 1)
      end
    in
    attempt 1

  let ship w ~(vm : Vm.t) ~vcpus gfns =
    match w.mode with
    | Ideal ->
        let bytes =
          wire_bytes ~compress:w.compress vm gfns + if vcpus then vcpu_state_bytes else 0
        in
        w.clock <- Int64.add w.clock (Int64.of_int (Link.transfer_cycles w.link ~bytes));
        w.bytes <- w.bytes + bytes;
        w.pages <- w.pages + List.length gfns
    | Reliable r ->
        List.iter
          (fun gfn ->
            (match Vm.resolve_read vm gfn with
            | Some ppn -> send w r ~body:(Phys_mem.frame_read vm.Vm.host.Host.mem ~ppn)
            | None -> ());
            w.pages <- w.pages + 1)
          gfns;
        if vcpus then send w r ~body:(Bytes.make (vcpu_state_bytes - 16) 'V')

  let clock w = w.clock
  let bytes_sent w = w.bytes
  let pages_sent w = w.pages
  let retransmits w = w.retx
end

(* ---- the destination twin ---- *)

(* Same shape as [vm], unpopulated p2m. *)
let make_twin ~dst vm = Vm_state.create_vm dst ~populate:false (Vm_state.save vm)

(* Copy one page's current contents source→destination memory; {!apply}
   has already checked the destination has a frame for it. *)
let copy_page ~(vm : Vm.t) ~(twin : Vm.t) gfn =
  match Vm.resolve_read vm gfn with
  | None -> ()
  | Some src_ppn ->
      let dst_ppn =
        match P2m.get twin.Vm.p2m gfn with
        | P2m.Present { hpa_ppn; _ } -> hpa_ppn
        | _ ->
            let ppn = Frame_alloc.alloc_exn twin.Vm.host.Host.alloc in
            P2m.set twin.Vm.p2m gfn
              (P2m.Present { hpa_ppn = ppn; writable = true; cow = false });
            ppn
      in
      Phys_mem.blit_between ~src:vm.Vm.host.Host.mem ~src_ppn
        ~dst:twin.Vm.host.Host.mem ~dst_ppn

let apply ~(vm : Vm.t) ~(twin : Vm.t) gfns =
  let missing =
    List.fold_left
      (fun n gfn ->
        match P2m.get twin.Vm.p2m gfn with P2m.Present _ -> n | _ -> n + 1)
      0 gfns
  in
  let free = Frame_alloc.free_count twin.Vm.host.Host.alloc in
  if missing > free then
    raise
      (Abort_migration
         (Printf.sprintf "destination out of frames: %d needed, %d free" missing free));
  List.iter (copy_page ~vm ~twin) gfns

let present_gfns (vm : Vm.t) =
  P2m.fold_present vm.Vm.p2m ~init:[] ~f:(fun acc ~gfn ~hpa_ppn:_ -> gfn :: acc)
  |> List.rev

let rollback ~dst ~twin reason =
  Log.warn (fun m ->
      m "migration aborted (%s): rolling back, source resumes" reason);
  Hypervisor.remove_vm dst twin

let trace_round ~src (vm : Vm.t) ~round ~pages =
  match Hypervisor.trace src with
  | Some tr ->
      Trace.record tr ~vm_id:vm.Vm.id ~name:vm.Vm.name ~at:(Hypervisor.now src)
        (Trace.Migration_round { round; pages })
  | None -> ()

let result w ~rounds ~downtime ~aborted =
  {
    total_cycles = Wire.clock w;
    downtime_cycles = downtime;
    pages_sent = Wire.pages_sent w;
    bytes_sent = Wire.bytes_sent w;
    rounds;
    remote_faults = 0;
    retransmits = Wire.retransmits w;
    aborted;
  }

let stop_and_copy ?(compress = false) ?faults ~src ~dst ~vm ~link () =
  let faults = match faults with Some f -> f | None -> Link.faults link in
  let twin = make_twin ~dst vm in
  let w = Wire.create ~link ~faults ~compress () in
  let gfns = present_gfns vm in
  try
    Wire.ship w ~vm ~vcpus:true gfns;
    apply ~vm ~twin gfns;
    Vm_state.move dst ~from:vm twin;
    trace_round ~src vm ~round:1 ~pages:(List.length gfns);
    Hypervisor.remove_vm src vm;
    (twin, result w ~rounds:1 ~downtime:(Wire.clock w) ~aborted:false)
  with Abort_migration reason ->
    rollback ~dst ~twin reason;
    (vm, result w ~rounds:1 ~downtime:0L ~aborted:true)

let precopy ?(compress = false) ?faults ~src ~dst ~vm ~link
    ?(max_rounds = 8) ?(stop_threshold = 64) () =
  let faults = match faults with Some f -> f | None -> Link.faults link in
  let twin = make_twin ~dst vm in
  let w = Wire.create ~link ~faults ~compress () in
  Vm.start_dirty_logging vm;
  let rounds = ref 0 in
  try
    let rec round to_send prev_count =
      incr rounds;
      Log.debug (fun m ->
          m "precopy %s: round %d, %d pages" vm.Vm.name !rounds (List.length to_send));
      let t0 = Wire.clock w in
      Wire.ship w ~vm ~vcpus:false to_send;
      apply ~vm ~twin to_send;
      trace_round ~src vm ~round:!rounds ~pages:(List.length to_send);
      (* The guest executes on the source while this round is on the
         wire — retransmits and backoff included — dirtying pages that
         the next round must re-send, so loss directly degrades
         convergence. *)
      Hypervisor.run_vm src vm ~cycles:(Int64.sub (Wire.clock w) t0);
      let dirty = Vm.collect_dirty vm ~clear:false in
      (* Re-arm write protection for the next epoch (clears the bitmap). *)
      Vm.start_dirty_logging vm;
      let count = List.length dirty in
      if count = 0 then []
      else if !rounds >= max_rounds || count <= stop_threshold || count >= prev_count
      then dirty (* freeze and send the residue *)
      else round dirty count
    in
    let residue = round (present_gfns vm) max_int in
    (* Stop phase: guest frozen, send the residual dirty set + vCPU state. *)
    let t0 = Wire.clock w in
    Wire.ship w ~vm ~vcpus:true residue;
    let downtime = Int64.sub (Wire.clock w) t0 in
    apply ~vm ~twin residue;
    Vm.stop_dirty_logging vm;
    Vm_state.move dst ~from:vm twin;
    Hypervisor.remove_vm src vm;
    (twin, result w ~rounds:!rounds ~downtime ~aborted:false)
  with Abort_migration reason ->
    (* Rollback: the source keeps running with dirty logging off; the
       destination twin — and every frame it allocated — is discarded. *)
    Vm.stop_dirty_logging vm;
    rollback ~dst ~twin reason;
    (vm, result w ~rounds:!rounds ~downtime:0L ~aborted:true)

(* Pages per background push between post-copy execution bursts. *)
let push_batch = 32

let postcopy ~src ~dst ~vm ~link () =
  let twin = make_twin ~dst vm in
  (* Freeze: ship only the vCPU state; every present page becomes Remote
     on the destination. *)
  let downtime = Int64.of_int (Link.transfer_cycles link ~bytes:vcpu_state_bytes) in
  let gfns = present_gfns vm in
  trace_round ~src vm ~round:1 ~pages:(List.length gfns);
  List.iter (fun gfn -> P2m.set twin.Vm.p2m gfn P2m.Remote) gfns;
  Vm_state.move dst ~from:vm twin;
  let pulled = ref 0 in
  twin.Vm.remote_fetch <-
    Some
      (fun gfn ->
        match Vm.resolve_read vm gfn with
        | Some src_ppn ->
            incr pulled;
            Some (Phys_mem.frame_read vm.Vm.host.Host.mem ~ppn:src_ppn)
        | None -> None);
  (* A demand fetch pays a full network round trip plus the page. *)
  twin.Vm.remote_fault_cycles <-
    (2 * Link.latency_cycles link) + Link.transfer_cycles link ~bytes:page_wire_bytes;
  let total = ref downtime in
  (* Background push: run the guest on the destination for the time one
     batch occupies the wire, then mark the batch resident. *)
  let remote_left () =
    P2m.count twin.Vm.p2m ~f:(function P2m.Remote -> true | _ -> false)
  in
  let rec push () =
    if remote_left () > 0 && not (Vm.halted twin) then begin
      let batch = ref [] in
      (try
         P2m.iter twin.Vm.p2m ~f:(fun ~gfn entry ->
             if List.length !batch >= push_batch then raise Exit;
             match entry with P2m.Remote -> batch := gfn :: !batch | _ -> ())
       with Exit -> ());
      let cycles =
        Link.transfer_cycles link ~bytes:(List.length !batch * page_wire_bytes)
      in
      total := Int64.add !total (Int64.of_int cycles);
      Hypervisor.run_vm dst twin ~cycles:(Int64.of_int cycles);
      (* Whatever is still remote from this batch arrives now. *)
      List.iter
        (fun gfn ->
          match P2m.get twin.Vm.p2m gfn with
          | P2m.Remote -> ignore (Vm.resolve_read twin gfn)
          | _ -> ())
        !batch;
      push ()
    end
  in
  push ();
  let faults = Monitor.count twin.Vm.monitor Monitor.E_remote_fetch in
  twin.Vm.remote_fetch <- None;
  let pages = !pulled in
  Hypervisor.remove_vm src vm;
  ( twin,
    {
      total_cycles = !total;
      downtime_cycles = downtime;
      pages_sent = pages;
      bytes_sent = pages * page_wire_bytes;
      rounds = 1;
      remote_faults = faults;
      retransmits = 0;
      aborted = false;
    } )
