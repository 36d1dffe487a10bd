open Velum_isa
open Velum_machine
open Velum_devices

type paging_mode = Shadow_paging | Nested_paging

type exec_mode = Trap_emulate | Binary_translation

type pv = { pv_console : bool; pv_pt : bool }

let no_pv = { pv_console = false; pv_pt = false }
let full_pv = { pv_console = true; pv_pt = true }

type t = {
  id : int;
  name : string;
  host : Host.t;
  p2m : P2m.t;
  vcpus : Vcpu.t array;
  tlbs : Tlb.t array;
  dtlbs : Dtlb.t array;
  paging : paging_mode;
  mutable shadow : Shadow.t option;
  mutable nested : Nested.t option;
  bus : Bus.t;
  uart : Uart.t;
  blk : Blockdev.t;
  vblk : Virtio_blk.t;
  mutable nic : Nic.t option;
  mutable vnet : Virtio_net.t option;
  monitor : Monitor.t;
  dirty : Bytes.t;
  mutable dirty_logging : bool;
  mutable remote_fetch : (int64 -> Bytes.t option) option;
  mutable remote_fault_cycles : int;
  pv : pv;
  mutable balloon_pages : int;
  exec_mode : exec_mode;
  bt_cache : (int64, unit) Hashtbl.t;
      (* guest PCs whose sensitive instruction has been translated *)
  engine : Engine.t;
  mem_listener : int option;
      (* write-listener handle on host memory (block engine only) *)
  event_channels : (int64, t) Hashtbl.t;  (* local port -> peer VM *)
  mutable event_pending : bool;
  mutable trace : Trace.t option;
  mutable traces_seen : int;
      (* superblock traces already reported to the trace ring; the
         hypervisor polls [traces_built] after each vCPU slice and
         records a formation event for the delta *)
}

let engine_kind t = t.engine.Engine.kind

(* Drop cached decoded blocks for a machine frame the VM is about to
   lose (ballooning, sharing, hypervisor swap).  Content-change
   invalidation is already guaranteed by the Phys_mem write listener;
   these revocation hooks drop blocks for frames that leave the VM with
   their bytes intact, so the cache never pins work for pages the guest
   no longer owns. *)
let revoke_exec_frame t ~ppn =
  match t.engine.Engine.cache with
  | Some c -> Trans_cache.invalidate_frame c ~ppn
  | None -> ()

let note_tlb_flush t =
  match t.engine.Engine.cache with Some c -> Trans_cache.note_flush c | None -> ()

let traces_built t =
  match t.engine.Engine.cache with
  | Some c -> Trans_cache.traces_built c
  | None -> 0

let page = Arch.page_size
let frame_base ppn = Int64.shift_left ppn Arch.page_shift
let gfn_of gpa = Int64.shift_right_logical gpa Arch.page_shift
let page_off gpa = Int64.logand gpa (Int64.of_int (page - 1))

(* ---- dirty bitmap ---- *)

let mark_dirty t gfn =
  let i = Int64.to_int gfn in
  if i >= 0 && i < P2m.gframes t.p2m then begin
    let byte = i / 8 and bit = i mod 8 in
    Bytes.set t.dirty byte
      (Char.chr (Char.code (Bytes.get t.dirty byte) lor (1 lsl bit)))
  end

let is_dirty t gfn =
  let i = Int64.to_int gfn in
  i >= 0
  && i < P2m.gframes t.p2m
  && Char.code (Bytes.get t.dirty (i / 8)) land (1 lsl (i mod 8)) <> 0

let dirty_count t =
  let n = ref 0 in
  Bytes.iter
    (fun c ->
      let v = Char.code c in
      for b = 0 to 7 do
        if v land (1 lsl b) <> 0 then incr n
      done)
    t.dirty;
  !n

let collect_dirty t ~clear =
  let acc = ref [] in
  for i = P2m.gframes t.p2m - 1 downto 0 do
    if Char.code (Bytes.get t.dirty (i / 8)) land (1 lsl (i mod 8)) <> 0 then
      acc := Int64.of_int i :: !acc
  done;
  if clear then Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  !acc

(* ---- gfn resolution ---- *)

let resolve_read t gfn =
  if not (P2m.in_range t.p2m gfn) then None
  else
    match P2m.get t.p2m gfn with
    | P2m.Present { hpa_ppn; _ } -> Some hpa_ppn
    | P2m.Swapped { slot } -> (
        match Frame_alloc.alloc t.host.Host.alloc with
        | None -> None
        | Some ppn ->
            Host.swap_in t.host ~slot ~ppn;
            P2m.set t.p2m gfn
              (P2m.Present { hpa_ppn = ppn; writable = not t.dirty_logging; cow = false });
            Some ppn)
    | P2m.Remote -> (
        match t.remote_fetch with
        | None -> None
        | Some fetch -> (
            match fetch gfn with
            | None -> None
            | Some bytes -> (
                match Frame_alloc.alloc t.host.Host.alloc with
                | None -> None
                | Some ppn ->
                    Phys_mem.frame_write t.host.Host.mem ~ppn bytes;
                    P2m.set t.p2m gfn
                      (P2m.Present
                         { hpa_ppn = ppn; writable = not t.dirty_logging; cow = false });
                    Some ppn)))
    | P2m.Ballooned | P2m.Absent -> None

let invalidate_mapping t gfn =
  (match t.shadow with Some s -> Shadow.invalidate_gfn s gfn | None -> ());
  Array.iter Tlb.flush t.tlbs;
  note_tlb_flush t

let resolve_write t gfn =
  match resolve_read t gfn with
  | None -> None
  | Some hpa_ppn -> (
      match P2m.get t.p2m gfn with
      | P2m.Present { hpa_ppn = cur; writable; cow } ->
          let hpa =
            if cow then begin
              (* Copy-on-write break: private copy, drop the shared ref. *)
              let fresh = Frame_alloc.alloc_exn t.host.Host.alloc in
              Phys_mem.blit_between ~src:t.host.Host.mem ~src_ppn:cur
                ~dst:t.host.Host.mem ~dst_ppn:fresh;
              revoke_exec_frame t ~ppn:cur;
              ignore (Frame_alloc.decr_ref t.host.Host.alloc cur);
              P2m.set t.p2m gfn (P2m.Present { hpa_ppn = fresh; writable = true; cow = false });
              Monitor.bump t.monitor Monitor.E_cow_break;
              invalidate_mapping t gfn;
              fresh
            end
            else begin
              if not writable then
                P2m.set t.p2m gfn (P2m.Present { hpa_ppn = cur; writable = true; cow = false });
              cur
            end
          in
          if t.dirty_logging then mark_dirty t gfn;
          Some hpa
      | _ ->
          (* resolve_read just made it Present *)
          if t.dirty_logging then mark_dirty t gfn;
          Some hpa_ppn)

(* ---- guest-physical accessors ---- *)

let read_gpa_u64 t gpa =
  if Int64.rem gpa 8L <> 0L then None
  else
    Option.map
      (fun ppn ->
        Phys_mem.read t.host.Host.mem (Int64.logor (frame_base ppn) (page_off gpa)) Instr.W64)
      (resolve_read t (gfn_of gpa))

let write_gpa_u64 t gpa v =
  if Int64.rem gpa 8L <> 0L then false
  else
    match resolve_write t (gfn_of gpa) with
    | Some ppn ->
        Phys_mem.write t.host.Host.mem
          (Int64.logor (frame_base ppn) (page_off gpa))
          Instr.W64 v;
        true
    | None -> false

let read_gpa_bytes t gpa len =
  if len < 0 then None
  else begin
    let out = Bytes.create len in
    let rec go gpa off remaining =
      if remaining = 0 then Some out
      else
        match resolve_read t (gfn_of gpa) with
        | None -> None
        | Some ppn ->
            let in_page = min remaining (page - Int64.to_int (page_off gpa)) in
            let base = Int64.to_int (Int64.logor (frame_base ppn) (page_off gpa)) in
            for i = 0 to in_page - 1 do
              Bytes.set out (off + i)
                (Char.chr
                   (Int64.to_int
                      (Phys_mem.read t.host.Host.mem (Int64.of_int (base + i)) Instr.W8)))
            done;
            go (Int64.add gpa (Int64.of_int in_page)) (off + in_page) (remaining - in_page)
    in
    go gpa 0 len
  end

let write_gpa_bytes t gpa b =
  let len = Bytes.length b in
  let rec go gpa off remaining =
    if remaining = 0 then true
    else
      match resolve_write t (gfn_of gpa) with
      | None -> false
      | Some ppn ->
          let in_page = min remaining (page - Int64.to_int (page_off gpa)) in
          let base = Int64.to_int (Int64.logor (frame_base ppn) (page_off gpa)) in
          for i = 0 to in_page - 1 do
            Phys_mem.write t.host.Host.mem
              (Int64.of_int (base + i))
              Instr.W8
              (Int64.of_int (Char.code (Bytes.get b (off + i))))
          done;
          go (Int64.add gpa (Int64.of_int in_page)) (off + in_page) (remaining - in_page)
  in
  go gpa 0 len

(* Device views of guest memory.  They take the VM lazily so that
   {!create} can build the devices inside the record they belong to; a
   device only touches memory once the guest drives it, long after the
   record exists. *)
let guest_mem t =
  {
    Virtio_ring.read_u64 = (fun gpa -> read_gpa_u64 (Lazy.force t) gpa);
    write_u64 = (fun gpa v -> write_gpa_u64 (Lazy.force t) gpa v);
    read_bytes = (fun gpa len -> read_gpa_bytes (Lazy.force t) gpa len);
    write_bytes = (fun gpa b -> write_gpa_bytes (Lazy.force t) gpa b);
  }

let guest_dma t =
  {
    Blockdev.dma_read = (fun gpa len -> read_gpa_bytes (Lazy.force t) gpa len);
    dma_write = (fun gpa b -> write_gpa_bytes (Lazy.force t) gpa b);
  }

(* ---- creation ---- *)

let create ~host ~id ~name ~mem_frames ?(vcpu_count = 1) ?(paging = Nested_paging)
    ?(pv = no_pv) ?(blk_sectors = 2048) ?(populate = true) ?nic ?(tlb_size = 64)
    ?(exec_mode = Trap_emulate) ?engine ~entry () =
  let engine =
    Engine.of_kind
      (match engine with Some k -> k | None -> host.Host.default_engine)
  in
  (* Blocks are keyed by machine frame, so content coherence (including
     guest self-modifying code) hangs off the host memory's write
     listeners; registered here, dropped in {!destroy}. *)
  let mem_listener =
    Option.map
      (fun cache ->
        Phys_mem.add_write_listener host.Host.mem (fun ~ppn ~lo ~hi ->
            Trans_cache.invalidate_range cache ~ppn ~lo ~hi))
      engine.Engine.cache
  in
  let p2m = P2m.create ~gframes:mem_frames in
  (* Populate guest memory eagerly; on failure return what we took. *)
  let allocated = ref [] in
  (if populate then
     try
       for gfn = 0 to mem_frames - 1 do
         match Frame_alloc.alloc host.Host.alloc with
         | Some ppn ->
             allocated := ppn :: !allocated;
             P2m.set p2m (Int64.of_int gfn)
               (P2m.Present { hpa_ppn = ppn; writable = true; cow = false })
         | None -> failwith "Vm.create: host out of frames"
       done
     with e ->
       List.iter (fun ppn -> ignore (Frame_alloc.decr_ref host.Host.alloc ppn)) !allocated;
       raise e);
  let vcpus =
    Array.init vcpu_count (fun i ->
        Vcpu.create ~id:((id * 64) + i) ~vm_id:id ~hartid:i ~entry ())
  in
  let tlbs = Array.init vcpu_count (fun _ -> Tlb.create ~size:tlb_size) in
  let dtlbs = Array.map (fun tlb -> Dtlb.create ~tlb) tlbs in
  let bus = Bus.create () in
  let uart = Uart.create () in
  let rec vm =
    lazy
    {
      id;
      name;
      host;
      p2m;
      vcpus;
      tlbs;
      dtlbs;
      paging;
      shadow = None;
      nested = None;
      bus;
      uart;
      blk = Blockdev.create ~sectors:blk_sectors (guest_dma vm);
      vblk = Virtio_blk.create ~sectors:blk_sectors (guest_mem vm);
      nic =
        Option.map
          (fun (link, endpoint) -> Nic.create ~link ~endpoint ~dma:(guest_dma vm) ())
          nic;
      vnet = None;
      monitor = Monitor.create ();
      dirty = Bytes.make ((mem_frames + 7) / 8) '\000';
      dirty_logging = false;
      remote_fetch = None;
      remote_fault_cycles = 0;
      pv;
      balloon_pages = 0;
      exec_mode;
      bt_cache = Hashtbl.create 64;
      engine;
      mem_listener;
      event_channels = Hashtbl.create 4;
      event_pending = false;
      trace = None;
      traces_seen = 0;
    }
  in
  let t = Lazy.force vm in
  Bus.attach t.bus (Uart.device t.uart);
  Bus.attach t.bus (Blockdev.device t.blk);
  Bus.attach t.bus (Virtio_blk.device t.vblk);
  Option.iter (fun n -> Bus.attach t.bus (Nic.device n)) t.nic;
  (match paging with
  | Shadow_paging ->
      let env =
        {
          Shadow.mem = host.Host.mem;
          alloc = host.Host.alloc;
          cost = host.Host.cost;
          read_guest_pte = (fun gpa -> read_gpa_u64 t gpa);
          write_guest_pte = (fun gpa v -> write_gpa_u64 t gpa v);
          resolve_read = (fun gfn -> resolve_read t gfn);
          resolve_write = (fun gfn -> resolve_write t gfn);
          host_writable =
            (fun gfn ->
              match P2m.get t.p2m gfn with
              | P2m.Present { writable; cow; _ } -> writable && not cow
              | _ -> false);
        }
      in
      t.shadow <- Some (Shadow.create env)
  | Nested_paging ->
      let env =
        {
          Nested.mem = host.Host.mem;
          cost = host.Host.cost;
          p2m = t.p2m;
          mark_ad_write = (fun gfn -> if t.dirty_logging then mark_dirty t gfn);
        }
      in
      t.nested <- Some (Nested.create env));
  t

let destroy t =
  Option.iter (Phys_mem.remove_write_listener t.host.Host.mem) t.mem_listener;
  (match t.engine.Engine.cache with Some c -> Trans_cache.flush c | None -> ());
  (match t.shadow with Some s -> Shadow.flush_all s | None -> ());
  P2m.iter t.p2m ~f:(fun ~gfn entry ->
      match entry with
      | P2m.Present { hpa_ppn; _ } ->
          ignore (Frame_alloc.decr_ref t.host.Host.alloc hpa_ppn);
          P2m.set t.p2m gfn P2m.Absent
      | _ -> ())

(* Plug a virtio-net adapter into [link] at [endpoint] and put it on
   the bus.  Callable any time after creation — a migration twin gets
   its fabric port back this way, with {!Virtio_net.configure} restoring
   the ring layout host-side. *)
let attach_vnet t ~link ~endpoint =
  let v = Virtio_net.create ~link ~endpoint ~mem:(guest_mem (Lazy.from_val t)) () in
  t.vnet <- Some v;
  Bus.attach t.bus (Virtio_net.device v);
  v

let load_image t (img : Asm.image) =
  if not (write_gpa_bytes t img.Asm.origin img.Asm.code) then
    failwith "Vm.load_image: image does not fit in guest memory"

let mem_frames t = P2m.gframes t.p2m

let halted t = Array.for_all (fun v -> v.Vcpu.runstate = Vcpu.Halted) t.vcpus

let guest_cycles t =
  Array.fold_left (fun acc v -> Int64.add acc v.Vcpu.guest_cycles) 0L t.vcpus

let vmm_cycles t =
  Array.fold_left (fun acc v -> Int64.add acc v.Vcpu.vmm_cycles) 0L t.vcpus

(* ---- dirty logging epochs ---- *)

let flush_all_tlbs t =
  Array.iter Tlb.flush t.tlbs;
  note_tlb_flush t

let flush_vcpu_tlb t ~vcpu_idx =
  Tlb.flush t.tlbs.(vcpu_idx);
  note_tlb_flush t

let start_dirty_logging t =
  t.dirty_logging <- true;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  ignore (P2m.clear_writable_all t.p2m);
  (match t.shadow with Some s -> Shadow.clear_all_writable s | None -> ());
  flush_all_tlbs t

let stop_dirty_logging t =
  t.dirty_logging <- false;
  P2m.iter t.p2m ~f:(fun ~gfn entry ->
      match entry with
      | P2m.Present { hpa_ppn; writable = false; cow = false } ->
          P2m.set t.p2m gfn (P2m.Present { hpa_ppn; writable = true; cow = false })
      | _ -> ());
  flush_all_tlbs t

(* ---- guest-virtual software walk (no side effects) ---- *)

let read_guest_va t ~vcpu_idx va =
  let vcpu = t.vcpus.(vcpu_idx) in
  let satp = Cpu.get_csr vcpu.Vcpu.state Arch.Satp in
  let gpa =
    if not (Arch.satp_enabled satp) then Some va
    else begin
      let acc =
        {
          Page_table.read_pte =
            (fun gpa -> Option.value (read_gpa_u64 t gpa) ~default:Pte.invalid);
          write_pte = (fun _ _ -> ());
        }
      in
      match Page_table.walk acc ~root_ppn:(Arch.satp_root_ppn satp) va with
      | Ok { pte; level; _ } -> Some (Page_table.leaf_pa ~pte ~level ~va)
      | Error _ -> None
    end
  in
  Option.bind gpa (fun gpa ->
      if Int64.rem gpa 8L <> 0L then None else read_gpa_u64 t gpa)

(* ---- translation ---- *)

(* Shadow mode with guest paging disabled: guest-virtual = guest-physical
   through the hypervisor's direct map (still a 1-D walk on a miss). *)
let translate_bare_shadow t ~vcpu_idx ~access ~user:_ va =
  if Bus.is_mmio va then Ok { Cpu.pa = va; mmio = true; xlate_cycles = 0 }
  else begin
    let tlb = t.tlbs.(vcpu_idx) in
    let vpn = gfn_of va in
    let hit =
      match Tlb.lookup tlb ~vpn with
      | Some e when not e.Tlb.mmio ->
          if access = Arch.Store && not e.dirty_ok then None else Some e
      | _ -> None
    in
    match hit with
    | Some e ->
        Tlb.note_hit tlb;
        Ok
          {
            Cpu.pa = Int64.logor (frame_base e.Tlb.ppn) (page_off va);
            mmio = false;
            xlate_cycles = 0;
          }
    | None -> (
        Tlb.note_miss tlb;
        if not (P2m.in_range t.p2m vpn) then Error `Access
        else
          match P2m.get t.p2m vpn with
          | P2m.Present { hpa_ppn; writable; cow } ->
              let w = writable && not cow in
              if access = Arch.Store && not w then Error `Page
              else begin
                Tlb.insert tlb
                  {
                    Tlb.vpn;
                    ppn = hpa_ppn;
                    perms = { Pte.r = true; w; x = true; u = true };
                    dirty_ok = w;
                    mmio = false;
                    superpage = false;
                  };
                let cost = t.host.Host.cost in
                Ok
                  {
                    Cpu.pa = Int64.logor (frame_base hpa_ppn) (page_off va);
                    mmio = false;
                    xlate_cycles = Cost_model.walk_cycles_1d cost + cost.Cost_model.tlb_fill;
                  }
              end
          | P2m.Swapped _ | P2m.Remote -> Error `Page
          | P2m.Ballooned | P2m.Absent -> Error `Access)
  end

let translate t ~vcpu_idx ~access ~user va =
  let vcpu = t.vcpus.(vcpu_idx) in
  let satp = Cpu.get_csr vcpu.Vcpu.state Arch.Satp in
  match t.paging with
  | Nested_paging ->
      let nested = Option.get t.nested in
      Nested.translate nested ~guest_satp:satp ~tlb:t.tlbs.(vcpu_idx) ~access ~user va
  | Shadow_paging ->
      if Arch.satp_enabled satp then
        let shadow = Option.get t.shadow in
        Shadow.translate shadow ~root_gfn:(Arch.satp_root_ppn satp) ~tlb:t.tlbs.(vcpu_idx)
          ~access ~user va
      else translate_bare_shadow t ~vcpu_idx ~access ~user va

(* ---- ballooning ---- *)

let balloon_out t gfn =
  if not (P2m.in_range t.p2m gfn) then false
  else
    match P2m.get t.p2m gfn with
    | P2m.Present { hpa_ppn; _ } ->
        revoke_exec_frame t ~ppn:hpa_ppn;
        ignore (Frame_alloc.decr_ref t.host.Host.alloc hpa_ppn);
        P2m.set t.p2m gfn P2m.Ballooned;
        t.balloon_pages <- t.balloon_pages + 1;
        invalidate_mapping t gfn;
        true
    | _ -> false

let balloon_in t gfn =
  if not (P2m.in_range t.p2m gfn) then false
  else
    match P2m.get t.p2m gfn with
    | P2m.Ballooned -> (
        match Frame_alloc.alloc t.host.Host.alloc with
        | Some ppn ->
            P2m.set t.p2m gfn (P2m.Present { hpa_ppn = ppn; writable = true; cow = false });
            t.balloon_pages <- t.balloon_pages - 1;
            true
        | None -> false)
    | _ -> false

(* ---- console ---- *)

let console_put t c = Uart.write_reg t.uart Uart.reg_data (Int64.of_int (Char.code c))
let console_output t = Uart.output t.uart

let pp ppf t =
  Format.fprintf ppf "vm%d(%s, %d vcpus, %d frames, %s)" t.id t.name
    (Array.length t.vcpus) (mem_frames t)
    (match t.paging with Shadow_paging -> "shadow" | Nested_paging -> "nested")

(* Snapshot engine / TLB / micro-TLB counters into the monitor as
   gauges.  Called by presentation paths (CLI, benches) right before
   printing — never by the run loop itself, so differential tests that
   compare raw monitor state across engines stay engine-agnostic. *)
let publish_stats t =
  let m = t.monitor in
  let g = Monitor.set_gauge m in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  g "tlb.hits" (sum Tlb.hits t.tlbs);
  g "tlb.misses" (sum Tlb.misses t.tlbs);
  g "tlb.evictions" (sum Tlb.evictions t.tlbs);
  g "tlb.flushes" (sum Tlb.flushes t.tlbs);
  g "dtlb.hits" (sum Dtlb.hits t.dtlbs);
  g "dtlb.misses" (sum Dtlb.misses t.dtlbs);
  g "dtlb.fills" (sum Dtlb.fills t.dtlbs);
  (* Net gauges appear only when an adapter is attached, so outputs of
     network-less runs are unchanged.  Emulated NIC and virtio-net
     counters share one namespace: a VM has at most one of each, and the
     drop counters are the frame-conservation terms. *)
  Option.iter
    (fun n ->
      g "net.sent" (Nic.frames_sent n);
      g "net.received" (Nic.frames_received n);
      g "net.tx_dropped" (Nic.tx_dropped n);
      g "net.rx_dropped" (Nic.rx_dropped n);
      g "net.rx_overflow" (Nic.rx_overflow n);
      g "net.rx_queued" (Nic.rx_queue_length n))
    t.nic;
  Option.iter
    (fun v ->
      g "net.sent" (Virtio_net.frames_sent v);
      g "net.received" (Virtio_net.frames_received v);
      g "net.tx_dropped" (Virtio_net.tx_dropped v + Virtio_net.tx_malformed v);
      g "net.rx_dropped" (Virtio_net.rx_dropped v + Virtio_net.rx_malformed v);
      g "net.rx_overflow" (Virtio_net.rx_overflow v);
      g "net.rx_queued" (Virtio_net.backlog_length v);
      g "net.kicks" (Virtio_net.kicks v))
    t.vnet;
  match t.engine.Engine.cache with
  | None -> ()
  | Some c ->
      g "engine.cache.entries" (Trans_cache.entries c);
      g "engine.cache.hits" (Trans_cache.hits c);
      g "engine.cache.misses" (Trans_cache.misses c);
      g "engine.cache.invalidations" (Trans_cache.invalidations c);
      g "engine.cache.evictions" (Trans_cache.evictions c);
      g "engine.chain.patched" (Trans_cache.chains_patched c);
      g "engine.chain.follows" (Trans_cache.chain_follows c);
      g "engine.chain.severed" (Trans_cache.chains_severed c);
      g "engine.trace.built" (Trans_cache.traces_built c);
      g "engine.trace.follows" (Trans_cache.trace_follows c);
      g "engine.trace.severed" (Trans_cache.traces_severed c);
      g "engine.trace.side_exits" (Trans_cache.trace_side_exits c)
