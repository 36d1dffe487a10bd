(* Unit tests for velum_vmm: frame allocator, p2m, host swap, monitor,
   vCPUs, the shadow pager, nested-walk classification, hypercalls,
   schedulers, memory management, placement and snapshots. *)

open Velum_isa
open Velum_machine
open Velum_vmm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* ---------------- Frame_alloc ---------------- *)

let test_alloc_basics () =
  let mem = Phys_mem.create ~frames:32 in
  let fa = Frame_alloc.create ~mem ~reserved:4 () in
  checki "total" 28 (Frame_alloc.total fa);
  checki "free" 28 (Frame_alloc.free_count fa);
  let p = Frame_alloc.alloc_exn fa in
  checkb "not reserved" true (p >= 4L);
  checki "refcount" 1 (Frame_alloc.refcount fa p);
  checki "used" 1 (Frame_alloc.used_count fa);
  checkb "freed" true (Frame_alloc.decr_ref fa p);
  checki "free again" 28 (Frame_alloc.free_count fa)

let test_alloc_zeroed () =
  let mem = Phys_mem.create ~frames:8 in
  let fa = Frame_alloc.create ~mem ~reserved:0 () in
  let p = Frame_alloc.alloc_exn fa in
  Phys_mem.frame_fill mem ~ppn:p 'x';
  ignore (Frame_alloc.decr_ref fa p);
  (* the same frame comes back zeroed *)
  let p2 = Frame_alloc.alloc_exn fa in
  checkb "zeroed" true (Phys_mem.read mem (Int64.shift_left p2 12) Instr.W64 = 0L)

let test_alloc_refcounting () =
  let mem = Phys_mem.create ~frames:8 in
  let fa = Frame_alloc.create ~mem ~reserved:0 () in
  let p = Frame_alloc.alloc_exn fa in
  Frame_alloc.incr_ref fa p;
  checki "rc 2" 2 (Frame_alloc.refcount fa p);
  checkb "not freed" false (Frame_alloc.decr_ref fa p);
  checkb "freed" true (Frame_alloc.decr_ref fa p);
  Alcotest.check_raises "double free"
    (Invalid_argument "Frame_alloc.decr_ref: frame is free") (fun () ->
      ignore (Frame_alloc.decr_ref fa p))

let test_alloc_exhaustion () =
  let mem = Phys_mem.create ~frames:4 in
  let fa = Frame_alloc.create ~mem ~reserved:2 () in
  ignore (Frame_alloc.alloc_exn fa);
  ignore (Frame_alloc.alloc_exn fa);
  checkb "exhausted" true (Frame_alloc.alloc fa = None)

(* Frames come out in the order one free list of every managed frame
   gives, popped on alloc and pushed on free: returned frames first,
   newest first, then never-used ones in ascending order. *)
let prop_alloc_free_list_order =
  QCheck2.Test.make ~count:300 ~name:"frame_alloc hands out frames in free-list order"
    QCheck2.Gen.(list_size (int_range 1 60) (pair bool (int_bound 15)))
    (fun ops ->
      let reserved = 3 and frames = 14 in
      let fa = Frame_alloc.create ~mem:(Phys_mem.create ~frames) ~reserved () in
      let free = ref (List.init (frames - reserved) (fun i -> Int64.of_int (reserved + i))) in
      let held = ref [] in
      List.for_all
        (fun (alloc, k) ->
          (if alloc then (
             match (!free, Frame_alloc.alloc fa) with
             | [], got -> got = None
             | p :: rest, got ->
                 free := rest;
                 held := p :: !held;
                 got = Some p)
           else
             match !held with
             | [] -> true
             | l ->
                 let p = List.nth l (k mod List.length l) in
                 held := List.filter (( <> ) p) l;
                 free := p :: !free;
                 Frame_alloc.decr_ref fa p)
          && Frame_alloc.free_count fa = List.length !free)
        ops)

(* Model-based property: the allocator's refcounts and free counts match
   a reference map under random alloc/incr/decr sequences. *)
let prop_alloc_model =
  QCheck2.Test.make ~count:300 ~name:"frame_alloc matches reference model"
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 2))
    (fun ops ->
      let mem = Phys_mem.create ~frames:24 in
      let fa = Frame_alloc.create ~mem ~reserved:2 () in
      let model : (int64, int) Hashtbl.t = Hashtbl.create 16 in
      let held () = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
      let ok = ref true in
      List.iteri
        (fun i op ->
          match op with
          | 0 -> (
              match Frame_alloc.alloc fa with
              | Some p ->
                  if Hashtbl.mem model p then ok := false;
                  Hashtbl.replace model p 1
              | None -> if Hashtbl.length model < Frame_alloc.total fa then ok := false)
          | 1 -> (
              match held () with
              | [] -> ()
              | l ->
                  let p = List.nth l (i mod List.length l) in
                  Frame_alloc.incr_ref fa p;
                  Hashtbl.replace model p (Hashtbl.find model p + 1))
          | _ -> (
              match held () with
              | [] -> ()
              | l ->
                  let p = List.nth l (i mod List.length l) in
                  let rc = Hashtbl.find model p in
                  let freed = Frame_alloc.decr_ref fa p in
                  if rc = 1 then begin
                    if not freed then ok := false;
                    Hashtbl.remove model p
                  end
                  else begin
                    if freed then ok := false;
                    Hashtbl.replace model p (rc - 1)
                  end))
        ops;
      !ok
      && Hashtbl.fold (fun p rc acc -> acc && Frame_alloc.refcount fa p = rc) model true
      && Frame_alloc.used_count fa = Hashtbl.length model)

(* ---------------- P2m ---------------- *)

let test_p2m_basics () =
  let p2m = P2m.create ~gframes:8 in
  checki "gframes" 8 (P2m.gframes p2m);
  checkb "absent" true (P2m.get p2m 3L = P2m.Absent);
  P2m.set p2m 3L (P2m.Present { hpa_ppn = 99L; writable = true; cow = false });
  checki "one present" 1 (P2m.present_count p2m);
  checkb "range" true (P2m.in_range p2m 7L);
  checkb "out of range" false (P2m.in_range p2m 8L);
  Alcotest.check_raises "get oob" (Invalid_argument "P2m: gfn 8 out of range") (fun () ->
      ignore (P2m.get p2m 8L))

let test_p2m_clear_writable () =
  let p2m = P2m.create ~gframes:4 in
  P2m.set p2m 0L (P2m.Present { hpa_ppn = 1L; writable = true; cow = false });
  P2m.set p2m 1L (P2m.Present { hpa_ppn = 2L; writable = false; cow = false });
  P2m.set p2m 2L P2m.Ballooned;
  checki "changed" 1 (P2m.clear_writable_all p2m);
  (match P2m.get p2m 0L with
  | P2m.Present { writable = false; _ } -> ()
  | _ -> Alcotest.fail "not protected");
  checki "fold present" 2
    (P2m.fold_present p2m ~init:0 ~f:(fun acc ~gfn:_ ~hpa_ppn:_ -> acc + 1))

(* ---------------- Host swap ---------------- *)

let test_host_swap_roundtrip () =
  let host = Host.create ~frames:64 ~swap_slots:4 () in
  let p = Frame_alloc.alloc_exn host.Host.alloc in
  Phys_mem.frame_fill host.Host.mem ~ppn:p 'q';
  let slot = Host.swap_out host ~ppn:p in
  Phys_mem.frame_fill host.Host.mem ~ppn:p '\000';
  Host.swap_in host ~slot ~ppn:p;
  check64 "restored" (Int64.of_int (Char.code 'q'))
    (Phys_mem.read host.Host.mem (Int64.shift_left p 12) Instr.W8);
  checki "slot freed" 4 (Host.free_swap_slots host);
  Alcotest.check_raises "empty slot" (Invalid_argument "Host.swap_in: empty slot")
    (fun () -> Host.swap_in host ~slot ~ppn:p)

let test_host_swap_fill_drain () =
  let slots = 8 in
  let host = Host.create ~frames:64 ~swap_slots:slots () in
  let p = Frame_alloc.alloc_exn host.Host.alloc in
  checki "all free initially" slots (Host.free_swap_slots host);
  let taken = Array.init slots (fun _ -> Host.swap_out host ~ppn:p) in
  checki "drained" 0 (Host.free_swap_slots host);
  (* the free list and the slot array must agree that nothing is left *)
  (try
     ignore (Host.swap_out host ~ppn:p);
     Alcotest.fail "swap_out past capacity should fail"
   with Failure _ -> ());
  Array.iter (fun slot -> Host.swap_in host ~slot ~ppn:p) taken;
  checki "refilled" slots (Host.free_swap_slots host);
  (* free list is LIFO: the last slot released is handed out first *)
  let again = Host.swap_out host ~ppn:p in
  checki "LIFO reuse" taken.(slots - 1) again;
  checki "one taken" (slots - 1) (Host.free_swap_slots host)

(* Slots are made on first use; interleaved swap-outs and swap-ins must
   hand out the slots a full LIFO free list of every slot would. *)
let prop_host_swap_order =
  QCheck2.Test.make ~count:200 ~name:"swap slots in free-list order"
    QCheck2.Gen.(list_size (int_range 1 40) (pair bool (int_bound 7)))
    (fun ops ->
      let slots = 6 in
      let host = Host.create ~frames:64 ~swap_slots:slots () in
      let p = Frame_alloc.alloc_exn host.Host.alloc in
      let free = ref (List.init slots Fun.id) and held = ref [] in
      List.for_all
        (fun (out, k) ->
          (if out then
             match !free with
             | [] -> (
                 match Host.swap_out host ~ppn:p with
                 | _ -> false
                 | exception Failure _ -> true)
             | slot :: rest ->
                 free := rest;
                 held := slot :: !held;
                 Host.swap_out host ~ppn:p = slot
           else
             match !held with
             | [] -> true
             | l ->
                 let slot = List.nth l (k mod List.length l) in
                 held := List.filter (( <> ) slot) l;
                 free := slot :: !free;
                 Host.swap_in host ~slot ~ppn:p;
                 true)
          && Host.free_swap_slots host = List.length !free)
        ops)

(* ---------------- Monitor ---------------- *)

let test_monitor_counts () =
  let m = Monitor.create () in
  Monitor.bump m Monitor.E_mmio;
  Monitor.bump m Monitor.E_mmio;
  Monitor.add_cycles m Monitor.E_mmio 100;
  checki "count" 2 (Monitor.count m Monitor.E_mmio);
  check64 "cycles" 100L (Monitor.cycles m Monitor.E_mmio);
  checki "total" 2 (Monitor.total_exits m);
  Monitor.irq_injected m;
  checki "irqs" 1 (Monitor.irq_injections m);
  Monitor.reset m;
  checki "reset" 0 (Monitor.total_exits m)

let test_monitor_kind_index () =
  (* kind_index must be a bijection onto 0..nkinds-1 that agrees with
     the position of each kind in all_exit_kinds *)
  checki "nkinds" (List.length Monitor.all_exit_kinds) Monitor.nkinds;
  List.iteri
    (fun i k -> checki (Monitor.exit_kind_name k) i (Monitor.kind_index k))
    Monitor.all_exit_kinds

let test_monitor_bump_all_kinds () =
  let m = Monitor.create () in
  (* bump each kind a distinct number of times; count must agree *)
  List.iteri
    (fun i k ->
      for _ = 1 to i + 1 do
        Monitor.bump m k
      done;
      Monitor.add_cycles m k (10 * (i + 1)))
    Monitor.all_exit_kinds;
  List.iteri
    (fun i k ->
      checki (Monitor.exit_kind_name k) (i + 1) (Monitor.count m k);
      check64 (Monitor.exit_kind_name k) (Int64.of_int (10 * (i + 1)))
        (Monitor.cycles m k))
    Monitor.all_exit_kinds;
  let n = Monitor.nkinds in
  checki "total" (n * (n + 1) / 2) (Monitor.total_exits m)

let test_monitor_reset_everything () =
  let m = Monitor.create () in
  List.iter
    (fun k ->
      Monitor.bump m k;
      Monitor.add_cycles m k 7)
    Monitor.all_exit_kinds;
  Monitor.irq_injected m;
  Monitor.set_gauge m "tlb.hits" 99;
  Monitor.reset m;
  List.iter
    (fun k ->
      checki (Monitor.exit_kind_name k) 0 (Monitor.count m k);
      check64 (Monitor.exit_kind_name k) 0L (Monitor.cycles m k))
    Monitor.all_exit_kinds;
  checki "total" 0 (Monitor.total_exits m);
  checki "irqs" 0 (Monitor.irq_injections m);
  Alcotest.(check (list (pair string int))) "gauges" [] (Monitor.gauges m)

(* ---------------- Vcpu ---------------- *)

let test_vcpu_lifecycle () =
  let v = Vcpu.create ~id:1 ~vm_id:0 ~entry:0x1000L () in
  checkb "runnable" true (Vcpu.is_runnable v);
  check64 "entry" 0x1000L (Cpu.pc v.Vcpu.state);
  Vcpu.block v;
  checkb "blocked" false (Vcpu.is_runnable v);
  Vcpu.wake v ~boost:true;
  checkb "woken" true (Vcpu.is_runnable v);
  checkb "boosted" true v.Vcpu.boosted;
  v.Vcpu.runstate <- Vcpu.Halted;
  Vcpu.wake v ~boost:false;
  checkb "halted stays halted" false (Vcpu.is_runnable v)

(* ---------------- VM-level memory paths ---------------- *)

let make_vm ?(paging = Vm.Shadow_paging) ?(mem_frames = 64) () =
  let host = Host.create ~frames:512 () in
  let vm =
    Vm.create ~host ~id:0 ~name:"unit" ~mem_frames ~paging ~entry:0L ()
  in
  (host, vm)

let test_vm_gpa_accessors () =
  let _, vm = make_vm () in
  checkb "write" true (Vm.write_gpa_u64 vm 0x1008L 0xDEADL);
  Alcotest.(check (option int64)) "read back" (Some 0xDEADL) (Vm.read_gpa_u64 vm 0x1008L);
  Alcotest.(check (option int64)) "misaligned" None (Vm.read_gpa_u64 vm 0x1001L);
  (* cross-page byte string *)
  let s = Bytes.of_string (String.make 6000 'r') in
  checkb "bytes write" true (Vm.write_gpa_bytes vm 0x0FFCL s);
  (match Vm.read_gpa_bytes vm 0x0FFCL 6000 with
  | Some b -> checkb "bytes read" true (Bytes.equal b s)
  | None -> Alcotest.fail "read failed");
  checkb "oob" true (Vm.read_gpa_u64 vm 0x40_0000L = None)

(* Span copies against a byte-wise reference: every byte through its own
   frame lookup and a one-byte access.  4200 bytes from 0x1FF0 cross two
   page boundaries (guest frames 1, 2 and 3). *)
let test_vm_gpa_bytes_straddle () =
  let host, vm = make_vm () in
  let mem = host.Host.mem in
  let gpa = 0x1FF0L and len = 4200 in
  let byte_pa i =
    let a = Int64.add gpa (Int64.of_int i) in
    match Vm.resolve_read vm (Int64.shift_right_logical a Arch.page_shift) with
    | Some ppn ->
        Int64.logor (Int64.shift_left ppn Arch.page_shift)
          (Int64.logand a (Int64.of_int (Arch.page_size - 1)))
    | None -> Alcotest.fail "unbacked guest frame"
  in
  let src = Bytes.init len (fun i -> Char.chr (((i * 7) + 3) land 0xFF)) in
  checkb "write" true (Vm.write_gpa_bytes vm gpa src);
  let written =
    Bytes.init len (fun i -> Char.chr (Int64.to_int (Phys_mem.read mem (byte_pa i) Instr.W8)))
  in
  checkb "write = byte-wise" true (Bytes.equal written src);
  let pattern = Bytes.init len (fun i -> Char.chr (((i * 13) + 1) land 0xFF)) in
  Bytes.iteri
    (fun i c -> Phys_mem.write mem (byte_pa i) Instr.W8 (Int64.of_int (Char.code c)))
    pattern;
  (match Vm.read_gpa_bytes vm gpa len with
  | Some b -> checkb "read = byte-wise" true (Bytes.equal b pattern)
  | None -> Alcotest.fail "read failed");
  let ram = Int64.of_int (64 * Arch.page_size) in
  checkb "read past RAM" true (Vm.read_gpa_bytes vm (Int64.sub ram 8L) 16 = None);
  checkb "read longer than RAM" true (Vm.read_gpa_bytes vm 0L (Int64.to_int ram + 1) = None);
  checkb "negative length" true (Vm.read_gpa_bytes vm 0L (-1) = None);
  checkb "write past RAM" false (Vm.write_gpa_bytes vm (Int64.sub ram 8L) (Bytes.make 16 'x'))

let test_vm_dirty_logging () =
  let _, vm = make_vm () in
  Vm.start_dirty_logging vm;
  checki "clean" 0 (Vm.dirty_count vm);
  ignore (Vm.write_gpa_u64 vm 0x3000L 1L);
  checkb "marked" true (Vm.is_dirty vm 3L);
  checki "one page" 1 (Vm.dirty_count vm);
  Alcotest.(check (list int64)) "collect" [ 3L ] (Vm.collect_dirty vm ~clear:true);
  checki "cleared" 0 (Vm.dirty_count vm);
  Vm.stop_dirty_logging vm;
  ignore (Vm.write_gpa_u64 vm 0x4000L 1L);
  checki "not logging" 0 (Vm.dirty_count vm)

let test_vm_balloon () =
  let host, vm = make_vm () in
  let free0 = Frame_alloc.free_count host.Host.alloc in
  checkb "balloon out" true (Vm.balloon_out vm 10L);
  checki "freed to host" (free0 + 1) (Frame_alloc.free_count host.Host.alloc);
  checkb "read fails" true (Vm.read_gpa_u64 vm (Int64.shift_left 10L 12) = None);
  checkb "balloon out twice fails" false (Vm.balloon_out vm 10L);
  checkb "balloon in" true (Vm.balloon_in vm 10L);
  Alcotest.(check (option int64)) "zeroed page back" (Some 0L)
    (Vm.read_gpa_u64 vm (Int64.shift_left 10L 12))

let test_vm_destroy_returns_frames () =
  let host = Host.create ~frames:512 () in
  let free0 = Frame_alloc.free_count host.Host.alloc in
  let vm = Vm.create ~host ~id:1 ~name:"tmp" ~mem_frames:64 ~entry:0L () in
  checkb "frames taken" true (Frame_alloc.free_count host.Host.alloc = free0 - 64);
  Vm.destroy vm;
  checki "frames back" free0 (Frame_alloc.free_count host.Host.alloc)

(* ---------------- Shadow pager (synthetic guest tables) ---------------- *)

(* Build guest page tables by hand inside the VM's memory, point a vCPU's
   virtual satp at them, and drive Shadow.handle_fault/translate. *)
let make_shadow_world () =
  let host, vm = make_vm ~paging:Vm.Shadow_paging ~mem_frames:64 () in
  let shadow = Option.get vm.Vm.shadow in
  (* guest PT root at gfn 8; map GVA 0x4000 -> gfn 5 (user rw) *)
  let root_gfn = 8L in
  let gpt_alloc = ref 9L in
  let alloc () =
    let g = !gpt_alloc in
    gpt_alloc := Int64.add g 1L;
    g
  in
  let acc =
    {
      Pt_build.read_pte = (fun gpa -> Option.value (Vm.read_gpa_u64 vm gpa) ~default:0L);
      write_pte = (fun gpa v -> ignore (Vm.write_gpa_u64 vm gpa v));
    }
  in
  (host, vm, shadow, root_gfn, acc, alloc)

let user_rw = { Pte.r = true; w = true; x = false; u = true }

let test_shadow_fill_and_translate () =
  let _, vm, shadow, root_gfn, acc, alloc = make_shadow_world () in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x4000L (Pte.leaf ~ppn:5L user_rw);
  (* fault-fill a load *)
  (match Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:0x4008L with
  | Shadow.Filled _ -> ()
  | _ -> Alcotest.fail "expected fill");
  checki "fills" 1 (Shadow.fills shadow);
  checkb "root paired and protected" true (Shadow.is_pt_gfn shadow root_gfn);
  (* the shadow now translates loads without faults *)
  let tlb = Tlb.create ~size:8 in
  (match Shadow.translate shadow ~satp:(Arch.satp_make ~root_ppn:root_gfn) ~tlb ~access:Arch.Load ~user:true 0x4008L with
  | x when x >= 0 ->
      (* pa must land in the host frame backing gfn 5 *)
      let hpa = Option.get (Vm.resolve_read vm 5L) in
      checki "host frame" (Int64.to_int hpa) (Cpu.xl_pa x lsr 12)
  | _ -> Alcotest.fail "translate failed");
  (* stores still fault (guest D bit not yet set)… *)
  (match Shadow.translate shadow ~satp:(Arch.satp_make ~root_ppn:root_gfn) ~tlb ~access:Arch.Store ~user:true 0x4008L with
  | x when x = Cpu.xl_page -> ()
  | _ -> Alcotest.fail "store should fault for D-bit");
  (* …until the pager upgrades them *)
  (match Shadow.handle_fault shadow ~root_gfn ~access:Arch.Store ~user:true ~va:0x4008L with
  | Shadow.Filled _ -> ()
  | _ -> Alcotest.fail "store fill");
  (match Shadow.translate shadow ~satp:(Arch.satp_make ~root_ppn:root_gfn) ~tlb ~access:Arch.Store ~user:true 0x4008L with
  | x when x >= 0 -> ()
  | _ -> Alcotest.fail "store should now hit");
  (* and the guest leaf has A+D set *)
  match Pt_build.walk acc ~root_ppn:root_gfn 0x4000L with
  | Ok { pte; _ } ->
      checkb "A" true (Pte.accessed pte);
      checkb "D" true (Pte.dirty pte)
  | Error _ -> Alcotest.fail "guest walk"

let test_shadow_guest_fault () =
  let _, _, shadow, root_gfn, acc, alloc = make_shadow_world () in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x4000L (Pte.leaf ~ppn:5L user_rw);
  (* unmapped VA *)
  (match Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:0x9000L with
  | Shadow.Guest_fault -> ()
  | _ -> Alcotest.fail "expected guest fault");
  (* supervisor-only page touched from user *)
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x5000L
    (Pte.leaf ~ppn:6L { Pte.r = true; w = true; x = false; u = false });
  match Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:0x5000L with
  | Shadow.Guest_fault -> ()
  | _ -> Alcotest.fail "expected permission fault"

let test_shadow_pt_write_detection () =
  let _, _, shadow, root_gfn, acc, alloc = make_shadow_world () in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x4000L (Pte.leaf ~ppn:5L user_rw);
  ignore (Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:0x4008L);
  (* map the leaf-table gfn itself into the guest address space and store
     to it: the pager must flag a PT write rather than filling *)
  let leaf_table_gfn = 9L (* first gpt_alloc after root: level-1 table *) in
  ignore leaf_table_gfn;
  (* find a gfn that is a pt page (not the root, any) *)
  let pt_gfn = ref None in
  for g = 8 to 12 do
    if Shadow.is_pt_gfn shadow (Int64.of_int g) then pt_gfn := Some (Int64.of_int g)
  done;
  let pt_gfn = Option.get !pt_gfn in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x8000L (Pte.leaf ~ppn:pt_gfn user_rw);
  match Shadow.handle_fault shadow ~root_gfn ~access:Arch.Store ~user:true ~va:0x8010L with
  | Shadow.Pt_write { gpa } ->
      check64 "gpa in that frame" pt_gfn (Int64.shift_right_logical gpa 12)
  | _ -> Alcotest.fail "expected Pt_write"

let test_shadow_emulate_pt_write_invalidates () =
  let _, vm, shadow, root_gfn, acc, alloc = make_shadow_world () in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x4000L (Pte.leaf ~ppn:5L user_rw);
  ignore (Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:0x4000L);
  let tlb = Tlb.create ~size:8 in
  (match Shadow.translate shadow ~satp:(Arch.satp_make ~root_ppn:root_gfn) ~tlb ~access:Arch.Load ~user:true 0x4000L with
  | x when x >= 0 -> ()
  | _ -> Alcotest.fail "should hit");
  (* locate the guest leaf PTE and remap the VA to gfn 6 via the pager *)
  (match Pt_build.walk acc ~root_ppn:root_gfn 0x4000L with
  | Ok { pte_addr; _ } ->
      checkb "applied" true
        (Shadow.emulate_pt_write shadow ~gpa:pte_addr ~value:(Pte.leaf ~ppn:6L user_rw))
  | Error _ -> Alcotest.fail "guest walk");
  ignore (Shadow.take_tlb_flush shadow);
  Tlb.flush tlb;
  (* the old shadow entry is gone: next access faults, then refills to
     the new frame *)
  (match Shadow.translate shadow ~satp:(Arch.satp_make ~root_ppn:root_gfn) ~tlb ~access:Arch.Load ~user:true 0x4000L with
  | x when x = Cpu.xl_page -> ()
  | _ -> Alcotest.fail "stale shadow entry survived");
  ignore (Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:0x4000L);
  match Shadow.translate shadow ~satp:(Arch.satp_make ~root_ppn:root_gfn) ~tlb ~access:Arch.Load ~user:true 0x4000L with
  | x when x >= 0 ->
      let hpa6 = Option.get (Vm.resolve_read vm 6L) in
      checki "remapped" (Int64.to_int hpa6) (Cpu.xl_pa x lsr 12)
  | _ -> Alcotest.fail "refill failed"

(* Rewriting a guest superpage entry must drop every 4 KiB shadow leaf
   splintered from it, not just the paired L1 slot: the next fill
   re-links the splinter table, and a leaf left in it would keep serving
   the old permissions. *)
let test_shadow_superpage_rewrite () =
  let _, _, shadow, root_gfn, acc, alloc = make_shadow_world () in
  let satp = Arch.satp_make ~root_ppn:root_gfn in
  let va = 0x20_0000L and va2 = 0x20_1000L in
  Pt_build.map ~level:1 acc ~alloc ~root_ppn:root_gfn ~va (Pte.leaf ~ppn:0L user_rw);
  let tlb = Tlb.create ~size:8 in
  let fill access va =
    match Shadow.handle_fault shadow ~root_gfn ~access ~user:true ~va with
    | Shadow.Filled _ -> ()
    | _ -> Alcotest.fail "expected a fill"
  in
  fill Arch.Load va;
  fill Arch.Load va2;
  checkb "splinter serves the second page" true
    (Shadow.translate shadow ~satp ~tlb ~access:Arch.Load ~user:true va2 >= 0);
  (* the guest makes the superpage execute-only *)
  let l1 = Pte.ppn (acc.Pt_build.read_pte
    (Int64.add (Int64.shift_left root_gfn 12) (Int64.of_int (8 * Page_table.vpn va ~level:2)))) in
  let gpa = Int64.add (Int64.shift_left l1 12) (Int64.of_int (8 * Page_table.vpn va ~level:1)) in
  checkb "applied" true
    (Shadow.emulate_pt_write shadow ~gpa
       ~value:(Pte.leaf ~ppn:0L { Pte.r = false; w = false; x = true; u = true }));
  ignore (Shadow.take_tlb_flush shadow);
  Tlb.flush tlb;
  fill Arch.Fetch va;
  checkb "refilled for fetch" true
    (Shadow.translate shadow ~satp ~tlb ~access:Arch.Fetch ~user:true va >= 0);
  checkb "stale splinter leaf is gone" true
    (Shadow.translate shadow ~satp ~tlb ~access:Arch.Load ~user:true va2 = Cpu.xl_page)

(* A guest table pointer outside RAM is a bad gpa, and costs no host
   frame: the pager checks for RAM before it pairs a table. *)
let test_shadow_bad_table_no_leak () =
  let host, _, shadow, root_gfn, acc, _ = make_shadow_world () in
  let free () = Frame_alloc.free_count host.Host.alloc in
  let va k = Int64.shift_left (Int64.of_int k) (Arch.page_shift + (2 * Arch.vpn_bits)) in
  (* pair the root first: root entry 10 is not present *)
  (match Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:(va 10) with
  | Shadow.Guest_fault -> ()
  | _ -> Alcotest.fail "expected a guest fault");
  let before = free () in
  for k = 0 to 9 do
    acc.Pt_build.write_pte
      (Pt_build.pte_addr_of ~table_ppn:root_gfn ~index:k)
      (Pte.table ~ppn:(Int64.of_int (64 + k)))
  done;
  let bad = ref 0 in
  for k = 0 to 9 do
    match Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:(va k) with
    | Shadow.Bad_gpa -> incr bad
    | _ -> ()
  done;
  checki "bad gpas" 10 !bad;
  (* a root outside RAM, too *)
  checkb "bad root" true
    (Shadow.handle_fault shadow ~root_gfn:1000L ~access:Arch.Load ~user:true ~va:0L
     = Shadow.Bad_gpa);
  checki "host free frames" before (free ());
  checki "shadow tables" 1 (Shadow.table_frames shadow)

let test_shadow_invalidate_gfn () =
  let _, _, shadow, root_gfn, acc, alloc = make_shadow_world () in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x4000L (Pte.leaf ~ppn:5L user_rw);
  ignore (Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:0x4000L);
  Shadow.invalidate_gfn shadow 5L;
  let tlb = Tlb.create ~size:8 in
  match Shadow.translate shadow ~satp:(Arch.satp_make ~root_ppn:root_gfn) ~tlb ~access:Arch.Load ~user:true 0x4000L with
  | x when x = Cpu.xl_page -> ()
  | _ -> Alcotest.fail "mapping should be revoked"

let test_shadow_mmio_detection () =
  let _, _, shadow, root_gfn, acc, alloc = make_shadow_world () in
  (* guest maps the UART page *)
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x6000L
    (Pte.leaf ~ppn:(Int64.shift_right_logical 0x4000_0000L 12) user_rw);
  match Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:0x6008L with
  | Shadow.Target_mmio { gpa } -> check64 "device gpa" 0x4000_0008L gpa
  | _ -> Alcotest.fail "expected mmio"

let test_shadow_flush_all_frees () =
  let host, _, shadow, root_gfn, acc, alloc = make_shadow_world () in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x4000L (Pte.leaf ~ppn:5L user_rw);
  ignore (Shadow.handle_fault shadow ~root_gfn ~access:Arch.Load ~user:true ~va:0x4000L);
  let used = Frame_alloc.used_count host.Host.alloc in
  let tables = Shadow.table_frames shadow in
  checkb "has tables" true (tables > 0);
  Shadow.flush_all shadow;
  checki "frames released" (used - tables) (Frame_alloc.used_count host.Host.alloc);
  checki "no tables" 0 (Shadow.table_frames shadow)

(* ---------------- Nested classification ---------------- *)

let make_nested_world () =
  let host, vm = make_vm ~paging:Vm.Nested_paging ~mem_frames:64 () in
  let nested = Option.get vm.Vm.nested in
  let acc =
    {
      Pt_build.read_pte = (fun gpa -> Option.value (Vm.read_gpa_u64 vm gpa) ~default:0L);
      write_pte = (fun gpa v -> ignore (Vm.write_gpa_u64 vm gpa v));
    }
  in
  let gpt_alloc = ref 9L in
  let alloc () =
    let g = !gpt_alloc in
    gpt_alloc := Int64.add g 1L;
    g
  in
  (host, vm, nested, acc, alloc)

let test_nested_translate_and_ad () =
  let _, vm, nested, acc, alloc = make_nested_world () in
  let root_gfn = 8L in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x4000L (Pte.leaf ~ppn:5L user_rw);
  let satp = Arch.satp_make ~root_ppn:root_gfn in
  let tlb = Tlb.create ~size:8 in
  (match Nested.translate nested ~guest_satp:satp ~tlb ~access:Arch.Store ~user:true 0x4010L with
  | x when x >= 0 ->
      let hpa = Option.get (Vm.resolve_read vm 5L) in
      checki "frame" (Int64.to_int hpa) (Cpu.xl_pa x lsr 12);
      (* 2-D walk: (3+1)*3 + 3 = 15 refs *)
      checkb "2d cost" true (Cpu.xl_cycles x >= 15 * Cost_model.default.Cost_model.pt_ref)
  | _ -> Alcotest.fail "translate failed");
  (* A/D set in the guest tables by the walker *)
  (match Pt_build.walk acc ~root_ppn:root_gfn 0x4000L with
  | Ok { pte; _ } ->
      checkb "A" true (Pte.accessed pte);
      checkb "D" true (Pte.dirty pte)
  | Error _ -> Alcotest.fail "guest walk");
  (* TLB hit on retry *)
  match Nested.translate nested ~guest_satp:satp ~tlb ~access:Arch.Load ~user:true 0x4000L with
  | x when x >= 0 && Cpu.xl_cycles x = 0 -> ()
  | _ -> Alcotest.fail "expected TLB hit"

let test_nested_classify () =
  let _, vm, nested, acc, alloc = make_nested_world () in
  let root_gfn = 8L in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x4000L (Pte.leaf ~ppn:5L user_rw);
  let satp = Arch.satp_make ~root_ppn:root_gfn in
  (* guest-level: unmapped va *)
  (match Nested.classify_fault nested ~guest_satp:satp ~access:Arch.Load ~user:true ~va:0x9000L with
  | Nested.Guest_level -> ()
  | _ -> Alcotest.fail "expected guest level");
  (* host-level: balloon the data frame out *)
  ignore (Vm.balloon_out vm 5L);
  (* ballooned = unbacked: the data page target is now gone *)
  (match Nested.classify_fault nested ~guest_satp:satp ~access:Arch.Load ~user:true ~va:0x4000L with
  | Nested.Host_level { gfn = 5L } -> ()
  | _ -> Alcotest.fail "expected host level on ballooned frame");
  (* mmio *)
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x6000L
    (Pte.leaf ~ppn:(Int64.shift_right_logical 0x4000_0000L 12) user_rw);
  (match Nested.classify_fault nested ~guest_satp:satp ~access:Arch.Load ~user:true ~va:0x6000L with
  | Nested.Mmio { gpa = 0x4000_0000L } -> ()
  | _ -> Alcotest.fail "expected mmio");
  (* bad gpa: guest maps beyond its memory *)
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x7000L (Pte.leaf ~ppn:1000L user_rw);
  match Nested.classify_fault nested ~guest_satp:satp ~access:Arch.Load ~user:true ~va:0x7000L with
  | Nested.Bad _ -> ()
  | _ -> Alcotest.fail "expected bad gpa"

let test_nested_write_protection () =
  let _, vm, nested, acc, alloc = make_nested_world () in
  let root_gfn = 8L in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x4000L (Pte.leaf ~ppn:5L user_rw);
  let satp = Arch.satp_make ~root_ppn:root_gfn in
  let tlb = Tlb.create ~size:8 in
  Vm.start_dirty_logging vm;
  (* loads fine, stores host-fault *)
  (match Nested.translate nested ~guest_satp:satp ~tlb ~access:Arch.Load ~user:true 0x4000L with
  | x when x >= 0 -> ()
  | _ -> Alcotest.fail "load should pass");
  match Nested.translate nested ~guest_satp:satp ~tlb ~access:Arch.Store ~user:true 0x4000L with
  | x when x = Cpu.xl_page -> ()
  | _ -> Alcotest.fail "store should host-fault under logging"

(* A device page's entry serves every access from the TLB, a fetch
   too; the MMIO flag it carries still sends the access to the device. *)
let test_nested_mmio_fetch_hits () =
  let _, _, nested, acc, alloc = make_nested_world () in
  let root_gfn = 8L in
  Pt_build.map acc ~alloc ~root_ppn:root_gfn ~va:0x6000L
    (Pte.leaf ~ppn:(Int64.shift_right_logical 0x4000_0000L 12) { user_rw with x = true });
  let satp = Arch.satp_make ~root_ppn:root_gfn in
  let tlb = Tlb.create ~size:8 in
  let fetch () =
    Nested.translate nested ~guest_satp:satp ~tlb ~access:Arch.Fetch ~user:true 0x6008L
  in
  let first = fetch () in
  checkb "mmio" true (first >= 0 && Cpu.xl_mmio first && Cpu.xl_pa first = 0x4000_0008);
  checki "same translation" first (fetch ());
  checki "hit" 1 (Tlb.hits tlb);
  checki "one walk" 1 (Nested.walks nested)

(* The walker property: [Nested.walk] against [Nested_model], the
   reference 2-D walk, on two identical worlds.  Guest frames 0-11 have
   random p2m entries (Absent; Present writable, read-only or COW;
   Swapped; Ballooned; Remote), each Present one backed by host frame
   gfn + 4.  Indexes 0-3 of frames 0-2 mostly point at frames 3-5, whose
   entries mostly point at frames 6-8 or are superpage leaves (aligned,
   misaligned, MMIO); frames 6-8 mostly hold 4 KiB leaves; the rest of
   the entries are not present, pointers to gfns inside and beyond the
   p2m, leaves anywhere, and words with reserved and top bits set.
   Leaves carry every permission mix and A/D state.  A run of walks
   (guest paging on or off, every access kind, user or supervisor,
   canonical or not) must give the same outcomes, leave the same guest
   memory, report the same [mark_ad_write] sequence and count the same
   walks. *)
let nested_gframes = 12

let gen_p2m_entry =
  QCheck2.Gen.(
    frequencyl
      [
        (1, `Absent);
        (5, `Rw);
        (2, `Ro);
        (3, `Cow);
        (1, `Swapped);
        (1, `Ballooned);
        (1, `Remote);
      ])

(* An entry of a frame of [role] 2, 1 or 0 (the level it mostly serves),
   or of a data frame (-1). *)
let gen_guest_pte role =
  QCheck2.Gen.(
    let gfn lo hi = map Int64.of_int (int_range lo hi) in
    let perms =
      frequency
        [
          (1, return { Pte.r = true; w = true; x = true; u = true });
          (2, map (fun (r, w, x, u) -> { Pte.r; w; x; u }) (quad bool bool bool bool));
        ]
    in
    let leaf ppn =
      map3
        (fun ppn p (a, d) ->
          let pte = Pte.leaf ~ppn p in
          let pte = if a then Pte.set_accessed pte else pte in
          if d then Pte.set_dirty pte else pte)
        ppn perms (pair bool bool)
    in
    let any =
      frequency
        [
          (2, return Pte.invalid);
          (2, map (fun ppn -> Pte.table ~ppn) (gfn 0 (nested_gframes + 1)));
          (2, leaf (gfn 0 (nested_gframes + 1)));
          ( 1,
            map2
              (fun pte high -> Int64.logor pte (Int64.shift_left (Int64.of_int high) 54))
              (map2 (fun ppn p -> Pte.leaf ~ppn p) (gfn 0 (nested_gframes + 1)) perms)
              (int_bound 0x3FF) );
        ]
    in
    match role with
    | 2 -> frequency [ (3, map (fun ppn -> Pte.table ~ppn) (gfn 3 5)); (1, any) ]
    | 1 ->
        frequency
          [
            (3, map (fun ppn -> Pte.table ~ppn) (gfn 6 8));
            (1, leaf (oneofl [ 0L; 1L; 512L; 513L; 0x40000L ]));
            (1, any);
          ]
    | 0 ->
        frequency
          [
            (6, leaf (gfn 0 (nested_gframes + 1)));
            (1, leaf (oneofl [ 0x40000L; 0x40001L ]));
            (1, any);
          ]
    | _ -> any)

let gen_guest_tables =
  QCheck2.Gen.(
    flatten_l
      (List.concat_map
         (fun gfn ->
           let role = if gfn < 9 then 2 - (gfn / 3) else -1 in
           List.init 4 (fun index -> map (fun pte -> (gfn, index, pte)) (gen_guest_pte role)))
         (List.init nested_gframes Fun.id)))

let gen_nested_walk =
  QCheck2.Gen.(
    let va =
      map
        (fun ((i2, i1, i0), (off, noncanon)) ->
          Int64.logor
            (Int64.of_int ((i2 lsl 30) lor (i1 lsl 21) lor (i0 lsl 12) lor off))
            (if noncanon then Int64.shift_left 1L 39 else 0L))
        (pair
           (triple (int_range 0 3) (int_range 0 3) (int_range 0 3))
           (pair (int_bound 4095) (frequencyl [ (9, false); (1, true) ])))
    in
    map2
      (fun (root, paging, access) (user, va) ->
        let satp =
          if paging then Arch.satp_make ~root_ppn:(Int64.of_int root) else Int64.of_int root
        in
        (satp, access, user, va))
      (triple
         (frequency [ (4, int_range 0 2); (1, int_range 0 (nested_gframes + 1)) ])
         (frequencyl [ (9, true); (1, false) ])
         (oneofl [ Arch.Fetch; Arch.Load; Arch.Store ]))
      (pair bool va))

(* One world: host memory, the p2m and a log of [mark_ad_write] calls. *)
let nested_world kinds entries =
  let mem = Phys_mem.create ~frames:(nested_gframes + 4) in
  let p2m = P2m.create ~gframes:nested_gframes in
  List.iteri
    (fun gfn kind ->
      let hpa_ppn = Int64.of_int (gfn + 4) in
      P2m.set p2m (Int64.of_int gfn)
        (match kind with
        | `Absent -> P2m.Absent
        | `Rw -> P2m.Present { hpa_ppn; writable = true; cow = false }
        | `Ro -> P2m.Present { hpa_ppn; writable = false; cow = false }
        | `Cow -> P2m.Present { hpa_ppn; writable = false; cow = true }
        | `Swapped -> P2m.Swapped { slot = 0 }
        | `Ballooned -> P2m.Ballooned
        | `Remote -> P2m.Remote))
    kinds;
  List.iter
    (fun (gfn, index, pte) ->
      Phys_mem.write mem (Int64.of_int (((gfn + 4) * 4096) + (index * 8))) Instr.W64 pte)
    entries;
  let log = ref [] in
  let env =
    {
      Nested.mem;
      cost = Cost_model.default;
      p2m;
      mark_ad_write = (fun gfn -> log := gfn :: !log);
    }
  in
  (mem, env, log)

let prop_nested_walk_matches_model =
  QCheck2.Test.make ~count:500 ~name:"walk matches the reference 2-D walk"
    QCheck2.Gen.(
      triple
        (list_repeat nested_gframes gen_p2m_entry)
        gen_guest_tables
        (list_size (int_range 1 16) gen_nested_walk))
    (fun (kinds, entries, walks) ->
      let mem_m, env_m, log_m = nested_world kinds entries
      and mem_n, env_n, log_n = nested_world kinds entries in
      let model = Nested_model.create env_m and nested = Nested.create env_n in
      List.for_all
        (fun (guest_satp, access, user, va) ->
          Nested_model.walk model ~guest_satp ~access ~user va
          = Nested.walk nested ~guest_satp ~access ~user va)
        walks
      && !log_m = !log_n
      && Nested_model.walks model = Nested.walks nested
      && List.for_all
           (fun ppn ->
             Bytes.equal (Phys_mem.frame_read mem_m ~ppn:(Int64.of_int ppn))
               (Phys_mem.frame_read mem_n ~ppn:(Int64.of_int ppn)))
           (List.init (nested_gframes + 4) Fun.id))

(* Shadow paging with guest paging off: a load fills an entry for a page
   the dirty log keeps read-only, and a store through that clean entry
   misses and walks the p2m again — faulting while the page is logged,
   filling once the log let it be written. *)
let test_bare_shadow_clean_store_rewalks () =
  let _, vm = make_vm () in
  let translate = Vm.translate vm ~vcpu_idx:0 and tlb = vm.Vm.tlbs.(0) in
  Vm.start_dirty_logging vm;
  let load = translate ~access:Arch.Load ~user:false 0x5008L in
  checkb "load fills" true (load >= 0 && Cpu.xl_cycles load > 0);
  checki "store to a logged page faults" Cpu.xl_page
    (translate ~access:Arch.Store ~user:false 0x5008L);
  (* the dirty-log exit's repair, without the flush that follows it *)
  ignore (Vm.resolve_write vm 5L);
  let store = translate ~access:Arch.Store ~user:false 0x5008L in
  checkb "store re-walks" true (store >= 0 && Cpu.xl_cycles store > 0);
  checki "same frame" (Cpu.xl_pa load) (Cpu.xl_pa store);
  checki "every access so far missed" 3 (Tlb.misses tlb);
  checki "then stores hit" 0 (Cpu.xl_cycles (translate ~access:Arch.Store ~user:false 0x5010L));
  checki "one hit" 1 (Tlb.hits tlb)

(* ---------------- Bound translator ---------------- *)

(* A guest with two page-table roots mapping the same VAs to different
   frames with different permissions, so a translator that kept the satp
   it saw when bound would answer from the wrong tables. *)
let make_two_root_vm paging =
  let _, vm = make_vm ~paging ~mem_frames:64 () in
  let acc =
    {
      Pt_build.read_pte = (fun gpa -> Option.value (Vm.read_gpa_u64 vm gpa) ~default:0L);
      write_pte = (fun gpa v -> ignore (Vm.write_gpa_u64 vm gpa v));
    }
  in
  let next = ref 40L in
  let alloc () =
    let g = !next in
    next := Int64.add g 1L;
    g
  in
  let user_rwx = { Pte.r = true; w = true; x = true; u = true } in
  let kernel_rx = { Pte.r = true; w = false; x = true; u = false } in
  for i = 0 to 3 do
    let va = Int64.of_int (0x4000 + (i * 0x1000)) in
    Pt_build.map acc ~alloc ~root_ppn:8L ~va (Pte.leaf ~ppn:(Int64.of_int (16 + i)) user_rwx);
    Pt_build.map acc ~alloc ~root_ppn:9L ~va (Pte.leaf ~ppn:(Int64.of_int (24 + i)) kernel_rx)
  done;
  vm

(* paging off, root A, root B *)
let two_root_satps = [| 0L; Arch.satp_make ~root_ppn:8L; Arch.satp_make ~root_ppn:9L |]

let two_root_vas =
  [| 0x4000L; 0x4008L; 0x5010L; 0x7FF8L; 0x9000L; 0x1_0000L; 0x100_0000L; 0x4000_0000L |]

(* What the hypervisor does on a shadow [`Page] exit, so later accesses
   can hit; nested VMs here never need host-level repair. *)
let service_fault vm ~access ~user ~va =
  match vm.Vm.shadow with
  | Some shadow ->
      let satp = Cpu.get_csr vm.Vm.vcpus.(0).Vcpu.state Arch.Satp in
      if Arch.satp_enabled satp then begin
        ignore (Shadow.handle_fault shadow ~root_gfn:(Arch.satp_root_ppn satp) ~access ~user ~va);
        if Shadow.take_tlb_flush shadow then Vm.flush_all_tlbs vm
      end
  | None -> ()

let tlb_counters vm =
  let tlb = vm.Vm.tlbs.(0) in
  (Tlb.hits tlb, Tlb.misses tlb, Tlb.evictions tlb, Tlb.flushes tlb)

(* [Vm.translate vm ~vcpu_idx] bound once must keep following the guest's
   satp: driven through satp switches (each followed by a flush, as a
   guest's satp write is), it agrees with a fresh full application on a
   twin VM in every result and every TLB counter. *)
let prop_bound_translate_follows_satp paging label =
  QCheck2.Test.make ~count:40
    ~name:(Printf.sprintf "follows satp (%s)" label)
    QCheck2.Gen.(
      list_size (int_range 1 10)
        (pair (int_range 0 2)
           (list_size (int_range 1 16)
              (triple (int_range 0 2) bool (int_range 0 (Array.length two_root_vas - 1))))))
    (fun phases ->
      let bound_vm = make_two_root_vm paging and fresh_vm = make_two_root_vm paging in
      let bound = Vm.translate bound_vm ~vcpu_idx:0 in
      let both f =
        f bound_vm;
        f fresh_vm
      in
      List.for_all
        (fun (mode, accesses) ->
          both (fun vm ->
              Cpu.set_csr vm.Vm.vcpus.(0).Vcpu.state Arch.Satp two_root_satps.(mode);
              Vm.flush_vcpu_tlb vm ~vcpu_idx:0);
          List.for_all
            (fun (a, user, v) ->
              let access = [| Arch.Load; Arch.Store; Arch.Fetch |].(a) in
              let va = two_root_vas.(v) in
              let got = bound ~access ~user va in
              let want = Vm.translate fresh_vm ~vcpu_idx:0 ~access ~user va in
              if got = Cpu.xl_page then both (fun vm -> service_fault vm ~access ~user ~va);
              got = want && tlb_counters bound_vm = tlb_counters fresh_vm)
            accesses)
        phases)

(* ---------------- Schedulers ---------------- *)

let drive_scheduler sched vcpus ~rounds =
  (* simulate pick/charge cycles; every vcpu always runnable *)
  let shares = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace shares v.Vcpu.id 0) vcpus;
  List.iter (fun v -> sched.Scheduler.enqueue v) vcpus;
  let now = ref 0L in
  for _ = 1 to rounds do
    match sched.Scheduler.pick ~now:!now with
    | Some (v, slice) ->
        now := Int64.add !now (Int64.of_int slice);
        sched.Scheduler.charge v ~used:slice ~now:!now;
        Hashtbl.replace shares v.Vcpu.id (Hashtbl.find shares v.Vcpu.id + slice);
        sched.Scheduler.requeue v
    | None -> Alcotest.fail "scheduler went idle with runnable vcpus"
  done;
  List.map (fun v -> Hashtbl.find shares v.Vcpu.id) vcpus

let test_rr_equal_shares () =
  let vcpus = List.init 3 (fun i -> Vcpu.create ~id:i ~vm_id:i ~entry:0L ()) in
  let shares = drive_scheduler (Round_robin.create ()) vcpus ~rounds:300 in
  match shares with
  | [ a; b; c ] ->
      checkb "equal" true (a = b && b = c)
  | _ -> Alcotest.fail "expected 3"

let test_credit_weighted_shares () =
  let vcpus = List.init 3 (fun i -> Vcpu.create ~id:i ~vm_id:i ~entry:0L ()) in
  List.iteri (fun i v -> v.Vcpu.weight <- 256 * (i + 1)) vcpus;
  let shares = drive_scheduler (Credit.create ()) vcpus ~rounds:3000 in
  (match shares with
  | [ a; b; c ] ->
      let fa = float_of_int a and fb = float_of_int b and fc = float_of_int c in
      checkb "monotone in weight" true (fa < fb && fb < fc);
      checkb "ratio roughly 1:2:3" true
        (fb /. fa > 1.5 && fb /. fa < 2.5 && fc /. fa > 2.2 && fc /. fa < 3.8)
  | _ -> Alcotest.fail "expected 3")

let test_credit_boost_priority () =
  let sched = Credit.create () in
  let a = Vcpu.create ~id:0 ~vm_id:0 ~entry:0L () in
  let b = Vcpu.create ~id:1 ~vm_id:1 ~entry:0L () in
  sched.Scheduler.enqueue a;
  (* b wakes from I/O with boost *)
  b.Vcpu.runstate <- Vcpu.Blocked;
  Vcpu.wake b ~boost:true;
  sched.Scheduler.wake b;
  (match sched.Scheduler.pick ~now:0L with
  | Some (v, _) -> checki "boosted first" 1 v.Vcpu.id
  | None -> Alcotest.fail "no pick");
  checkb "boost consumed" false b.Vcpu.boosted

let test_bvt_min_vruntime_first () =
  let sched = Bvt.create () in
  let a = Vcpu.create ~id:0 ~vm_id:0 ~entry:0L () in
  let b = Vcpu.create ~id:1 ~vm_id:1 ~entry:0L () in
  a.Vcpu.vruntime <- 100.0;
  b.Vcpu.vruntime <- 50.0;
  sched.Scheduler.enqueue a;
  sched.Scheduler.enqueue b;
  (match sched.Scheduler.pick ~now:0L with
  | Some (v, _) -> checki "min vruntime" 1 v.Vcpu.id
  | None -> Alcotest.fail "no pick");
  (* waker clamped to min *)
  let c = Vcpu.create ~id:2 ~vm_id:2 ~entry:0L () in
  c.Vcpu.vruntime <- 0.0;
  c.Vcpu.runstate <- Vcpu.Blocked;
  Vcpu.wake c ~boost:false;
  sched.Scheduler.wake c;
  checkb "clamped" true (c.Vcpu.vruntime >= 50.0)

let test_scheduler_remove () =
  let sched = Round_robin.create () in
  let a = Vcpu.create ~id:0 ~vm_id:0 ~entry:0L () in
  sched.Scheduler.enqueue a;
  sched.Scheduler.remove a;
  checkb "empty after remove" true (sched.Scheduler.pick ~now:0L = None)

(* ---------------- Mem_mgr ---------------- *)

let test_share_pass_merges_and_preserves () =
  let host = Host.create ~frames:512 () in
  let vm_a = Vm.create ~host ~id:0 ~name:"a" ~mem_frames:16 ~entry:0L () in
  let vm_b = Vm.create ~host ~id:1 ~name:"b" ~mem_frames:16 ~entry:0L () in
  (* identical content in both VMs at gfn 3, distinct at gfn 4 *)
  ignore (Vm.write_gpa_u64 vm_a 0x3000L 0xAAAAL);
  ignore (Vm.write_gpa_u64 vm_b 0x3000L 0xAAAAL);
  ignore (Vm.write_gpa_u64 vm_a 0x4000L 0x1111L);
  ignore (Vm.write_gpa_u64 vm_b 0x4000L 0x2222L);
  let stats = Mem_mgr.share_pass [ vm_a; vm_b ] in
  checkb "something shared" true (stats.Mem_mgr.shared > 0);
  checkb "frames freed" true (stats.Mem_mgr.freed > 0);
  (* both VMs still read their own values *)
  Alcotest.(check (option int64)) "a keeps shared" (Some 0xAAAAL) (Vm.read_gpa_u64 vm_a 0x3000L);
  Alcotest.(check (option int64)) "b keeps shared" (Some 0xAAAAL) (Vm.read_gpa_u64 vm_b 0x3000L);
  Alcotest.(check (option int64)) "a keeps private" (Some 0x1111L) (Vm.read_gpa_u64 vm_a 0x4000L);
  Alcotest.(check (option int64)) "b keeps private" (Some 0x2222L) (Vm.read_gpa_u64 vm_b 0x4000L);
  (* COW break: writing through one VM must not affect the other *)
  ignore (Vm.write_gpa_u64 vm_a 0x3000L 0xBBBBL);
  Alcotest.(check (option int64)) "a updated" (Some 0xBBBBL) (Vm.read_gpa_u64 vm_a 0x3000L);
  Alcotest.(check (option int64)) "b unchanged" (Some 0xAAAAL) (Vm.read_gpa_u64 vm_b 0x3000L);
  checkb "cow break counted" true (Monitor.count vm_a.Vm.monitor Monitor.E_cow_break > 0)

let test_share_pass_idempotent () =
  let host = Host.create ~frames:512 () in
  let vm_a = Vm.create ~host ~id:0 ~name:"a" ~mem_frames:8 ~entry:0L () in
  let vm_b = Vm.create ~host ~id:1 ~name:"b" ~mem_frames:8 ~entry:0L () in
  let s1 = Mem_mgr.share_pass [ vm_a; vm_b ] in
  let used = Frame_alloc.used_count host.Host.alloc in
  let s2 = Mem_mgr.share_pass [ vm_a; vm_b ] in
  checkb "first pass shares" true (s1.Mem_mgr.freed > 0);
  checki "second pass is a no-op" 0 s2.Mem_mgr.freed;
  checki "usage stable" used (Frame_alloc.used_count host.Host.alloc)

let test_saved_frames_accounting () =
  let host = Host.create ~frames:512 () in
  let vms =
    List.init 3 (fun i -> Vm.create ~host ~id:i ~name:"z" ~mem_frames:4 ~entry:0L ())
  in
  ignore (Mem_mgr.share_pass vms);
  (* 12 identical zero frames collapse to 1: 11 saved *)
  checki "saved" 11 (Mem_mgr.saved_frames vms);
  checki "shared entries" 12 (Mem_mgr.shared_frames vms)

(* Destroying one owner of a COW-merged frame leaves the survivor its
   data and frees exactly the frames nobody else references. *)
let test_destroy_one_sharer () =
  let host = Host.create ~frames:512 () in
  let a = Vm.create ~host ~id:0 ~name:"a" ~mem_frames:16 ~entry:0L () in
  let b = Vm.create ~host ~id:1 ~name:"b" ~mem_frames:16 ~entry:0L () in
  ignore (Vm.write_gpa_u64 a 0x3000L 0x1234L);
  ignore (Vm.write_gpa_u64 b 0x8000L 0x1234L);
  ignore (Vm.write_gpa_u64 a 0x4000L 0x5555L) (* a's only private frame *);
  ignore (Mem_mgr.share_pass [ a; b ]);
  let hpa =
    match (P2m.get a.Vm.p2m 3L, P2m.get b.Vm.p2m 8L) with
    | P2m.Present { hpa_ppn = x; cow = true; _ }, P2m.Present { hpa_ppn = y; cow = true; _ }
      when x = y ->
        x
    | _ -> Alcotest.fail "equal frames were not merged"
  in
  let alloc = host.Host.alloc in
  checki "two owners" 2 (Frame_alloc.refcount alloc hpa);
  let free0 = Frame_alloc.free_count alloc in
  Vm.destroy a;
  checki "only a's private frame freed" (free0 + 1) (Frame_alloc.free_count alloc);
  checki "survivor is the sole owner" 1 (Frame_alloc.refcount alloc hpa);
  Alcotest.(check (option int64)) "survivor reads its data" (Some 0x1234L)
    (Vm.read_gpa_u64 b 0x8000L);
  (* the survivor's write still breaks COW: one frame in, one out *)
  ignore (Vm.write_gpa_u64 b 0x8008L 0x9L);
  checki "cow break frees the old copy" (free0 + 1) (Frame_alloc.free_count alloc);
  Alcotest.(check (option int64)) "data kept across the break" (Some 0x1234L)
    (Vm.read_gpa_u64 b 0x8000L)

let test_evict_and_fault_back () =
  let host = Host.create ~frames:512 () in
  let vm = Vm.create ~host ~id:0 ~name:"e" ~mem_frames:8 ~entry:0L () in
  ignore (Vm.write_gpa_u64 vm 0x2000L 0x77L);
  let evicted = Mem_mgr.evict vm ~n:3 in
  checki "evicted" 3 evicted;
  checkb "some swapped" true
    (P2m.count vm.Vm.p2m ~f:(function P2m.Swapped _ -> true | _ -> false) = 3);
  (* reads transparently swap back in *)
  Alcotest.(check (option int64)) "content preserved" (Some 0x77L)
    (Vm.read_gpa_u64 vm 0x2000L)

(* ---------------- Placement ---------------- *)

let test_ffd_packs () =
  let spec = Placement.default_host in
  let reqs =
    List.init 8 (fun i ->
        { Placement.vm_name = Printf.sprintf "vm%d" i; cpu_units = 200; mem_mb = 4096 })
  in
  let plan = Placement.first_fit_decreasing spec reqs in
  (* 8 cores*100/200 = 4 cpu-fit; 16384/4096 = 4 mem-fit → 4 VMs/host *)
  checki "hosts" 2 plan.Placement.hosts_used;
  checkb "ratio" true (abs_float (Placement.consolidation_ratio plan -. 4.0) < 0.01);
  checki "all placed" 8 (List.length plan.Placement.assignments)

let test_ffd_rejects_oversized () =
  let spec = Placement.default_host in
  Alcotest.check_raises "too big" (Invalid_argument "Placement: whale exceeds a whole host")
    (fun () ->
      ignore
        (Placement.first_fit_decreasing spec
           [ { Placement.vm_name = "whale"; cpu_units = 10_000; mem_mb = 100 } ]))

let test_cost_savings_positive () =
  let spec = Placement.default_host in
  let reqs =
    List.init 10 (fun i ->
        { Placement.vm_name = Printf.sprintf "s%d" i; cpu_units = 100; mem_mb = 2048 })
  in
  let plan = Placement.first_fit_decreasing spec reqs in
  let r = Placement.cost_savings spec reqs plan in
  checkb "hosts reduced" true (r.Placement.consolidated_hosts < r.Placement.unconsolidated_hosts);
  checkb "power reduced" true (r.Placement.watts_after < r.Placement.watts_before);
  checkb "euros saved" true (r.Placement.annual_euro_saved > 0.0);
  checkb "per-server band" true
    (r.Placement.euro_saved_per_displaced_server > 100.0
    && r.Placement.euro_saved_per_displaced_server < 500.0)

(* E9's numbers (EXPERIMENTS.md) for the deck's fleet on the default host *)
let test_deck_fleet () =
  let spec = Placement.default_host and fleet = Placement.deck_fleet in
  checki "VMs" 50 (List.length fleet);
  let plan = Placement.first_fit_decreasing spec fleet in
  checki "hosts" 11 plan.Placement.hosts_used;
  let r = Placement.cost_savings spec fleet plan in
  checki "EUR per displaced server per year" 202
    (Float.to_int (Float.round r.Placement.euro_saved_per_displaced_server))

(* ---------------- Snapshot error paths ---------------- *)

let test_snapshot_bad_magic () =
  let host = Host.create ~frames:512 () in
  let hyp = Hypervisor.create ~host () in
  Alcotest.check_raises "bad magic" (Failure "Snapshot: bad magic") (fun () ->
      ignore (Snapshot.restore hyp (Bytes.make 64 '\000')))

(* Restoring [img] must raise [Failure] and leave no trace: the host's
   free frames and its VM list stay as they were. *)
let check_rejected hyp what img =
  let alloc = (Hypervisor.host hyp).Host.alloc in
  let free0 = Frame_alloc.free_count alloc and vms0 = hyp.Hypervisor.vms in
  (match Snapshot.restore hyp img with
  | _ -> Alcotest.failf "%s: restored" what
  | exception Failure _ -> ());
  checki (what ^ ": free frames") free0 (Frame_alloc.free_count alloc);
  checkb (what ^ ": VM list") true (List.equal ( == ) vms0 hyp.Hypervisor.vms)

(* An image of a guest stopped with a virtio-blk batch in flight and
   console output, cut at every offset of its header and of its state
   section (shape, vCPUs, devices, console), cut in its page records,
   and with device fields out of range. *)
let test_snapshot_truncated () =
  let open Velum_guests in
  let setup =
    Images.plan ~heap_pages:8 ~user:(Workloads.vblk_read ~sector:0 ~count:4 ~reps:3) ()
  in
  let hyp, vm = Images.boot ~name:"s" setup in
  while Velum_devices.Virtio_blk.next_completion vm.Vm.vblk = None do
    Hypervisor.run_vm hyp vm ~cycles:500L
  done;
  String.iter (Vm.console_put vm) "console";
  let img = Snapshot.capture vm in
  let len = Bytes.length img in
  let state_at = Int64.to_int (Bytes.get_int64_le img 8) in
  (* the whole image restores *)
  Hypervisor.remove_vm hyp (Snapshot.restore hyp img);
  let cut n = check_rejected hyp (Printf.sprintf "cut at %d" n) (Bytes.sub img 0 n) in
  for n = 0 to 15 do cut n done;
  cut (len / 2);
  for n = state_at to len - 1 do cut n done;
  let patched what off v =
    let b = Bytes.copy img in
    Bytes.set_int64_le b off v;
    check_rejected hyp what b
  in
  (* the ring layout the kernel programs: its ring page, 64 slots *)
  let ring = ref (-1) in
  for o = state_at to len - 16 do
    if Bytes.get_int64_le img o = Abi.ring_page && Bytes.get_int64_le img (o + 8) = 64L
    then ring := o
  done;
  checkb "found the ring layout" true (!ring > 0);
  patched "a ring beyond RAM" !ring (Int64.of_int (Vm.mem_frames vm * Arch.page_size));
  patched "more in-flight entries than ring slots" (!ring + 8) 2L;
  (* after the shape (name, then nine 8-byte fields) comes the vCPU count *)
  patched "a vCPU count that disagrees with the shape" (state_at + 8 + 1 + 72) 2L;
  (* the first page record made an absent page beyond RAM *)
  let b = Bytes.copy img in
  Bytes.set_int64_le b 16 (Int64.shift_left 1L 40);
  Bytes.set_int64_le b 24 2L;
  check_rejected hyp "an absent page beyond RAM" b;
  (* a shape of 2^24 frames (the shape's first field after the name)
     is refused before tables sized by it are built *)
  let b = Bytes.copy img in
  Bytes.set_int64_le b (state_at + 8 + 1) (Int64.of_int (1 lsl 24));
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  check_rejected hyp "a 2^24-frame shape" b;
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  checkb (Printf.sprintf "2^24-frame shape allocated %.0f major words" major) true
    (major < 131_072.)

(* A VM of more frames than the host has free is refused before its
   tables are built: well under 1 MB of major heap for 2^24 frames. *)
let test_create_beyond_free_frames () =
  let host = Host.create ~frames:512 () in
  let free0 = Frame_alloc.free_count host.Host.alloc in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  Alcotest.check_raises "refused" (Failure "Vm.create: host out of frames") (fun () ->
      ignore (Vm.create ~host ~id:0 ~name:"big" ~mem_frames:(1 lsl 24) ~entry:0L ()));
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  checkb (Printf.sprintf "allocated %.0f major words" major) true (major < 131_072.);
  checki "free frames" free0 (Frame_alloc.free_count host.Host.alloc)

let test_live_snapshot_release () =
  let host = Host.create ~frames:512 () in
  let hyp = Hypervisor.create ~host () in
  let vm = Hypervisor.create_vm hyp ~name:"l" ~mem_frames:8 ~entry:0L () in
  ignore vm;
  let snap = Snapshot.capture_live vm in
  checki "pages" 8 (Snapshot.live_pages snap);
  Snapshot.release_live snap;
  checkb "restore after release fails" true
    (try
       ignore (Snapshot.restore_live hyp snap);
       false
     with Failure _ -> true)

(* Snapshot round-trip property: random guest memory contents survive
   capture/restore byte for byte. *)
let prop_snapshot_roundtrip =
  QCheck2.Test.make ~count:30 ~name:"snapshot preserves random memory"
    QCheck2.Gen.(list_size (int_range 1 20) (pair (int_range 0 15) ui64))
    (fun writes ->
      let host = Host.create ~frames:512 () in
      let hyp = Hypervisor.create ~host () in
      let vm = Hypervisor.create_vm hyp ~name:"prop" ~mem_frames:16 ~entry:0L () in
      List.iter
        (fun (gfn, v) ->
          ignore (Vm.write_gpa_u64 vm (Int64.shift_left (Int64.of_int gfn) 12) v))
        writes;
      let image = Snapshot.capture vm in
      let restored = Snapshot.restore hyp image in
      List.for_all
        (fun (gfn, _) ->
          let gpa = Int64.shift_left (Int64.of_int gfn) 12 in
          Vm.read_gpa_u64 vm gpa = Vm.read_gpa_u64 restored gpa)
        writes)

let test_snapshot_with_balloon_and_swap () =
  let host = Host.create ~frames:512 () in
  let hyp = Hypervisor.create ~host () in
  let vm = Hypervisor.create_vm hyp ~name:"mix" ~mem_frames:16 ~entry:0L () in
  ignore (Vm.write_gpa_u64 vm 0x2000L 0xCAFEL);
  ignore (Vm.balloon_out vm 9L);
  ignore (Mem_mgr.evict vm ~n:4);
  let image = Snapshot.capture vm in
  let restored = Snapshot.restore hyp image in
  Alcotest.(check (option int64)) "data preserved" (Some 0xCAFEL)
    (Vm.read_gpa_u64 restored 0x2000L);
  checkb "balloon preserved" true
    (match P2m.get restored.Vm.p2m 9L with P2m.Ballooned -> true | _ -> false);
  (* swapped pages were pulled in and serialized as data *)
  checki "no swapped entries in the restore" 0
    (P2m.count restored.Vm.p2m ~f:(function P2m.Swapped _ -> true | _ -> false))

let test_snapshot_restore_out_of_frames () =
  let host = Host.create ~frames:128 () in
  let hyp = Hypervisor.create ~host () in
  let vm = Hypervisor.create_vm hyp ~name:"big" ~mem_frames:80 ~entry:0L () in
  let image = Snapshot.capture vm in
  (* not enough room for a second copy *)
  checkb "restore fails cleanly" true
    (try
       ignore (Snapshot.restore hyp image);
       false
     with Failure _ -> true)

(* ---------------- Hypercall dispatch (via a real VM) ---------------- *)

let test_hypercall_console_and_ids () =
  let host = Host.create ~frames:512 () in
  let vm = Vm.create ~host ~id:7 ~name:"hc" ~mem_frames:16 ~pv:Vm.full_pv ~entry:0L () in
  let s = vm.Vm.vcpus.(0).Vcpu.state in
  Cpu.set_reg s 1 Hypercall.hc_console_putc;
  Cpu.set_reg s 2 (Int64.of_int (Char.code 'Z'));
  ignore (Hypercall.dispatch vm ~vcpu_idx:0 ~now:0L);
  Alcotest.(check string) "console" "Z" (Vm.console_output vm);
  check64 "success" 0L (Cpu.get_reg s 1);
  check64 "pc advanced" 8L (Cpu.pc s);
  Cpu.set_reg s 1 Hypercall.hc_vm_id;
  ignore (Hypercall.dispatch vm ~vcpu_idx:0 ~now:0L);
  check64 "vm id" 7L (Cpu.get_reg s 1);
  Cpu.set_reg s 1 999L;
  ignore (Hypercall.dispatch vm ~vcpu_idx:0 ~now:0L);
  check64 "unknown errors" (-1L) (Cpu.get_reg s 1)

let test_hypercall_console_write () =
  let host = Host.create ~frames:512 () in
  let vm = Vm.create ~host ~id:0 ~name:"hc" ~mem_frames:16 ~pv:Vm.full_pv ~entry:0L () in
  ignore (Vm.write_gpa_bytes vm 0x2000L (Bytes.of_string "ping"));
  let s = vm.Vm.vcpus.(0).Vcpu.state in
  Cpu.set_reg s 1 Hypercall.hc_console_write;
  Cpu.set_reg s 2 0x2000L;
  Cpu.set_reg s 3 4L;
  ignore (Hypercall.dispatch vm ~vcpu_idx:0 ~now:0L);
  Alcotest.(check string) "console" "ping" (Vm.console_output vm)

let test_hypercall_balloon () =
  let host = Host.create ~frames:512 () in
  let vm = Vm.create ~host ~id:0 ~name:"hc" ~mem_frames:16 ~pv:Vm.full_pv ~entry:0L () in
  let s = vm.Vm.vcpus.(0).Vcpu.state in
  Cpu.set_reg s 1 Hypercall.hc_balloon_give;
  Cpu.set_reg s 2 5L;
  ignore (Hypercall.dispatch vm ~vcpu_idx:0 ~now:0L);
  check64 "ok" 0L (Cpu.get_reg s 1);
  checki "ballooned" 1 vm.Vm.balloon_pages;
  Cpu.set_reg s 1 Hypercall.hc_balloon_want;
  Cpu.set_reg s 2 5L;
  ignore (Hypercall.dispatch vm ~vcpu_idx:0 ~now:0L);
  checki "returned" 0 vm.Vm.balloon_pages

let () =
  Alcotest.run "vmm"
    [
      ( "frame_alloc",
        [
          Alcotest.test_case "basics" `Quick test_alloc_basics;
          Alcotest.test_case "zeroed" `Quick test_alloc_zeroed;
          Alcotest.test_case "refcounting" `Quick test_alloc_refcounting;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          QCheck_alcotest.to_alcotest prop_alloc_model;
          QCheck_alcotest.to_alcotest prop_alloc_free_list_order;
        ] );
      ( "p2m",
        [
          Alcotest.test_case "basics" `Quick test_p2m_basics;
          Alcotest.test_case "clear writable" `Quick test_p2m_clear_writable;
        ] );
      ( "host",
        [
          Alcotest.test_case "swap roundtrip" `Quick test_host_swap_roundtrip;
          Alcotest.test_case "swap fill/drain" `Quick test_host_swap_fill_drain;
          QCheck_alcotest.to_alcotest prop_host_swap_order;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "counts" `Quick test_monitor_counts;
          Alcotest.test_case "kind_index alignment" `Quick test_monitor_kind_index;
          Alcotest.test_case "bump all kinds" `Quick test_monitor_bump_all_kinds;
          Alcotest.test_case "reset everything" `Quick test_monitor_reset_everything;
        ] );
      ("vcpu", [ Alcotest.test_case "lifecycle" `Quick test_vcpu_lifecycle ]);
      ( "vm",
        [
          Alcotest.test_case "gpa accessors" `Quick test_vm_gpa_accessors;
          Alcotest.test_case "gpa bytes straddle pages" `Quick test_vm_gpa_bytes_straddle;
          Alcotest.test_case "dirty logging" `Quick test_vm_dirty_logging;
          Alcotest.test_case "balloon" `Quick test_vm_balloon;
          Alcotest.test_case "destroy returns frames" `Quick test_vm_destroy_returns_frames;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "fill and translate" `Quick test_shadow_fill_and_translate;
          Alcotest.test_case "guest fault" `Quick test_shadow_guest_fault;
          Alcotest.test_case "pt write detection" `Quick test_shadow_pt_write_detection;
          Alcotest.test_case "pt write invalidates" `Quick
            test_shadow_emulate_pt_write_invalidates;
          Alcotest.test_case "superpage rewrite drops splinters" `Quick
            test_shadow_superpage_rewrite;
          Alcotest.test_case "bad table gfn takes no frame" `Quick
            test_shadow_bad_table_no_leak;
          Alcotest.test_case "invalidate gfn" `Quick test_shadow_invalidate_gfn;
          Alcotest.test_case "mmio detection" `Quick test_shadow_mmio_detection;
          Alcotest.test_case "flush all frees" `Quick test_shadow_flush_all_frees;
          Alcotest.test_case "bare clean store re-walks" `Quick
            test_bare_shadow_clean_store_rewalks;
        ] );
      ( "nested",
        [
          Alcotest.test_case "translate and a/d" `Quick test_nested_translate_and_ad;
          Alcotest.test_case "classify" `Quick test_nested_classify;
          Alcotest.test_case "write protection" `Quick test_nested_write_protection;
          Alcotest.test_case "mmio fetch hits the tlb" `Quick test_nested_mmio_fetch_hits;
          QCheck_alcotest.to_alcotest prop_nested_walk_matches_model;
        ] );
      (* Alcotest sizes its name column by the longest group name; a longer
         one truncates the long case names above in the output. *)
      ( "translator",
        [
          QCheck_alcotest.to_alcotest
            (prop_bound_translate_follows_satp Vm.Nested_paging "nested");
          QCheck_alcotest.to_alcotest
            (prop_bound_translate_follows_satp Vm.Shadow_paging "shadow");
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "rr equal shares" `Quick test_rr_equal_shares;
          Alcotest.test_case "credit weighted" `Quick test_credit_weighted_shares;
          Alcotest.test_case "credit boost" `Quick test_credit_boost_priority;
          Alcotest.test_case "bvt ordering" `Quick test_bvt_min_vruntime_first;
          Alcotest.test_case "remove" `Quick test_scheduler_remove;
        ] );
      ( "mem_mgr",
        [
          Alcotest.test_case "share merges and preserves" `Quick
            test_share_pass_merges_and_preserves;
          Alcotest.test_case "share idempotent" `Quick test_share_pass_idempotent;
          Alcotest.test_case "saved accounting" `Quick test_saved_frames_accounting;
          Alcotest.test_case "evict and fault back" `Quick test_evict_and_fault_back;
          Alcotest.test_case "destroy one sharer" `Quick test_destroy_one_sharer;
        ] );
      ( "placement",
        [
          Alcotest.test_case "ffd packs" `Quick test_ffd_packs;
          Alcotest.test_case "rejects oversized" `Quick test_ffd_rejects_oversized;
          Alcotest.test_case "cost savings" `Quick test_cost_savings_positive;
          Alcotest.test_case "deck fleet" `Quick test_deck_fleet;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "bad magic" `Quick test_snapshot_bad_magic;
          Alcotest.test_case "truncated" `Quick test_snapshot_truncated;
          Alcotest.test_case "a VM beyond the free frames" `Quick
            test_create_beyond_free_frames;
          Alcotest.test_case "live release" `Quick test_live_snapshot_release;
          QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
          Alcotest.test_case "balloon+swap state" `Quick test_snapshot_with_balloon_and_swap;
          Alcotest.test_case "restore out of frames" `Quick
            test_snapshot_restore_out_of_frames;
        ] );
      ( "hypercall",
        [
          Alcotest.test_case "console and ids" `Quick test_hypercall_console_and_ids;
          Alcotest.test_case "console write" `Quick test_hypercall_console_write;
          Alcotest.test_case "balloon" `Quick test_hypercall_balloon;
        ] );
    ]
