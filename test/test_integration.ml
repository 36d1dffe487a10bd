(* End-to-end tests: the same guest images boot on bare metal and under
   the hypervisor in every paging/PV configuration, and the full
   mechanism suite (migration, sharing, ballooning, snapshots) works on
   live guests. *)

open Velum_devices
open Velum_vmm
open Velum_guests

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- helpers --- *)

let boot_native setup =
  let platform = Images.boot_native setup in
  let outcome = Platform.run platform in
  (platform, outcome)

let boot_vm ?paging ?pv ?host_frames ?exec_mode setup =
  let host_frames = Option.value host_frames ~default:(setup.Images.frames + 512) in
  Images.boot ~host_frames ~name:"t" ?paging ?pv ?exec_mode setup

let run_to_halt hyp =
  match Hypervisor.run hyp with
  | Hypervisor.All_halted -> ()
  | Hypervisor.Out_of_budget -> Alcotest.fail "guest did not halt within budget"
  | Hypervisor.Idle_deadlock -> Alcotest.fail "guest deadlocked"
  | Hypervisor.Until_satisfied -> ()

let hello_setup ?(pv_console = false) ?(pv_pt = false) () =
  Images.plan ~pv_console ~pv_pt ~user:(Workloads.hello ()) ()

let expected_hello = "hello from velum guest\n"

(* --- native boot --- *)

let test_native_hello () =
  let platform, outcome = boot_native (hello_setup ()) in
  checkb "halted" true (outcome = Platform.Halted);
  checks "console" expected_hello (Platform.console_output platform)

let test_native_cpu_spin () =
  let setup = Images.plan ~user:(Workloads.cpu_spin ~iters:10_000L) () in
  let platform, outcome = boot_native setup in
  checkb "halted" true (outcome = Platform.Halted);
  checkb "retired plausible" true (Platform.instructions_retired platform > 40_000L)

let test_native_memwalk () =
  let setup =
    Images.plan ~heap_pages:128 ~user:(Workloads.memwalk ~pages:128 ~iters:3 ~write:true) ()
  in
  let _, outcome = boot_native setup in
  checkb "halted" true (outcome = Platform.Halted)

let test_native_syscalls () =
  let setup = Images.plan ~user:(Workloads.syscall_loop ~count:100L) () in
  let _, outcome = boot_native setup in
  checkb "halted" true (outcome = Platform.Halted)

let test_native_blk () =
  let setup =
    Images.plan ~heap_pages:8 ~user:(Workloads.blk_read ~sector:3 ~count:4 ~reps:2) ()
  in
  let platform = Images.boot_native setup in
  Blockdev.load platform.Platform.blk ~sector:3 (String.make 2048 'z');
  let outcome = Platform.run platform in
  checkb "halted" true (outcome = Platform.Halted)

let test_native_vblk () =
  let setup =
    Images.plan ~heap_pages:8 ~user:(Workloads.vblk_read ~sector:0 ~count:4 ~reps:2) ()
  in
  let platform = Images.boot_native setup in
  Virtio_blk.load platform.Platform.vblk ~sector:0 (String.make 2048 'q');
  let outcome = Platform.run platform in
  checkb "halted" true (outcome = Platform.Halted)

(* --- virtualized boot, each paging mode --- *)

let test_vmm_hello paging () =
  let hyp, vm = boot_vm ~paging (hello_setup ()) in
  run_to_halt hyp;
  checks "console" expected_hello (Vm.console_output vm);
  checkb "exits happened" true (Monitor.total_exits vm.Vm.monitor > 0)

let test_vmm_hello_pv () =
  let setup = hello_setup ~pv_console:true ~pv_pt:true () in
  let hyp, vm = boot_vm ~paging:Vm.Shadow_paging ~pv:Vm.full_pv setup in
  run_to_halt hyp;
  checks "console" expected_hello (Vm.console_output vm);
  checkb "hypercalls used" true (Monitor.count vm.Vm.monitor Monitor.E_hypercall > 0)

let test_vmm_memwalk paging () =
  let setup =
    Images.plan ~heap_pages:64 ~user:(Workloads.memwalk ~pages:64 ~iters:2 ~write:true) ()
  in
  let hyp, _vm = boot_vm ~paging setup in
  run_to_halt hyp

let test_vmm_syscalls paging () =
  let setup = Images.plan ~user:(Workloads.syscall_loop ~count:50L) () in
  let hyp, vm = boot_vm ~paging setup in
  run_to_halt hyp;
  checkb "traps reflected" true (Monitor.count vm.Vm.monitor Monitor.E_guest_trap >= 50)

let test_vmm_pt_churn paging () =
  let setup = Images.plan ~user:(Workloads.pt_churn ~count:10 ()) () in
  let hyp, vm = boot_vm ~paging setup in
  run_to_halt hyp;
  if paging = Vm.Shadow_paging then
    checkb "pt writes trapped" true (Monitor.count vm.Vm.monitor Monitor.E_pt_write > 0)

let test_vmm_blk paging () =
  let setup =
    Images.plan ~heap_pages:8 ~user:(Workloads.blk_read ~sector:0 ~count:2 ~reps:3) ()
  in
  let hyp, vm = boot_vm ~paging setup in
  Blockdev.load vm.Vm.blk ~sector:0 (String.make 1024 'x');
  run_to_halt hyp;
  check Alcotest.int "ops completed" 3 (Blockdev.completed_ops vm.Vm.blk)

let test_vmm_vblk paging () =
  let setup =
    Images.plan ~heap_pages:8 ~user:(Workloads.vblk_read ~sector:0 ~count:4 ~reps:2) ()
  in
  let hyp, vm = boot_vm ~paging setup in
  Virtio_blk.load vm.Vm.vblk ~sector:0 (String.make 2048 'y');
  run_to_halt hyp;
  check Alcotest.int "ops completed" 8 (Virtio_blk.completed_ops vm.Vm.vblk);
  check Alcotest.int "kicks" 2 (Virtio_blk.kicks vm.Vm.vblk)

(* The paravirtual path must produce far fewer exits per request than
   the emulated path for the same I/O volume. *)
let test_vblk_fewer_exits () =
  let mmio_exits paging user =
    let setup = Images.plan ~heap_pages:8 ~user () in
    let hyp, vm = boot_vm ~paging setup in
    run_to_halt hyp;
    Monitor.count vm.Vm.monitor Monitor.E_mmio
  in
  let emul =
    mmio_exits Vm.Nested_paging (Workloads.blk_read ~sector:0 ~count:8 ~reps:4)
  in
  let virtio =
    mmio_exits Vm.Nested_paging (Workloads.vblk_read ~sector:0 ~count:8 ~reps:4)
  in
  checkb
    (Printf.sprintf "virtio (%d) <= emulated (%d) exits" virtio emul)
    true (virtio <= emul)

(* --- 2 MiB superpages --- *)

(* Write a value to each heap page, read them all back, fold into a
   digest, print it — correctness probe for superpage mappings. *)
let heap_digest_user ~pages =
  Velum_isa.Asm.(
    assemble ~origin:Velum_guests.Abi.user_base
      ([
         label "u_entry";
         li r14 0x0014_4000L;
         li r5 (Int64.of_int pages);
         li r7 Velum_guests.Abi.heap_base;
         li r8 0L;
         label "u_w";
         slli r9 r8 3L;
         addi r9 r9 0x55L;
         sd r9 r7 0L;
         addi r7 r7 4096L;
         addi r8 r8 1L;
         blt r8 r5 "u_w";
         (* read back and fold *)
         li r7 Velum_guests.Abi.heap_base;
         li r8 0L;
         li r12 0L;
         label "u_r";
         ld r9 r7 0L;
         xor r12 r12 r9;
         add r12 r12 r8;
         addi r7 r7 4096L;
         addi r8 r8 1L;
         blt r8 r5 "u_r";
         (* print 16 nibbles *)
         li r6 16L;
         label "u_p";
         srli r7 r12 60L;
         andi r7 r7 15L;
         addi r2 r7 97L;
         li r1 Velum_guests.Abi.sys_putchar;
         ecall;
         slli r12 r12 4L;
         addi r6 r6 (-1L);
         bne r6 r0 "u_p";
         li r1 Velum_guests.Abi.sys_exit;
         ecall;
       ]))

let test_superpage_equivalence () =
  let pages = 96 in
  let user = heap_digest_user ~pages in
  let plain = Images.plan ~heap_pages:pages ~user () in
  let sup = Images.plan ~heap_pages:pages ~heap_superpages:true ~user () in
  let run_native setup =
    let platform = Images.boot_native setup in
    checkb "halts" true (Platform.run platform = Platform.Halted);
    Platform.console_output platform
  in
  let run_vm_mode paging setup =
    let hyp, vm = boot_vm ~paging setup in
    run_to_halt hyp;
    Vm.console_output vm
  in
  let reference = run_native plain in
  checkb "digest printed" true (String.length reference = 16);
  checks "native 2M" reference (run_native sup);
  checks "shadow 2M (splintered)" reference (run_vm_mode Vm.Shadow_paging sup);
  checks "nested 2M" reference (run_vm_mode Vm.Nested_paging sup)

let test_superpage_tlb_reach_native () =
  (* working set of 512 pages >> 64-entry TLB: with 4 KiB pages every
     touch walks; one 2 MiB mapping covers it all *)
  let run superpages =
    let setup =
      Images.plan ~heap_pages:512 ~heap_superpages:superpages
        ~user:(Workloads.memwalk ~pages:512 ~iters:4 ~write:true) ()
    in
    let platform = Images.boot_native setup in
    checkb "halts" true (Platform.run platform = Platform.Halted);
    Platform.cycles platform
  in
  let small = run false in
  let large = run true in
  checkb
    (Printf.sprintf "superpages faster (%Ld vs %Ld)" large small)
    true
    (Int64.to_float large < 0.6 *. Int64.to_float small)

(* --- SMP guests: the kernel boots multiple harts --- *)

let test_smp_guest_probe () =
  List.iter
    (fun pcpus ->
      let setup = Images.plan ~heap_pages:1 ~user:Workloads.smp_probe () in
      let host = Host.create ~frames:(setup.Images.frames + 512) () in
      let hyp = Hypervisor.create ~host ~pcpus () in
      let vm = Images.create_vm hyp ~name:"smp" ~vcpu_count:4 setup in
      run_to_halt hyp;
      for hart = 0 to 3 do
        Alcotest.(check (option int64))
          (Printf.sprintf "hart %d stamped its slot (pcpus=%d)" hart pcpus)
          (Some (Int64.of_int ((hart + 1) * 0x101)))
          (Vm.read_gpa_u64 vm
             (Int64.add Velum_guests.Abi.heap_base (Int64.of_int (hart * 8))))
      done)
    [ 1; 2 ]

(* Concurrent system calls: every hart prints its own letter; the
   per-hart trap save areas must keep them from corrupting each other. *)
let smp_letters =
  Velum_isa.Asm.(
    assemble ~origin:Velum_guests.Abi.user_base
      [
        label "u_entry";
        li r14 0x0014_4000L;
        li r9 256L;
        mul r9 r9 r10;
        sub r14 r14 r9;
        addi r2 r10 65L (* 'A' + hartid *);
        li r1 Velum_guests.Abi.sys_putchar;
        ecall;
        li r1 Velum_guests.Abi.sys_exit;
        ecall;
      ])

let test_smp_guest_syscalls () =
  let setup = Images.plan ~user:smp_letters () in
  let host = Host.create ~frames:(setup.Images.frames + 512) () in
  let hyp = Hypervisor.create ~host ~pcpus:2 () in
  let vm = Images.create_vm hyp ~name:"smp-sys" ~vcpu_count:4 setup in
  run_to_halt hyp;
  let chars = List.sort compare (List.init 4 (String.get (Vm.console_output vm))) in
  Alcotest.(check (list char)) "all four harts spoke" [ 'A'; 'B'; 'C'; 'D' ] chars

let test_smp_guest_native_single_hart () =
  (* the same SMP-aware kernel still boots a single native hart *)
  let setup = Images.plan ~heap_pages:1 ~user:Workloads.smp_probe () in
  let platform = Images.boot_native setup in
  checkb "halts" true (Platform.run platform = Platform.Halted)

(* --- the red pill: vmid distinguishes bare metal from a VM --- *)

let vmid_probe =
  (* unikernel: print 'V' if vmid != 0, 'N' otherwise, then halt *)
  Velum_isa.Asm.(
    assemble ~origin:0L
      [
        csrr r3 Velum_isa.Arch.Vmid;
        li r2 (Int64.of_int (Char.code 'N'));
        beq r3 r0 "print";
        li r2 (Int64.of_int (Char.code 'V'));
        label "print";
        outp Uart.data_port r2;
        halt;
      ])

let test_vmid_detection () =
  (* native *)
  let platform = Platform.create ~frames:64 () in
  Platform.load_image platform vmid_probe;
  Platform.boot platform ~entry:0L;
  checkb "native halts" true (Platform.run platform = Platform.Halted);
  checks "native sees metal" "N" (Platform.console_output platform);
  (* virtualized: the hypervisor chooses to expose itself via vmid *)
  let host = Host.create ~frames:512 () in
  let hyp = Hypervisor.create ~host () in
  let vm = Hypervisor.create_vm hyp ~name:"probe" ~mem_frames:16 ~entry:0L () in
  Vm.load_image vm vmid_probe;
  run_to_halt hyp;
  checks "guest sees hypervisor" "V" (Vm.console_output vm)

(* --- binary translation --- *)

let test_bt_hello () =
  let hyp, vm = boot_vm ~exec_mode:Vm.Binary_translation (hello_setup ()) in
  run_to_halt hyp;
  checks "console" expected_hello (Vm.console_output vm);
  checkb "sites translated" true (Monitor.count vm.Vm.monitor Monitor.E_bt_translate > 0)

let test_bt_cheaper_syscalls () =
  let run exec_mode =
    let setup = Images.plan ~user:(Workloads.syscall_loop ~count:300L) () in
    let hyp, vm = boot_vm ~exec_mode setup in
    run_to_halt hyp;
    Vm.vmm_cycles vm
  in
  let te = run Vm.Trap_emulate in
  let bt = run Vm.Binary_translation in
  checkb
    (Printf.sprintf "bt (%Ld) well under trap-and-emulate (%Ld)" bt te)
    true
    (Int64.to_float bt < 0.4 *. Int64.to_float te)

let test_bt_translation_cache_reuse () =
  let setup = Images.plan ~user:(Workloads.syscall_loop ~count:200L) () in
  let hyp, vm = boot_vm ~exec_mode:Vm.Binary_translation setup in
  run_to_halt hyp;
  let translations = Monitor.count vm.Vm.monitor Monitor.E_bt_translate in
  (* a handful of sensitive sites serve hundreds of syscalls *)
  checkb (Printf.sprintf "only %d sites translated" translations) true
    (translations < 40);
  checkb "cache populated" true (Velum_util.Keytbl.I64.length vm.Vm.bt_cache = translations)

(* --- console input, timers, networking --- *)

let test_echo_native () =
  let setup = Images.plan ~user:(Workloads.echo ~count:4L) () in
  let platform = Images.boot_native setup in
  Uart.feed_input platform.Platform.uart "ping";
  checkb "halted" true (Platform.run platform = Platform.Halted);
  checks "echoed" "ping" (Platform.console_output platform)

let test_echo_vmm paging () =
  let setup = Images.plan ~user:(Workloads.echo ~count:4L) () in
  let hyp, vm = boot_vm ~paging setup in
  Uart.feed_input vm.Vm.uart "pong";
  run_to_halt hyp;
  checks "echoed" "pong" (Vm.console_output vm)

let test_timer_native () =
  let setup =
    Images.plan ~timer_interval:20_000L ~user:(Workloads.tick_watch ~ticks:3L) ()
  in
  let platform, outcome = boot_native setup in
  checkb "halted" true (outcome = Platform.Halted);
  checkb "took at least 3 intervals" true (Platform.cycles platform >= 60_000L)

let test_timer_vmm paging () =
  let setup =
    Images.plan ~timer_interval:20_000L ~user:(Workloads.tick_watch ~ticks:3L) ()
  in
  let hyp, vm = boot_vm ~paging setup in
  run_to_halt hyp;
  checkb "interrupts injected" true (Monitor.irq_injections vm.Vm.monitor >= 3)

let test_net_ping_pong () =
  let ping_setup =
    Images.plan ~heap_pages:2 ~user:(Workloads.net_ping ~message:"hi velum") ()
  in
  let echo_setup = Images.plan ~heap_pages:2 ~user:(Workloads.net_echo ~frames:1) () in
  let frames = ping_setup.Images.frames + echo_setup.Images.frames + 1024 in
  let host = Host.create ~frames () in
  let hyp = Hypervisor.create ~host () in
  let link = Link.create ~bytes_per_cycle:1.0 ~latency_cycles:500 () in
  let ping_vm = Images.create_vm hyp ~name:"ping" ~nic:(link, `A) ping_setup in
  ignore (Images.create_vm hyp ~name:"echo" ~nic:(link, `B) echo_setup);
  run_to_halt hyp;
  checks "round trip" "hi velum" (Vm.console_output ping_vm);
  (match ping_vm.Vm.nic with
  | Some n ->
      Alcotest.(check int) "ping sent one" 1 (Nic.frames_sent n);
      Alcotest.(check int) "ping received one" 1 (Nic.frames_received n)
  | None -> Alcotest.fail "no nic")

(* --- client/server application benchmark plumbing --- *)

let run_client_server ~paging ~virtio ~requests =
  let client_setup =
    Images.plan ~hcall_ok:true ~heap_pages:2
      ~user:(Workloads.net_client ~requests ~virtio_server:virtio) ()
  in
  let server_setup =
    Images.plan ~hcall_ok:true ~heap_pages:2
      ~user:(Workloads.net_server ~requests ~virtio) ()
  in
  let host =
    Host.create ~frames:(client_setup.Images.frames + server_setup.Images.frames + 1024) ()
  in
  let hyp = Hypervisor.create ~host () in
  let link = Link.create ~bytes_per_cycle:1.0 ~latency_cycles:300 () in
  let client = Images.create_vm hyp ~name:"client" ~paging ~nic:(link, `A) client_setup in
  let server = Images.create_vm hyp ~name:"server" ~paging ~nic:(link, `B) server_setup in
  (* give the served sectors recognizable content *)
  for sct = 0 to requests - 1 do
    let dev_load = if virtio then Virtio_blk.load server.Vm.vblk else Blockdev.load server.Vm.blk in
    dev_load ~sector:sct (Printf.sprintf "sector%02d" sct)
  done;
  (hyp, client, server)

let test_client_server_completes () =
  List.iter
    (fun (paging, virtio) ->
      let hyp, client, _server = run_client_server ~paging ~virtio ~requests:5 in
      run_to_halt hyp;
      checks "client done" "D" (Vm.console_output client))
    [ (Vm.Nested_paging, false); (Vm.Nested_paging, true); (Vm.Shadow_paging, false) ]

(* --- guest/native equivalence --- *)

let test_console_equivalence () =
  let setup = hello_setup () in
  let platform, _ = boot_native setup in
  let hyp_s, vm_s = boot_vm ~paging:Vm.Shadow_paging setup in
  run_to_halt hyp_s;
  let hyp_n, vm_n = boot_vm ~paging:Vm.Nested_paging setup in
  run_to_halt hyp_n;
  checks "native = shadow" (Platform.console_output platform) (Vm.console_output vm_s);
  checks "native = nested" (Platform.console_output platform) (Vm.console_output vm_n)

(* --- live migration --- *)

let migrate_test strategy () =
  let setup =
    Images.plan ~heap_pages:32 ~user:(Workloads.dirty_loop ~pages:16 ~delay:20) ()
  in
  let host_a = Host.create ~frames:(setup.Images.frames + 512) () in
  let host_b = Host.create ~frames:(setup.Images.frames + 512) () in
  let src = Hypervisor.create ~host:host_a () in
  let dst = Hypervisor.create ~host:host_b () in
  let vm = Images.create_vm src ~name:"mig" ~paging:Vm.Nested_paging setup in
  (* let the guest boot and start dirtying *)
  ignore (Hypervisor.run src ~budget:3_000_000L);
  checkb "guest alive" true (not (Vm.halted vm));
  let link = Link.create () in
  let twin, result =
    match strategy with
    | `Stop -> Migrate.stop_and_copy ~src ~dst ~vm ~link ()
    | `Pre -> Migrate.precopy ~src ~dst ~vm ~link ()
    | `Post -> Migrate.postcopy ~src ~dst ~vm ~link ()
  in
  checkb "pages were sent" true (result.Migrate.pages_sent > 0);
  checkb "downtime <= total" true
    (Int64.unsigned_compare result.Migrate.downtime_cycles result.Migrate.total_cycles <= 0);
  (* the twin must keep executing on the destination *)
  let before = Vm.guest_cycles twin in
  ignore (Hypervisor.run dst ~budget:2_000_000L);
  checkb "twin made progress" true (Vm.guest_cycles twin > before);
  (match strategy with
  | `Pre -> checkb "several rounds" true (result.Migrate.rounds >= 1)
  | `Post -> checkb "no leftover remote pages" true
               (P2m.count twin.Vm.p2m ~f:(function P2m.Remote -> true | _ -> false) = 0)
  | `Stop -> ());
  checkb "source deactivated" true
    (not (List.exists (fun v -> v == vm) src.Hypervisor.vms))

(* --- fault paths: the guest kernel panics deterministically --- *)

(* A user program that touches an unmapped address: the kernel's trap
   handler prints '!' and halts — identically everywhere. *)
let wild_load =
  Velum_isa.Asm.(
    assemble ~origin:Velum_guests.Abi.user_base
      [ li r2 0x0800_0000L; ld r3 r2 0L; li r1 Velum_guests.Abi.sys_exit; ecall ])

let wild_jump =
  Velum_isa.Asm.(
    assemble ~origin:Velum_guests.Abi.user_base
      [ li r2 0x0800_0000L; jalr r0 r2 0L ])

let priv_in_user =
  Velum_isa.Asm.(
    assemble ~origin:Velum_guests.Abi.user_base [ halt ])

let test_panic_equivalence () =
  List.iter
    (fun (name, user) ->
      let setup = Images.plan ~user () in
      let platform, n_out = boot_native setup in
      checkb (name ^ " native halts") true (n_out = Platform.Halted);
      checks (name ^ " native panics") "!" (Platform.console_output platform);
      List.iter
        (fun paging ->
          let hyp, vm = boot_vm ~paging setup in
          run_to_halt hyp;
          checks (name ^ " vm panics identically") "!" (Vm.console_output vm))
        [ Vm.Shadow_paging; Vm.Nested_paging ])
    [ ("wild load", wild_load); ("wild jump", wild_jump); ("priv in user", priv_in_user) ]

(* --- migration variants --- *)

let migrate_with ~paging ~pv () =
  let setup =
    Images.plan ~pv_console:pv ~pv_pt:pv ~heap_pages:32
      ~user:(Workloads.dirty_loop ~pages:16 ~delay:50) ()
  in
  let src = Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) () in
  let dst = Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) () in
  let vm =
    Images.create_vm src ~name:"mv" ~paging ~pv:(if pv then Vm.full_pv else Vm.no_pv) setup
  in
  ignore (Hypervisor.run src ~budget:3_000_000L);
  checkb "alive before" true (not (Vm.halted vm));
  let link = Link.create () in
  let twin, _ = Migrate.precopy ~src ~dst ~vm ~link () in
  let before = Vm.guest_cycles twin in
  ignore (Hypervisor.run dst ~budget:2_000_000L);
  checkb "twin runs" true (Vm.guest_cycles twin > before)

let test_migrate_shadow () = migrate_with ~paging:Vm.Shadow_paging ~pv:false ()

let test_migrate_bt_mode_carried () =
  (* a syscall-heavy guest so the twin has sensitive sites to
     retranslate after the move *)
  let setup = Images.plan ~user:(Workloads.syscall_loop ~count:1_000_000L) () in
  let src = Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) () in
  let dst = Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) () in
  let vm = Images.create_vm src ~name:"btmig" ~exec_mode:Vm.Binary_translation setup in
  ignore (Hypervisor.run src ~budget:3_000_000L);
  let link = Link.create () in
  let twin, _ = Migrate.precopy ~src ~dst ~vm ~link () in
  checkb "exec mode carried" true (twin.Vm.exec_mode = Vm.Binary_translation);
  ignore (Hypervisor.run dst ~budget:2_000_000L);
  checkb "twin retranslates" true
    (Monitor.count twin.Vm.monitor Monitor.E_bt_translate > 0)
let test_migrate_pv () = migrate_with ~paging:Vm.Shadow_paging ~pv:true ()

let test_migrate_with_swapped_and_ballooned () =
  let setup =
    Images.plan ~heap_pages:32 ~user:(Workloads.dirty_loop ~pages:8 ~delay:50) ()
  in
  let src = Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) () in
  let dst = Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) () in
  let vm = Images.create_vm src ~name:"mixed" setup in
  ignore (Hypervisor.run src ~budget:3_000_000L);
  (* park some pages in swap and balloon one out before migrating *)
  checkb "evicted some" true (Mem_mgr.evict vm ~n:8 = 8);
  let heap_gfn = Int64.shift_right_logical Velum_guests.Abi.heap_base 12 in
  ignore (Vm.balloon_out vm (Int64.add heap_gfn 30L));
  let link = Link.create () in
  let twin, _ = Migrate.stop_and_copy ~src ~dst ~vm ~link () in
  (* ballooned page stays unbacked on the twin, swapped pages were
     pulled in and transferred *)
  checkb "ballooned not transferred" true
    (match P2m.get twin.Vm.p2m (Int64.add heap_gfn 30L) with
     | P2m.Present _ -> false
     | _ -> true);
  let before = Vm.guest_cycles twin in
  ignore (Hypervisor.run dst ~budget:2_000_000L);
  checkb "twin runs" true (Vm.guest_cycles twin > before)

(* --- zero-page compression --- *)

let test_migration_compression () =
  (* a mostly-zero guest: compression collapses the wire footprint *)
  let run compress =
    let setup = Images.plan ~heap_pages:128 ~user:(Workloads.cpu_spin ~iters:1_000_000_000L) () in
    let src = Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) () in
    let dst = Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) () in
    let vm = Images.create_vm src ~name:"z" setup in
    ignore (Hypervisor.run src ~budget:2_000_000L);
    let link = Link.create () in
    let twin, r = Migrate.stop_and_copy ~compress ~src ~dst ~vm ~link () in
    (* twin still correct *)
    let before = Vm.guest_cycles twin in
    ignore (Hypervisor.run dst ~budget:1_000_000L);
    checkb "twin runs" true (Vm.guest_cycles twin > before);
    r.Migrate.bytes_sent
  in
  let plain = run false in
  let compressed = run true in
  checkb
    (Printf.sprintf "compressed (%d) < half of plain (%d)" compressed plain)
    true
    (compressed * 2 < plain)

(* --- checkpoint replication (Remus-style) --- *)

let test_replication_failover () =
  let setup =
    Images.plan ~heap_pages:32 ~user:(Workloads.dirty_loop ~pages:16 ~delay:50) ()
  in
  let primary =
    Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) ()
  in
  let backup =
    Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) ()
  in
  let vm = Images.create_vm primary ~name:"ha" setup in
  ignore (Hypervisor.run primary ~budget:3_000_000L);
  let link = Link.create () in
  let twin, stats =
    Replicate.protect ~primary ~backup ~vm ~link ~epoch_cycles:200_000L ~epochs:5 ()
  in
  checkb "epochs ran" true (stats.Replicate.epochs_completed = 5);
  checkb "pages shipped" true (stats.Replicate.pages_sent > 0);
  checkb "paused less than ran" true
    (Int64.unsigned_compare stats.Replicate.paused_cycles
       (Int64.add stats.Replicate.run_cycles stats.Replicate.paused_cycles) < 0);
  checkb "primary gone" true (primary.Hypervisor.vms = []);
  (* the backup resumes from the last checkpoint and keeps executing *)
  let before = Vm.guest_cycles twin in
  ignore (Hypervisor.run backup ~budget:2_000_000L);
  checkb "twin progressed" true (Vm.guest_cycles twin > before)

let test_replication_backup_idle_until_failover () =
  let setup = Images.plan ~user:(Workloads.cpu_spin ~iters:100_000_000L) () in
  let primary =
    Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) ()
  in
  let backup =
    Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) ()
  in
  let vm = Images.create_vm primary ~name:"ha2" setup in
  ignore (Hypervisor.run primary ~budget:2_000_000L);
  let link = Link.create () in
  let session = Replicate.start ~primary ~backup ~vm ~link () in
  ignore (Replicate.epoch session ~run_cycles:100_000L);
  (* while protected, the backup twin must not execute *)
  ignore (Hypervisor.run backup ~budget:500_000L);
  let twin_cycles_before =
    List.fold_left
      (fun acc vm -> Int64.add acc (Vm.guest_cycles vm))
      0L backup.Hypervisor.vms
  in
  checkb "backup idle" true (twin_cycles_before = 0L);
  let twin = Replicate.failover session in
  ignore (Hypervisor.run backup ~budget:500_000L);
  checkb "twin active after failover" true (Vm.guest_cycles twin > 0L)

(* --- page sharing + ballooning + snapshots on live guests --- *)

let test_page_sharing_live () =
  let setup = Images.plan ~user:(Workloads.cpu_spin ~iters:2_000_000L) () in
  let host = Host.create ~frames:8192 () in
  let hyp = Hypervisor.create ~host () in
  let vms =
    List.init 3 (fun i ->
        let vm = Images.create_vm hyp ~name:(Printf.sprintf "vm%d" i) setup in
        vm)
  in
  (* boot all three a bit *)
  ignore (Hypervisor.run hyp ~budget:2_000_000L);
  let used_before = Frame_alloc.used_count host.Host.alloc in
  let stats = Mem_mgr.share_pass vms in
  let used_after = Frame_alloc.used_count host.Host.alloc in
  checkb "frames freed" true (stats.Mem_mgr.freed > 0);
  checkb "usage dropped" true (used_after < used_before);
  (* guests keep running correctly on shared frames *)
  ignore (Hypervisor.run hyp ~budget:5_000_000L);
  List.iter
    (fun vm -> checkb "progressing" true (Vm.guest_cycles vm > 0L))
    vms

let test_snapshot_roundtrip () =
  let setup = hello_setup () in
  let hyp, vm =
    boot_vm ~paging:Vm.Nested_paging ~host_frames:((2 * setup.Images.frames) + 512) setup
  in
  run_to_halt hyp;
  let image = Snapshot.capture vm in
  let restored = Snapshot.restore hyp image in
  checks "console preserved" (Vm.console_output vm) (Vm.console_output restored);
  checkb "halted state preserved" true (Vm.halted restored)

let test_live_snapshot_clone () =
  let setup =
    Images.plan ~heap_pages:8 ~user:(Workloads.dirty_loop ~pages:8 ~delay:50) ()
  in
  let host = Host.create ~frames:8192 () in
  let hyp = Hypervisor.create ~host () in
  let vm = Images.create_vm hyp ~name:"orig" setup in
  ignore (Hypervisor.run hyp ~budget:2_000_000L);
  let snap = Snapshot.capture_live vm in
  let clone = Snapshot.restore_live hyp snap in
  (* both keep executing, diverging via COW *)
  ignore (Hypervisor.run hyp ~budget:4_000_000L);
  checkb "original progressed" true (Vm.guest_cycles vm > 0L);
  checkb "clone progressed" true (Vm.guest_cycles clone > 0L);
  checkb "cow breaks happened" true
    (Monitor.count vm.Vm.monitor Monitor.E_cow_break
     + Monitor.count clone.Vm.monitor Monitor.E_cow_break
     > 0);
  Snapshot.release_live snap

(* --- virtio-net fabric: client -> load balancer -> backends --- *)

let vnet_mac i = Int64.of_int (0x10 + i)

(* Ports: 0 = client, 1 = LB, 2.. = backends. *)
let build_vnet_fleet ?(requests = 8) ?(batch = 4) ?(backends = 2) hyp =
  let client_setup =
    Images.plan ~heap_pages:2 ~vnet:true
      ~user:
        (Workloads.vnet_client ~my_mac:(vnet_mac 0) ~lb_mac:(vnet_mac 1)
           ~peers:(1 + backends) ~requests ~batch ~gap:400)
      ()
  in
  let lb_setup =
    Images.plan ~heap_pages:2 ~vnet:true
      ~user:
        (Workloads.vnet_lb ~my_mac:(vnet_mac 1)
           ~backends:(List.init backends (fun i -> vnet_mac (2 + i))))
      ()
  in
  let backend_setup i =
    Images.plan ~heap_pages:2 ~vnet:true
      ~user:(Workloads.vnet_backend ~my_mac:(vnet_mac (2 + i)) ~service:100)
      ()
  in
  let setups =
    [ ("client", client_setup); ("lb", lb_setup) ]
    @ List.init backends (fun i -> (Printf.sprintf "backend%d" i, backend_setup i))
  in
  let ports =
    Array.init (List.length setups) (fun _ ->
        Link.create ~bytes_per_cycle:1.0 ~latency_cycles:200 ())
  in
  let sw = Switch.create ports in
  (* static MAC entries: guests also announce dynamically, but on a
     time-shared pcpu the client's first batch can beat the backends'
     boot announces to the switch and die as unknown unicast *)
  Array.iteri (fun i _ -> Switch.learn sw ~mac:(vnet_mac i) ~port:i) ports;
  Hypervisor.add_ticker hyp (Switch.tick sw);
  Hypervisor.add_event_source hyp (fun () -> Switch.next_event sw);
  let vms =
    List.mapi
      (fun i (name, setup) ->
        let vm = Images.create_vm hyp ~name setup in
        ignore (Vm.attach_vnet vm ~link:ports.(i) ~endpoint:`A);
        vm)
      setups
  in
  (sw, ports, vms)

(* Every frame anywhere must land in a named counter: what the adapters
   put on the wire, minus wire losses, plus duplicates and floods, is
   what the adapters got back plus every drop the switch and adapters
   admit to.  [conserved] folds the same identity per layer. *)
let check_vnet_conservation sw ports vms =
  checkb "switch conserved" true (Switch.conserved sw);
  let vnets =
    List.filter_map (fun vm -> vm.Vm.vnet) vms
  in
  let sent = List.fold_left (fun a v -> a + Virtio_net.frames_sent v) 0 vnets in
  let received =
    List.fold_left (fun a v -> a + Virtio_net.frames_received v) 0 vnets
  in
  let rx_lost =
    List.fold_left
      (fun a v -> a + Virtio_net.rx_dropped v + Virtio_net.rx_overflow v)
      0 vnets
  in
  let backlog =
    List.fold_left (fun a v -> a + Virtio_net.backlog_length v) 0 vnets
  in
  let wire_dropped =
    Array.fold_left (fun a l -> a + Link.wire_dropped l) 0 ports
  in
  let wire_dup =
    Array.fold_left (fun a l -> a + Link.wire_duplicated l) 0 ports
  in
  let in_flight = Array.fold_left (fun a l -> a + Link.in_flight l) 0 ports in
  Alcotest.(check int) "frame conservation"
    (sent + wire_dup + Switch.flood_extra sw)
    (received + rx_lost + Switch.drops sw + wire_dropped + in_flight + backlog)

let test_vnet_fabric () =
  let host = Host.create ~frames:8192 () in
  let hyp = Hypervisor.create ~host () in
  let requests = 8 in
  let sw, ports, vms = build_vnet_fleet ~requests ~batch:4 hyp in
  ignore (Hypervisor.run hyp ~budget:60_000_000L);
  let client = List.hd vms in
  checkb "client halted" true (Vm.halted client);
  let cn = Option.get client.Vm.vnet in
  (* announce + requests out; every reply plus the three broadcast
     announces from the other guests comes back *)
  Alcotest.(check int) "client sent" (requests + 1) (Virtio_net.frames_sent cn);
  Alcotest.(check int) "client got every reply"
    (requests + Array.length ports - 1)
    (Virtio_net.frames_received cn);
  (* doorbell coalescing: 1 announce kick + 1 per batch of 4 *)
  checkb "tx kicks coalesced" true (Virtio_net.kicks cn <= 1 + (requests / 4) + 1);
  (* the LB spread the load *)
  List.iteri
    (fun i vm ->
      if i >= 2 then
        checkb
          (Printf.sprintf "backend %d served" (i - 2))
          true
          (Virtio_net.frames_received (Option.get vm.Vm.vnet) >= requests / 4))
    vms;
  check_vnet_conservation sw ports vms

(* A backend migrates to another host mid-benchmark: its port link and
   the switch are shared infrastructure, so the migration plugs the
   twin's fresh virtio-net into the same link endpoint, with the old
   adapter's ring layout (the ring pages travelled with guest memory)
   and its undelivered backlog.  The switch's clock is monotonic, so
   both hypervisors may tick it. *)
let test_vnet_migration () =
  let host_a = Host.create ~frames:8192 () in
  let src = Hypervisor.create ~host:host_a () in
  let requests = 24 in
  let sw, ports, vms = build_vnet_fleet ~requests ~batch:4 src in
  let client = List.hd vms in
  let backend = List.nth vms 3 in
  (* run in small slices until the request stream is mid-flight *)
  let cn = Option.get client.Vm.vnet in
  let spins = ref 0 in
  while Virtio_net.frames_sent cn < 6 && !spins < 100 do
    ignore (Hypervisor.run src ~budget:200_000L);
    incr spins
  done;
  checkb "benchmark still running" true (not (Vm.halted client));
  let host_b = Host.create ~frames:8192 () in
  let dst = Hypervisor.create ~host:host_b () in
  Hypervisor.add_ticker dst (Switch.tick sw);
  Hypervisor.add_event_source dst (fun () -> Switch.next_event sw);
  let mig_link = Link.create () in
  let twin, result = Migrate.stop_and_copy ~src ~dst ~vm:backend ~link:mig_link () in
  let v = Option.get twin.Vm.vnet in
  checkb "pages were sent" true (result.Migrate.pages_sent > 0);
  (* drive both hosts in alternating slices until the client finishes *)
  let slices = ref 0 in
  while (not (Vm.halted client)) && !slices < 60 do
    ignore (Hypervisor.run src ~budget:1_000_000L);
    ignore (Hypervisor.run dst ~budget:1_000_000L);
    incr slices
  done;
  checkb "client halted after migration" true (Vm.halted client);
  (* the client's bounded final drain can give up while the last replies
     are still crossing the fabric; its RX buffers stay posted, so a few
     more slices deliver them (delivery costs the guest zero exits) *)
  for _ = 1 to 10 do
    ignore (Hypervisor.run src ~budget:1_000_000L);
    ignore (Hypervisor.run dst ~budget:1_000_000L)
  done;
  Alcotest.(check int) "every reply arrived"
    (requests + Array.length ports - 1)
    (Virtio_net.frames_received cn);
  (* the migrated backend kept serving on the destination *)
  checkb "twin served requests" true (Virtio_net.frames_sent v > 0);
  checkb "switch conserved" true (Switch.conserved sw)

(* Migration moves the virtio-net adapter: the twin is plugged into the
   same link endpoint, with the rings where the source adapter had them
   and every frame the source had received but not yet delivered. *)
let test_migrate_moves_vnet () =
  let setup = Images.plan ~user:(Workloads.hello ()) () in
  let src, vm = Images.boot ~name:"nic" setup in
  let dst = Images.hypervisor setup in
  let port = Link.create () in
  let old = Vm.attach_vnet vm ~link:port ~endpoint:`A in
  List.iter
    (fun payload -> ignore (Link.send port ~from:`B ~now:0L ~payload))
    [ "frame-1"; "frame-2"; "frame-3" ];
  (* no rings yet, so the arrivals wait in the backlog *)
  Virtio_net.tick old 1_000_000L;
  Alcotest.(check int) "source backlog" 3 (Virtio_net.backlog_length old);
  Setups.vnet_rings old ~tx_base:0x7000L ~tx_size:8L ~rx_base:0x7800L ~rx_size:4L;
  let twin, r = Migrate.stop_and_copy ~src ~dst ~vm ~link:(Link.create ()) () in
  checkb "migrated" false r.Migrate.aborted;
  let v = Option.get twin.Vm.vnet in
  checkb "fresh adapter" true (v != old);
  checkb "same link" true (Virtio_net.link v == port);
  checkb "same endpoint" true (Virtio_net.endpoint v = `A);
  let reg off = (Virtio_net.device v).Velum_machine.Bus.read off Velum_isa.Instr.W64 in
  Alcotest.(check (list int64))
    "ring layout"
    [ 0x7000L; 8L; 0x7800L; 4L ]
    (List.map reg
       Virtio_net.
         [ reg_tx_ring_base; reg_tx_ring_size; reg_rx_ring_base; reg_rx_ring_size ]);
  Alcotest.(check int) "backlog moved" 3 (Virtio_net.backlog_length v);
  Alcotest.(check int) "source drained" 0 (Virtio_net.backlog_length old)

let suite =
  [
    ("native hello", `Quick, test_native_hello);
    ("native cpu spin", `Quick, test_native_cpu_spin);
    ("native memwalk", `Quick, test_native_memwalk);
    ("native syscalls", `Quick, test_native_syscalls);
    ("native blk", `Quick, test_native_blk);
    ("native vblk", `Quick, test_native_vblk);
    ("vmm hello shadow", `Quick, test_vmm_hello Vm.Shadow_paging);
    ("vmm hello nested", `Quick, test_vmm_hello Vm.Nested_paging);
    ("vmm hello pv", `Quick, test_vmm_hello_pv);
    ("vmm memwalk shadow", `Quick, test_vmm_memwalk Vm.Shadow_paging);
    ("vmm memwalk nested", `Quick, test_vmm_memwalk Vm.Nested_paging);
    ("vmm syscalls shadow", `Quick, test_vmm_syscalls Vm.Shadow_paging);
    ("vmm syscalls nested", `Quick, test_vmm_syscalls Vm.Nested_paging);
    ("vmm pt churn shadow", `Quick, test_vmm_pt_churn Vm.Shadow_paging);
    ("vmm pt churn nested", `Quick, test_vmm_pt_churn Vm.Nested_paging);
    ("vmm blk shadow", `Quick, test_vmm_blk Vm.Shadow_paging);
    ("vmm blk nested", `Quick, test_vmm_blk Vm.Nested_paging);
    ("vmm vblk shadow", `Quick, test_vmm_vblk Vm.Shadow_paging);
    ("vmm vblk nested", `Quick, test_vmm_vblk Vm.Nested_paging);
    ("virtio fewer exits", `Quick, test_vblk_fewer_exits);
    ("echo native", `Quick, test_echo_native);
    ("echo vmm shadow", `Quick, test_echo_vmm Vm.Shadow_paging);
    ("echo vmm nested", `Quick, test_echo_vmm Vm.Nested_paging);
    ("timer native", `Quick, test_timer_native);
    ("timer vmm shadow", `Quick, test_timer_vmm Vm.Shadow_paging);
    ("timer vmm nested", `Quick, test_timer_vmm Vm.Nested_paging);
    ("net ping-pong", `Quick, test_net_ping_pong);
    ("vnet fabric lb", `Quick, test_vnet_fabric);
    ("vnet live migration", `Quick, test_vnet_migration);
    ("migration moves the vnet adapter", `Quick, test_migrate_moves_vnet);
    ("smp guest probe", `Quick, test_smp_guest_probe);
    ("smp guest syscalls", `Quick, test_smp_guest_syscalls);
    ("smp kernel native", `Quick, test_smp_guest_native_single_hart);
    ("vmid detection", `Quick, test_vmid_detection);
    ("superpage equivalence", `Quick, test_superpage_equivalence);
    ("superpage tlb reach", `Quick, test_superpage_tlb_reach_native);
    ("bt hello", `Quick, test_bt_hello);
    ("bt cheaper syscalls", `Quick, test_bt_cheaper_syscalls);
    ("bt cache reuse", `Quick, test_bt_translation_cache_reuse);
    ("console equivalence", `Quick, test_console_equivalence);
    ("client/server app", `Quick, test_client_server_completes);
    ("migration stop-and-copy", `Quick, migrate_test `Stop);
    ("migration precopy", `Quick, migrate_test `Pre);
    ("migration postcopy", `Quick, migrate_test `Post);
    ("panic equivalence", `Quick, test_panic_equivalence);
    ("migration shadow vm", `Quick, test_migrate_shadow);
    ("migration carries bt mode", `Quick, test_migrate_bt_mode_carried);
    ("migration pv vm", `Quick, test_migrate_pv);
    ("migration with swap+balloon", `Quick, test_migrate_with_swapped_and_ballooned);
    ("migration zero-page compression", `Quick, test_migration_compression);
    ("replication failover", `Quick, test_replication_failover);
    ("replication backup idle", `Quick, test_replication_backup_idle_until_failover);
    ("page sharing live", `Quick, test_page_sharing_live);
    ("snapshot roundtrip", `Quick, test_snapshot_roundtrip);
    ("live snapshot clone", `Quick, test_live_snapshot_clone);
  ]

let () = Alcotest.run "integration" [ ("integration", suite) ]
