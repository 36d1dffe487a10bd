(* Differential testing: generate random guest user programs, run each
   on bare metal and under the hypervisor in every configuration
   (shadow/nested paging, paravirtual, binary translation, 4 KiB and
   2 MiB heap mappings), and require byte-identical console output.

   Each program seeds registers with random constants, applies a random
   sequence of ALU and heap load/store operations, folds the registers
   into a digest, and prints the digest as 16 letters.  Any divergence
   between the native hart and the deprivileged hart — in instruction
   semantics, trap reflection, address translation, A/D handling, or
   device emulation — shows up as different output. *)

open Velum_isa
open Velum_machine
open Velum_devices
open Velum_vmm
open Velum_guests
open Asm

(* ---------------- program generator ---------------- *)

type op =
  | Alu3 of Instr.alu_op * int * int * int  (* rd, rs1, rs2 in 2..11 *)
  | Alui of Instr.alu_op * int * int * int64
  | Store of int * int64  (* src reg, aligned heap offset *)
  | Load of int * int64  (* rd, aligned heap offset *)

let gen_reg = QCheck2.Gen.int_range 2 11

let gen_alu3_op =
  QCheck2.Gen.oneofl
    [ Instr.Add; Instr.Sub; Instr.Mul; Instr.And; Instr.Or; Instr.Xor;
      Instr.Sll; Instr.Srl; Instr.Sra; Instr.Slt; Instr.Sltu; Instr.Div; Instr.Rem ]

let gen_alui_op =
  QCheck2.Gen.oneofl
    [ Instr.Add; Instr.And; Instr.Or; Instr.Xor; Instr.Sll; Instr.Srl; Instr.Sra;
      Instr.Slt; Instr.Sltu ]

let gen_op =
  let open QCheck2.Gen in
  frequency
    [
      (5, map (fun ((o, a), (b, c)) -> Alu3 (o, a, b, c))
           (pair (pair gen_alu3_op gen_reg) (pair gen_reg gen_reg)));
      (3, map (fun ((o, a), (b, i)) -> Alui (o, a, b, Int64.of_int i))
           (pair (pair gen_alui_op gen_reg) (pair gen_reg (int_range (-100000) 100000))));
      (1, map (fun (r, slot) -> Store (r, Int64.of_int (slot * 8)))
           (pair gen_reg (int_range 0 63)));
      (1, map (fun (r, slot) -> Load (r, Int64.of_int (slot * 8)))
           (pair gen_reg (int_range 0 63)));
    ]

let gen_program =
  let open QCheck2.Gen in
  pair (array_size (return 10) (map Int64.of_int int)) (list_size (int_range 5 60) gen_op)

(* [laps] > 1 runs the ops that many times in a loop counted in r13,
   outside the r2..r11 they touch. *)
let compile ?(laps = 1) (seeds, ops) =
  let seed_items =
    List.concat (List.mapi (fun i v -> [ li (i + 2) v ]) (Array.to_list seeds))
  in
  let op_item = function
    | Alu3 (o, rd, rs1, rs2) -> Insn (Instr.Alu (o, rd, rs1, rs2))
    | Alui (o, rd, rs1, imm) -> Insn (Instr.Alui (o, rd, rs1, imm))
    | Store (src, off) -> Insn (Instr.Store { src; base = 15; off; width = Instr.W64 })
    | Load (rd, off) -> Insn (Instr.Load { rd; base = 15; off; width = Instr.W64 })
  in
  let fold =
    (* digest = xor of r2..r11 *)
    [ mv r12 r2 ]
    @ List.concat (List.map (fun r -> [ xor r12 r12 r ]) [ 3; 4; 5; 6; 7; 8; 9; 10; 11 ])
  in
  let print_digest =
    [
      li r6 16L;
      label "d_loop";
      srli r7 r12 60L;
      andi r7 r7 15L;
      addi r2 r7 97L (* 'a' + nibble *);
      li r1 Abi.sys_putchar;
      ecall;
      slli r12 r12 4L;
      addi r6 r6 (-1L);
      bne r6 r0 "d_loop";
    ]
  in
  Asm.assemble ~origin:Abi.user_base
    ([ label "u_entry"; li r14 0x0014_4000L; li r15 Abi.heap_base ]
    @ seed_items
    @ (if laps = 1 then List.map op_item ops
       else
         [ li r13 (Int64.of_int laps); label "lap" ]
         @ List.map op_item ops
         @ [ addi r13 r13 (-1L); bne r13 r0 "lap" ])
    @ fold @ print_digest
    @ [ li r1 Abi.sys_exit; ecall ])

(* ---------------- execution under each configuration ---------------- *)

let run_native ?engine setup =
  let platform = Images.boot_native ?engine setup in
  match Platform.run ~budget:100_000_000L platform with
  | Platform.Halted -> Platform.console_output platform
  | _ -> "<native did not halt>"

let run_virt ?exec_mode ?engine ~paging ~pv setup =
  let hyp, vm =
    Images.boot ~name:"diff" ~paging
      ~pv:(if pv then Vm.full_pv else Vm.no_pv)
      ?exec_mode ?engine setup
  in
  match Hypervisor.run hyp ~budget:500_000_000L with
  | Hypervisor.All_halted -> Vm.console_output vm
  | _ -> "<vm did not halt>"

let differential_prop =
  QCheck2.Test.make ~count:40 ~name:"native = shadow = nested = pv for random programs"
    gen_program
    (fun prog ->
      let user = compile prog in
      let setup = Images.plan ~heap_pages:1 ~user () in
      let pv_setup = Images.plan ~pv_console:true ~pv_pt:true ~heap_pages:1 ~user () in
      let sp_setup = Images.plan ~heap_pages:1 ~heap_superpages:true ~user () in
      let native = run_native setup in
      String.length native = 16
      && native = run_virt ~paging:Vm.Shadow_paging ~pv:false setup
      && native = run_virt ~paging:Vm.Nested_paging ~pv:false setup
      && native = run_virt ~paging:Vm.Shadow_paging ~pv:true pv_setup
      && native
         = run_virt ~exec_mode:Vm.Binary_translation ~paging:Vm.Nested_paging ~pv:false
             setup
      && native = run_native sp_setup
      && native = run_virt ~paging:Vm.Nested_paging ~pv:false sp_setup
      && native = run_virt ~paging:Vm.Shadow_paging ~pv:false sp_setup)

(* A fixed regression corpus in addition to the random sweep: division
   edges, shift masking, unsigned compares, load/store interleaving. *)
let fixed_corpus () =
  let cases =
    [
      ([| 5L; 0L; Int64.min_int; -1L; 7L; 3L; 0L; 0L; 0L; 0L |],
       [ Alu3 (Instr.Div, 2, 2, 3); Alu3 (Instr.Rem, 4, 4, 5);
         Alu3 (Instr.Div, 6, 6, 7); Alu3 (Instr.Sltu, 8, 4, 5) ]);
      ([| -8L; 65L; 1L; 0L; 0L; 0L; 0L; 0L; 0L; 0L |],
       [ Alu3 (Instr.Sll, 4, 2, 3); Alu3 (Instr.Srl, 5, 2, 3);
         Alu3 (Instr.Sra, 6, 2, 3) ]);
      ([| 0x1234L; 0x5678L; 0L; 0L; 0L; 0L; 0L; 0L; 0L; 0L |],
       [ Store (2, 0L); Store (3, 8L); Load (4, 0L); Load (5, 8L);
         Alu3 (Instr.Add, 6, 4, 5); Store (6, 16L); Load (7, 16L) ]);
    ]
  in
  List.iter
    (fun prog ->
      let user = compile prog in
      let setup = Images.plan ~heap_pages:1 ~user () in
      let native = run_native setup in
      Alcotest.(check string) "shadow" native
        (run_virt ~paging:Vm.Shadow_paging ~pv:false setup);
      Alcotest.(check string) "nested" native
        (run_virt ~paging:Vm.Nested_paging ~pv:false setup))
    cases

(* ---------------- execution engines: lockstep equivalence ----------------

   The block engine must be {e observationally identical} to the
   reference interpreter: same console bytes, same final architectural
   state on every vCPU, same per-kind exit counts and cycles, same
   guest/VMM cycle totals, and the same literal exit sequence.  Anything
   the embedding hypervisor can see must match. *)

(* Render everything engine-visible about a finished VM into one string
   so a mismatch shows exactly which observable diverged. *)
let observe_vm (vm : Vm.t) outcome =
  let b = Buffer.create 1024 in
  Buffer.add_string b (outcome ^ "\n");
  Buffer.add_string b (Vm.console_output vm);
  Buffer.add_char b '\n';
  Array.iteri
    (fun i v ->
      let s = v.Vcpu.state in
      Buffer.add_string b
        (Printf.sprintf "vcpu%d pc=%Lx mode=%s instret=%Ld halted=%b waiting=%b\n" i
           (Cpu.pc s)
           (match s.Cpu.mode with Arch.User -> "U" | Arch.Supervisor -> "S")
           s.Cpu.instret s.Cpu.halted s.Cpu.waiting);
      for j = 0 to Arch.num_regs - 1 do
        Buffer.add_string b (Printf.sprintf " r%d=%Lx" j (Cpu.get_reg s j))
      done;
      Buffer.add_char b '\n';
      Array.iteri (fun j c -> Buffer.add_string b (Printf.sprintf " c%d=%Lx" j c)) s.Cpu.csrs;
      Buffer.add_char b '\n')
    vm.Vm.vcpus;
  List.iter
    (fun k ->
      Buffer.add_string b
        (Printf.sprintf "%s=%d/%Ld\n" (Monitor.exit_kind_name k)
           (Monitor.count vm.Vm.monitor k)
           (Monitor.cycles vm.Vm.monitor k)))
    Monitor.all_exit_kinds;
  (* TLB misses, evictions and flushes are engine-lockstep (the block
     engine skips only guaranteed hits, so it makes every walk the
     interpreter makes, once; round-robin replacement is driven only by
     the inserts those walks make), so they belong in the oracle.  Hit
     counts legitimately diverge and stay out. *)
  let sum f = Array.fold_left (fun acc tlb -> acc + f tlb) 0 vm.Vm.tlbs in
  Buffer.add_string b
    (Printf.sprintf "tlb-miss=%d tlb-evict=%d tlb-flush=%d\n" (sum Tlb.misses)
       (sum Tlb.evictions) (sum Tlb.flushes));
  Buffer.add_string b
    (Printf.sprintf "guest=%Ld vmm=%Ld\n" (Vm.guest_cycles vm) (Vm.vmm_cycles vm));
  Buffer.contents b

let run_observed_vm ?tlb_size ~engine ~paging setup =
  let hyp, vm = Images.boot ~name:"eng" ~paging ?tlb_size ~engine setup in
  let outcome =
    match Hypervisor.run hyp ~budget:500_000_000L with
    | Hypervisor.All_halted -> "halted"
    | Hypervisor.Out_of_budget -> "budget"
    | Hypervisor.Idle_deadlock -> "deadlock"
    | Hypervisor.Until_satisfied -> "satisfied"
  in
  (observe_vm vm outcome, vm)

let run_observed ?tlb_size ~engine ~paging setup =
  fst (run_observed_vm ?tlb_size ~engine ~paging setup)

let engine_lockstep () =
  List.iter
    (fun (name, setup) ->
      List.iter
        (fun (pname, paging) ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s" name pname)
            (run_observed ~engine:Engine.Interp ~paging setup)
            (run_observed ~engine:Engine.Block ~paging setup))
        [ ("nested", Vm.Nested_paging); ("shadow", Vm.Shadow_paging) ])
    (Setups.workload_setups ())

(* The five ENGINE bench workloads at a scale where the superblock
   trace tier actually kicks in (hot heads cross the promotion
   threshold).  The full lockstep oracle must hold with traces running
   most of the guest's instructions, and each block run must really
   have built and followed traces — otherwise this test would silently
   degrade into re-testing plain block dispatch. *)
let engine_trace_workloads () =
  let setups =
    [
      ("cpu-spin", Images.plan ~user:(Workloads.cpu_spin ~iters:5_000L) ());
      ("branch-mix", Images.plan ~user:(Workloads.branch_mix ~iters:3_000L) ());
      ( "memcpy",
        Images.plan ~heap_pages:18
          ~user:(Workloads.stream_copy ~words:1024 ~iters:4)
          () );
      ("null-syscall", Images.plan ~user:(Workloads.syscall_loop ~count:200L) ());
      ( "pgtable-churn",
        Images.plan ~user:(Workloads.pt_churn ~batch:16 ~count:60 ()) () );
    ]
  in
  List.iter
    (fun (name, setup) ->
      List.iter
        (fun (pname, paging) ->
          let obs_i = run_observed ~engine:Engine.Interp ~paging setup in
          let obs_b, vm = run_observed_vm ~engine:Engine.Block ~paging setup in
          Alcotest.(check string) (Printf.sprintf "%s/%s" name pname) obs_i obs_b;
          match vm.Vm.engine.Engine.cache with
          | None -> Alcotest.fail "block engine has no cache"
          | Some c ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s traces built" name pname)
                true
                (Trans_cache.traces_built c > 0);
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s traces followed" name pname)
                true
                (Trans_cache.trace_follows c > 0))
        [ ("nested", Vm.Nested_paging); ("shadow", Vm.Shadow_paging) ])
    setups

(* Literal exit sequences: a stripped-down copy of the hypervisor's
   exec_vcpu loop, in the same hart context, that records every
   [Stop_exec] reason the engine reports, in order.  Both engines must
   produce the same sequence. *)
let record_exits ~engine setup =
  let _, vm = Images.boot ~name:"seq" ~engine setup in
  let state = vm.Vm.vcpus.(0).Vcpu.state in
  let used = ref 0 in
  let now_fn () = Int64.of_int !used in
  let ctx = Vm.cpu_ctx vm ~vcpu_idx:0 ~now:now_fn in
  let exits = ref [] in
  let halted = ref false in
  let rounds = ref 0 in
  while (not !halted) && !rounds < 500_000 do
    incr rounds;
    ignore (Emulate.maybe_inject_irq vm ~vcpu_idx:0 ~now:(now_fn ()));
    let consumed, stop = vm.Vm.engine.Engine.step_n state ctx ~fuel:1000 in
    used := !used + consumed;
    Bus.tick vm.Vm.bus (now_fn ());
    match stop with
    | Cpu.Budget -> ()
    | Cpu.Halted -> halted := true
    | Cpu.Waiting -> Alcotest.fail "exit-sequence harness hit wfi"
    | Cpu.Exit e -> (
        exits := Format.asprintf "%a" Cpu.pp_vmexit e :: !exits;
        match Emulate.handle_exit vm ~vcpu_idx:0 ~now:(now_fn ()) e with
        | Emulate.Resume | Emulate.Yielded -> ()
        | Emulate.Became_blocked -> Alcotest.fail "exit-sequence harness blocked"
        | Emulate.Vcpu_halted -> halted := true)
  done;
  if not !halted then Alcotest.fail "exit-sequence harness did not halt";
  (List.rev !exits, state.Cpu.instret, !used, vm)

(* The block legs must run the engine's hot path — micro-TLB hits and
   superblock traces — not a cold fallback. *)
let exit_sequences () =
  List.iter
    (fun (name, setup) ->
      let xs_i, ret_i, used_i, _ = record_exits ~engine:Engine.Interp setup in
      let xs_b, ret_b, used_b, vm_b = record_exits ~engine:Engine.Block setup in
      Alcotest.(check (list string)) (name ^ " exit sequence") xs_i xs_b;
      Alcotest.(check int64) (name ^ " retired") ret_i ret_b;
      Alcotest.(check int) (name ^ " cycles") used_i used_b;
      Alcotest.(check bool) (name ^ " traces built") true (Vm.traces_built vm_b > 0);
      Alcotest.(check bool) (name ^ " micro-TLB hits") true
        (Dtlb.hits vm_b.Vm.dtlbs.(0) > 0))
    (List.filter
       (fun (n, _) -> List.mem n [ "hello"; "syscalls"; "pt-churn"; "memwalk" ])
       (Setups.workload_setups ()))

(* A page that is readable and writable but not executable: the user
   program stores a valid instruction into its heap page and loads it
   back, so the micro-TLB holds a data entry for the page, then jumps
   into it.  The fetch must fault on both engines alike (the guest
   kernel panics with '!'): a data entry never serves a fetch. *)
let nx_page_fetch () =
  let user =
    Asm.assemble ~origin:Abi.user_base
      [
        label "u_entry";
        li r15 Abi.heap_base;
        li r2 (Instr.encode (Instr.Alui (Instr.Add, 3, 3, 1L)));
        sd r2 r15 0L;
        ld r4 r15 0L;
        jalr r0 r15 0L;
        li r1 Abi.sys_exit;
        ecall;
      ]
  in
  let setup = Images.plan ~heap_pages:1 ~user () in
  List.iter
    (fun (pname, paging) ->
      let obs_i = run_observed ~engine:Engine.Interp ~paging setup in
      let obs_b, vm = run_observed_vm ~engine:Engine.Block ~paging setup in
      Alcotest.(check string) (pname ^ " lockstep") obs_i obs_b;
      Alcotest.(check string) (pname ^ " fetch faulted") "!" (Vm.console_output vm))
    [ ("nested", Vm.Nested_paging); ("shadow", Vm.Shadow_paging) ];
  let native engine =
    let p = Images.boot_native ~engine setup in
    ignore (Platform.run ~budget:10_000_000L p);
    ( Platform.console_output p,
      Cpu.pc p.Platform.cpu,
      Platform.instructions_retired p,
      Platform.cycles p )
  in
  let out_i, pc_i, ret_i, cyc_i = native Engine.Interp in
  let out_b, pc_b, ret_b, cyc_b = native Engine.Block in
  Alcotest.(check string) "native fetch faulted" "!" out_i;
  Alcotest.(check string) "native console" out_i out_b;
  Alcotest.(check int64) "native pc" pc_i pc_b;
  Alcotest.(check int64) "native instret" ret_i ret_b;
  Alcotest.(check int64) "native cycles" cyc_i cyc_b

(* Deterministic supervisor-mode self-modifying code on bare metal: a
   two-iteration loop patches its own body (same 4 KiB page, already
   decoded and cached by the block engine) between iterations, so the
   second pass must execute the {e new} bytes. *)
let native_smc () =
  let patched = Instr.Alui (Instr.Add, 2, 2, 1L) in
  let prog =
    Asm.assemble ~origin:0L
      [
        li r2 0L;
        li r3 2L;
        la r13 "patch";
        li r1 (Instr.encode patched);
        label "loop";
        label "patch";
        addi r2 r2 100L;
        sd r1 r13 0L;
        addi r3 r3 (-1L);
        bne r3 r0 "loop";
        (* r2 = 100 (first pass) + 1 (patched second pass) = 101 = 'e' *)
        outp Uart.data_port r2;
        halt;
      ]
  in
  let run engine =
    let p = Platform.create ~frames:64 ~engine () in
    Platform.load_image p prog;
    Platform.boot p ~entry:0L;
    (match Platform.run p with
    | Platform.Halted -> ()
    | _ -> Alcotest.fail "native SMC did not halt");
    (Platform.console_output p, Platform.cycles p, Platform.instructions_retired p, p)
  in
  let out_i, cyc_i, ret_i, _ = run Engine.Interp in
  let out_b, cyc_b, ret_b, pb = run Engine.Block in
  Alcotest.(check string) "patched output" "e" out_i;
  Alcotest.(check string) "console" out_i out_b;
  Alcotest.(check int64) "cycles" cyc_i cyc_b;
  Alcotest.(check int64) "instret" ret_i ret_b;
  match pb.Platform.engine.Engine.cache with
  | None -> Alcotest.fail "block engine has no cache"
  | Some c ->
      (* the store lands in the code's own frame, so every iteration
         drops the cached blocks and misses on re-fetch *)
      Alcotest.(check bool) "SMC invalidated" true (Trans_cache.invalidations c > 0);
      Alcotest.(check bool) "re-decoded after SMC" true (Trans_cache.misses c > 1)

(* A loop with a slow (block-ending) instruction must be served
   from the cache on re-entry: decoded once, hit on every later
   iteration, cycle-identical.  (A loop of only fast instructions never
   even consults the cache — the engine stays inside its current
   block.) *)
let native_cache_hits () =
  let prog =
    Asm.assemble ~origin:0L
      [
        li r2 0L;
        li r3 500L;
        label "loop";
        addi r2 r2 3L;
        csrr r4 Arch.Sscratch;
        addi r3 r3 (-1L);
        bne r3 r0 "loop";
        halt;
      ]
  in
  let run engine =
    let p = Platform.create ~frames:64 ~engine () in
    Platform.load_image p prog;
    Platform.boot p ~entry:0L;
    (match Platform.run p with
    | Platform.Halted -> ()
    | _ -> Alcotest.fail "loop did not halt");
    (Platform.cycles p, Platform.instructions_retired p, p)
  in
  let cyc_i, ret_i, _ = run Engine.Interp in
  let cyc_b, ret_b, pb = run Engine.Block in
  Alcotest.(check int64) "cycles" cyc_i cyc_b;
  Alcotest.(check int64) "instret" ret_i ret_b;
  match pb.Platform.engine.Engine.cache with
  | None -> Alcotest.fail "block engine has no cache"
  | Some c ->
      let hits = Trans_cache.hits c in
      Alcotest.(check bool) "mostly hits" true
        (hits > 100 && hits > 10 * Trans_cache.misses c)

(* SMC into a hot two-block loop: the loop runs hot (every block exit
   resolves through the cache), then one store rewrites an instruction
   in the second block and the loop runs again.  Invalidation must drop
   the patched block, and the re-run must execute the new bytes — r2's
   final value proves which bytes ran. *)
let native_hot_loop_smc () =
  let patched = Instr.Alui (Instr.Add, 2, 2, 2L) in
  let prog =
    Asm.assemble ~origin:0L
      [
        li r2 0L;
        li r5 2L;
        label "pass";
        li r3 20L;
        label "loop";
        addi r2 r2 1L;
        csrr r4 Arch.Sscratch (* slow: splits the loop into two blocks *);
        label "patchme";
        nop;
        addi r3 r3 (-1L);
        bne r3 r0 "loop";
        addi r5 r5 (-1L);
        bne r5 r0 "dopatch";
        jmp "done";
        label "dopatch";
        la r13 "patchme";
        li r1 (Instr.encode patched);
        sd r1 r13 0L;
        jmp "pass";
        label "done";
        (* r2 = 20 (nop pass) + 20 * 3 (patched pass) = 80 = 'P' *)
        outp Uart.data_port r2;
        halt;
      ]
  in
  let run engine =
    let p = Platform.create ~frames:64 ~engine () in
    Platform.load_image p prog;
    Platform.boot p ~entry:0L;
    (match Platform.run p with
    | Platform.Halted -> ()
    | _ -> Alcotest.fail "hot loop SMC did not halt");
    (Platform.console_output p, Platform.cycles p, Platform.instructions_retired p, p)
  in
  let out_i, cyc_i, ret_i, _ = run Engine.Interp in
  let out_b, cyc_b, ret_b, pb = run Engine.Block in
  Alcotest.(check string) "patched output" "P" out_i;
  Alcotest.(check string) "console" out_i out_b;
  Alcotest.(check int64) "cycles" cyc_i cyc_b;
  Alcotest.(check int64) "instret" ret_i ret_b;
  match pb.Platform.engine.Engine.cache with
  | None -> Alcotest.fail "block engine has no cache"
  | Some c -> Alcotest.(check bool) "SMC invalidated" true (Trans_cache.invalidations c > 0)

(* SMC into the interior of a formed superblock trace: a three-block
   loop runs hot enough (40 passes, threshold 16) for the trace tier to
   promote it, then one pass stores over an instruction in a {e
   non-head} constituent block.  The write listener must sever the
   whole trace (not just the patched block), and the remaining passes
   must execute the new bytes — the interpreter-equality check catches
   any stale trace execution, the counters prove a trace really formed
   and really died. *)
let vm_trace_smc () =
  let patched = Instr.Alui (Instr.Add, 2, 2, 100L) in
  let user =
    Asm.assemble ~origin:Abi.user_base
      [
        label "u_entry";
        li r2 0L;
        li r5 40L;
        li r10 10L;
        la r13 "patchme";
        li r9 (Instr.encode patched);
        label "pass";
        addi r2 r2 1L;
        jmp "mid";
        label "mid";
        label "patchme";
        nop;
        addi r2 r2 10L;
        bne r5 r10 "skip";
        sd r9 r13 0L;
        label "skip";
        addi r5 r5 (-1L);
        bne r5 r0 "pass";
        li r1 Abi.sys_exit;
        ecall;
      ]
  in
  let setup = Images.plan ~user () in
  List.iter
    (fun (pname, paging) ->
      let obs_i = run_observed ~engine:Engine.Interp ~paging setup in
      let obs_b, vm = run_observed_vm ~engine:Engine.Block ~paging setup in
      Alcotest.(check string) ("trace SMC " ^ pname) obs_i obs_b;
      match vm.Vm.engine.Engine.cache with
      | None -> Alcotest.fail "block engine has no cache"
      | Some c ->
          Alcotest.(check bool) (pname ^ " trace formed") true
            (Trans_cache.traces_built c > 0);
          Alcotest.(check bool) (pname ^ " trace followed") true
            (Trans_cache.trace_follows c > 0);
          Alcotest.(check bool) (pname ^ " trace severed by interior SMC") true
            (Trans_cache.traces_severed c > 0))
    [ ("nested", Vm.Nested_paging); ("shadow", Vm.Shadow_paging) ]

(* Trace promotion through a forward conditional branch taken on seven
   passes in eight.  The taken side ends in a jalr, so no trace carries
   on from it back into the loop: the trace through the branch keeps
   one side inside, and a pass down the other side leaves the trace and
   dispatches its two blocks through the cache.  Left to the static
   guess (a forward branch falls through), the walker would keep the
   rare fall-through inside and leave on seven passes in eight; the
   block's own exit counts ([hot_taken] > [hot_fall]) must steer it
   along the taken edge, so only the rare passes leave.  The test
   counts cache lookups, the dispatches outside traces.  Boot and the
   guest kernel make the same lookups whatever the loop count, so it
   counts what 400 more passes add. *)
let promote_hotter_direction () =
  let user passes =
    Asm.assemble ~origin:Abi.user_base
      [
        label "u_entry";
        li r2 0L;
        li r3 (Int64.of_int passes);
        li r5 0L;
        la r7 "join";
        label "loop";
        addi r5 r5 1L;
        andi r6 r5 7L;
        bne r6 r0 "hot";
        addi r2 r2 1L;
        jmp "join";
        label "hot";
        addi r4 r4 1L;
        jalr r0 r7 0L;
        label "join";
        addi r3 r3 (-1L);
        bne r3 r0 "loop";
        li r1 Abi.sys_exit;
        ecall;
      ]
  in
  List.iter
    (fun (pname, paging) ->
      let lookups passes =
        let setup = Images.plan ~user:(user passes) () in
        let obs_i = run_observed ~engine:Engine.Interp ~paging setup in
        let obs_b, vm = run_observed_vm ~engine:Engine.Block ~paging setup in
        Alcotest.(check string) (Printf.sprintf "%s %d passes" pname passes) obs_i obs_b;
        match vm.Vm.engine.Engine.cache with
        | None -> Alcotest.fail "block engine has no cache"
        | Some c ->
            Alcotest.(check bool) (pname ^ " trace followed") true
              (Trans_cache.trace_follows c > 0);
            Trans_cache.hits c + Trans_cache.misses c
      in
      (* the 50 rare passes leave the trace: about 100 lookups; a trace
         along the rare side would make about 700 *)
      let left = lookups 440 - lookups 40 in
      if left > 200 then
        Alcotest.failf "%s: %d dispatches outside traces in 400 passes" pname left)
    [ ("nested", Vm.Nested_paging); ("shadow", Vm.Shadow_paging) ];
  (* A trace left through the branch direction it was not built along
     is a side exit.  In these guests the first 64 passes all take one
     side of the branch, so promotion builds the traces along it; the
     last 336 take "hot" on seven passes in eight.  Built along "hot",
     the rare passes leave the traces (about 42); built along the other
     side, which becomes the rare one, the hot passes do (about 294). *)
  let phased ~hot_first =
    Asm.assemble ~origin:Abi.user_base
      ([
         label "u_entry";
         li r2 0L;
         li r3 400L;
         li r5 0L;
         la r7 "join";
         label "loop";
         addi r5 r5 1L;
         andi r6 r5 7L;
         (* r9 = 1 on the first 64 passes, else 0 *)
         Insn (Instr.Alui (Instr.Slt, 9, 5, 65L));
       ]
      @ (if hot_first then
           (* r6 |= -r9: nonzero, so "hot", on the first 64 passes *)
           [ Insn (Instr.Alu (Instr.Sub, 9, 0, 9)); Insn (Instr.Alu (Instr.Or, 6, 6, 9)) ]
         else
           (* r6 &= r9 - 1: zero, so the other side, on the first 64 *)
           [ addi r9 r9 (-1L); Insn (Instr.Alu (Instr.And, 6, 6, 9)) ])
      @ [
          bne r6 r0 "hot";
          addi r2 r2 1L;
          jmp "join";
          label "hot";
          addi r4 r4 1L;
          jalr r0 r7 0L;
          label "join";
          addi r3 r3 (-1L);
          bne r3 r0 "loop";
          li r1 Abi.sys_exit;
          ecall;
        ])
  in
  List.iter
    (fun (pname, paging) ->
      let side_exits ~hot_first =
        let setup = Images.plan ~user:(phased ~hot_first) () in
        let obs_i = run_observed ~engine:Engine.Interp ~paging setup in
        let obs_b, vm = run_observed_vm ~engine:Engine.Block ~paging setup in
        Alcotest.(check string) (Printf.sprintf "%s phased %b" pname hot_first) obs_i obs_b;
        match vm.Vm.engine.Engine.cache with
        | None -> Alcotest.fail "block engine has no cache"
        | Some c -> Trans_cache.trace_side_exits c
      in
      let hot = side_exits ~hot_first:true and rare = side_exits ~hot_first:false in
      Printf.printf "%s trace side exits: built along the rare side %d, the hot side %d\n"
        pname rare hot;
      if rare - hot < 200 then
        Alcotest.failf "%s: side exits %d built along the rare side, %d along the hot side"
          pname rare hot)
    [ ("nested", Vm.Nested_paging); ("shadow", Vm.Shadow_paging) ]

(* The write watch under SMC: the routine's frame is first written as
   plain data (no cached block wants it, so its watch byte clears), then
   called (decoded and cached), then patched and called again.  The
   patch must reach the cache: the engine watches a frame again when it
   caches a block decoded from it. *)
let native_smc_watch () =
  let routine_pa = 0x1000L in
  let encode insn = Instr.encode insn in
  let prog =
    Asm.assemble ~origin:0L
      [
        (* phase 1: write the routine "addi r2 r2 100; jalr r0 r14 0" *)
        li r13 routine_pa;
        li r1 (encode (Instr.Alui (Instr.Add, 2, 2, 100L)));
        sd r1 r13 0L;
        li r1 (encode (Instr.Jalr (0, 14, 0L)));
        sd r1 r13 8L;
        halt;
        (* phase 2: call it, patch it to add 1, call it again *)
        label "phase2";
        li r13 routine_pa;
        li r2 0L;
        jalr r14 r13 0L;
        li r1 (encode (Instr.Alui (Instr.Add, 2, 2, 1L)));
        sd r1 r13 0L;
        jalr r14 r13 0L;
        (* r2 = 100 + 1 = 'e' *)
        outp Uart.data_port r2;
        halt;
      ]
  in
  let run engine =
    let p = Platform.create ~frames:64 ~engine () in
    Platform.load_image p prog;
    let phase entry =
      Platform.boot p ~entry;
      match Platform.run p with
      | Platform.Halted -> ()
      | _ -> Alcotest.fail "SMC watch program did not halt"
    in
    phase 0L;
    Alcotest.(check bool)
      (Engine.kind_name engine ^ ": data-only frame unwatched")
      (engine = Engine.Interp)
      (Phys_mem.watched p.Platform.mem ~ppn:1L);
    phase (Asm.symbol prog "phase2");
    (Platform.console_output p, Platform.cycles p, Platform.instructions_retired p, p)
  in
  let out_i, cyc_i, ret_i, _ = run Engine.Interp in
  let out_b, cyc_b, ret_b, pb = run Engine.Block in
  Alcotest.(check string) "patched output" "e" out_i;
  Alcotest.(check string) "console" out_i out_b;
  Alcotest.(check int64) "cycles" cyc_i cyc_b;
  Alcotest.(check int64) "instret" ret_i ret_b;
  match pb.Platform.engine.Engine.cache with
  | None -> Alcotest.fail "block engine has no cache"
  | Some c ->
      Alcotest.(check bool) "patch invalidated the routine" true
        (Trans_cache.invalidations c > 0)

(* Host allocation per retired guest instruction, over one [step_n] call
   on a nested-paging VM spinning in cpu-spin's loop, after a warm-up
   that boots it into user mode and lets the trace tier form.  The count
   is deterministic, so it pins the allocation-free hot path. *)
let minor_words_per_insn engine =
  let setup = Images.plan ~user:(Workloads.cpu_spin ~iters:1_000_000_000L) () in
  let _, vm = Images.boot ~name:"alloc" ~engine ~paging:Vm.Nested_paging setup in
  let state = vm.Vm.vcpus.(0).Vcpu.state in
  let ctx = Vm.cpu_ctx vm ~vcpu_idx:0 ~now:(fun () -> 0L) in
  let step fuel =
    match vm.Vm.engine.Engine.step_n state ctx ~fuel with
    | _, Cpu.Budget -> true
    | _, Cpu.Exit e -> (
        match Emulate.handle_exit vm ~vcpu_idx:0 ~now:0L e with
        | Emulate.Resume | Emulate.Yielded -> false
        | _ -> Alcotest.fail "cpu-spin stopped during warm-up")
    | _ -> Alcotest.fail "cpu-spin stopped during warm-up"
  in
  (* warm up until a whole call runs without an exit *)
  let rec warm n = if n = 0 then Alcotest.fail "cpu-spin never settled" else if not (step 200_000) then warm (n - 1) in
  warm 1000;
  ignore (step 200_000);
  let i0 = state.Cpu.instret and w0 = Gc.minor_words () in
  if not (step 2_000_000) then Alcotest.fail "cpu-spin exited while measured";
  let words = Gc.minor_words () -. w0 in
  words /. Int64.to_float (Int64.sub state.Cpu.instret i0)

(* Host allocation per retired guest instruction over a whole run of
   [user] under the default engine, exits included: the [step_n] +
   [Emulate.handle_exit] loop the hypervisor runs around each vCPU slice,
   without the scheduler.  Counts are deterministic, so this pins the
   miss path (shadow walks, fills, PT-write emulation and TLB flushes;
   nested 2-D walks) the way the case above pins the hit path. *)
let run_whole ?heap_pages ~paging user measure =
  let setup = Images.plan ?heap_pages ~user () in
  let _, vm = Images.boot ~name:"alloc" ~paging setup in
  let state = vm.Vm.vcpus.(0).Vcpu.state in
  let ctx = Vm.cpu_ctx vm ~vcpu_idx:0 ~now:(fun () -> 0L) in
  let rec go () =
    match vm.Vm.engine.Engine.step_n state ctx ~fuel:100_000 with
    | _, Cpu.Budget -> go ()
    | _, Cpu.Halted -> ()
    | _, Cpu.Exit e -> (
        match Emulate.handle_exit vm ~vcpu_idx:0 ~now:0L e with
        | Emulate.Resume | Emulate.Yielded -> go ()
        | Emulate.Vcpu_halted -> ()
        | Emulate.Became_blocked -> Alcotest.fail "guest blocked")
    | _, Cpu.Waiting -> Alcotest.fail "guest waited"
  in
  measure state ctx go

let run_words_per_insn ?heap_pages ~paging user =
  run_whole ?heap_pages ~paging user (fun state _ go ->
      let i0 = state.Cpu.instret and w0 = Gc.minor_words () in
      go ();
      let words = Gc.minor_words () -. w0 in
      words /. Int64.to_float (Int64.sub state.Cpu.instret i0))

(* Host work of the write watch over the same whole runs: writes that
   reached the listeners, and writes to watched frames that missed every
   listener's range (quiet).  Counts are deterministic, so a listener
   that stops narrowing its answer shows here without a wall clock. *)
let run_deliveries ~paging user =
  run_whole ~paging user (fun _ ctx go ->
      let mem = ctx.Cpu.mem in
      let d0 = Phys_mem.deliveries mem and q0 = Phys_mem.quiet_skips mem in
      go ();
      (Phys_mem.deliveries mem - d0, Phys_mem.quiet_skips mem - q0))

let watch_budget () =
  let churn, churn_quiet =
    run_deliveries ~paging:Vm.Shadow_paging (Workloads.pt_churn ~batch:16 ~count:200 ())
  and syscalls, syscalls_quiet =
    run_deliveries ~paging:Vm.Shadow_paging (Workloads.syscall_loop ~count:2000L)
  in
  Printf.printf
    "write-watch deliveries (quiet skips): shadow pt_churn %d (%d), shadow syscall_loop %d \
     (%d)\n"
    churn churn_quiet syscalls syscalls_quiet;
  Alcotest.(check bool) "stores beside code happen" true (churn_quiet > 0 && syscalls_quiet > 0);
  (* 6034 and 30030 deliveries while every write to a frame holding
     code reached the listeners, 23 and 17 since a write beside the
     frame's blocks is quiet *)
  Alcotest.(check bool) (Printf.sprintf "shadow pt_churn delivers %d <= 60" churn) true
    (churn <= 60);
  Alcotest.(check bool) (Printf.sprintf "shadow syscall_loop delivers %d <= 60" syscalls) true
    (syscalls <= 60)

let alloc_budget () =
  let block = minor_words_per_insn Engine.Block
  and interp = minor_words_per_insn Engine.Interp in
  let churn =
    run_words_per_insn ~paging:Vm.Shadow_paging (Workloads.pt_churn ~batch:16 ~count:200 ())
  and syscalls = run_words_per_insn ~paging:Vm.Shadow_paging (Workloads.syscall_loop ~count:2000L)
  and memwalk =
    run_words_per_insn ~heap_pages:96 ~paging:Vm.Nested_paging
      (Workloads.memwalk ~pages:96 ~iters:4000 ~write:true)
  in
  Printf.printf
    "minor words per instruction: block %.4f, interp %.2f, shadow pt_churn %.2f, shadow \
     syscall_loop %.2f, nested memwalk %.2f\n"
    block interp churn syscalls memwalk;
  Alcotest.(check bool) (Printf.sprintf "trace tier allocates %.4f <= 0.05" block) true
    (block <= 0.05);
  Alcotest.(check bool) (Printf.sprintf "interpreter allocates %.2f <= 40" interp) true
    (interp <= 40.0);
  (* shadow paging, exits included: 19.0 and 14.2 words per instruction
     since the miss path stopped allocating (34.2 and 17.1 before), 16.6
     and 12.7 since the trace exits left [Trace_ir.exec]'s closures, 14.9
     and 10.7 since one micro-TLB serves fetches and data, takes an
     immediate vpn and fills in place, 9.3 and 10.1 since traces
     translate a micro-TLB miss in place (14.4 and 10.4 before) *)
  Alcotest.(check bool) (Printf.sprintf "shadow pt_churn allocates %.2f <= 12" churn) true
    (churn <= 12.0);
  Alcotest.(check bool) (Printf.sprintf "shadow syscall_loop allocates %.2f <= 12" syscalls)
    true (syscalls <= 12.0);
  (* nested paging, ha-migrate's guest: every access misses the 64-entry
     TLB; 26.2 words per instruction since the 2-D walk went through
     [Page_table.walk] (43.8 before), 23.8 since the trace exits left
     [Trace_ir.exec]'s closures, 20.9 since one micro-TLB serves fetches
     and data, 10.8 since traces translate a micro-TLB miss in place
     (20.1 before) *)
  Alcotest.(check bool) (Printf.sprintf "nested memwalk allocates %.2f <= 14" memwalk) true
    (memwalk <= 14.0)

(* Random programs that also store encoded instructions over a patch
   slab inside their own (RWX-mapped) code page, then fall through and
   execute it — user-mode SMC under every engine/paging combination. *)
type smc_op = Plain of op | Smc of int * int * int64  (* slot, rd, imm *)

let gen_smc_op =
  let open QCheck2.Gen in
  frequency
    [
      (4, map (fun o -> Plain o) gen_op);
      ( 1,
        map
          (fun ((slot, rd), imm) -> Smc (slot, rd, Int64.of_int imm))
          (pair (pair (int_range 0 7) gen_reg) (int_range (-64) 64)) );
    ]

let gen_smc_program =
  let open QCheck2.Gen in
  pair (array_size (return 10) (map Int64.of_int int)) (list_size (int_range 5 50) gen_smc_op)

let compile_smc (seeds, ops) =
  let seed_items = List.mapi (fun i v -> li (i + 2) v) (Array.to_list seeds) in
  let op_items = function
    | Plain (Alu3 (o, rd, rs1, rs2)) -> [ Insn (Instr.Alu (o, rd, rs1, rs2)) ]
    | Plain (Alui (o, rd, rs1, imm)) -> [ Insn (Instr.Alui (o, rd, rs1, imm)) ]
    | Plain (Store (src, off)) -> [ Insn (Instr.Store { src; base = 15; off; width = Instr.W64 }) ]
    | Plain (Load (rd, off)) -> [ Insn (Instr.Load { rd; base = 15; off; width = Instr.W64 }) ]
    | Smc (slot, rd, imm) ->
        [
          li r1 (Instr.encode (Instr.Alui (Instr.Add, rd, rd, imm)));
          sd r1 r13 (Int64.of_int (slot * 8));
        ]
  in
  let fold =
    [ mv r12 r2 ]
    @ List.concat (List.map (fun r -> [ xor r12 r12 r ]) [ 3; 4; 5; 6; 7; 8; 9; 10; 11 ])
  in
  let print_digest =
    [
      li r6 16L;
      label "d_loop";
      srli r7 r12 60L;
      andi r7 r7 15L;
      addi r2 r7 97L;
      li r1 Abi.sys_putchar;
      ecall;
      slli r12 r12 4L;
      addi r6 r6 (-1L);
      bne r6 r0 "d_loop";
    ]
  in
  Asm.assemble ~origin:Abi.user_base
    ([ label "u_entry"; li r14 0x0014_4000L; li r15 Abi.heap_base; la r13 "patch" ]
    @ seed_items
    @ List.concat_map op_items ops
    (* the patch slab: nops the Smc ops overwrite, executed on the way
       to the digest so patched instructions feed the output *)
    @ [ label "patch" ]
    @ List.init 8 (fun _ -> nop)
    @ fold @ print_digest
    @ [ li r1 Abi.sys_exit; ecall ])

let engine_smc_prop =
  QCheck2.Test.make ~count:30
    ~name:"interp = block for random programs with self-modifying code" gen_smc_program
    (fun prog ->
      let user = compile_smc prog in
      let setup = Images.plan ~heap_pages:1 ~user () in
      let native = run_native ~engine:Engine.Interp setup in
      String.length native = 16
      && native = run_native ~engine:Engine.Block setup
      && run_observed ~engine:Engine.Interp ~paging:Vm.Nested_paging setup
         = run_observed ~engine:Engine.Block ~paging:Vm.Nested_paging setup
      && run_observed ~engine:Engine.Interp ~paging:Vm.Shadow_paging setup
         = run_observed ~engine:Engine.Block ~paging:Vm.Shadow_paging setup)

(* Random block graphs: the program loops four times over code spread
   across two pages (a nop sled keeps them on distinct frames), with
   random conditional splits carving each page into several blocks.
   Patch ops overwrite a nop slab either in their own page or in the
   other one — SMC stores landing in both the predecessor and the
   successor pages of hot block-to-block transfers, every pass, after
   the loop is hot.  The digest only matches the interpreter if
   invalidation keeps stale successors unreachable. *)
type chain_op =
  | C_plain of op
  | C_patch of bool * int * int * int64  (* into other page?, slot, rd, imm *)
  | C_split of int  (* conditional block split keyed on a seed register *)

let gen_chain_op =
  let open QCheck2.Gen in
  frequency
    [
      (4, map (fun o -> C_plain o) gen_op);
      ( 2,
        map
          (fun ((far, slot), (rd, imm)) -> C_patch (far, slot, rd, Int64.of_int imm))
          (pair (pair bool (int_range 0 7)) (pair gen_reg (int_range (-64) 64))) );
      (2, map (fun r -> C_split r) gen_reg);
    ]

let gen_chain_program =
  let open QCheck2.Gen in
  pair
    (array_size (return 10) (map Int64.of_int int))
    (pair (list_size (int_range 3 25) gen_chain_op) (list_size (int_range 3 25) gen_chain_op))

let compile_chain ?(passes = 4) (seeds, (ops_a, ops_b)) =
  let seed_items = List.mapi (fun i v -> li (i + 2) v) (Array.to_list seeds) in
  (* [own]/[other] are the registers holding this page's and the other
     page's patch-slab base (r13 = slab_a, r12 = slab_b). *)
  let op_items tag own other i = function
    | C_plain (Alu3 (o, rd, rs1, rs2)) -> [ Insn (Instr.Alu (o, rd, rs1, rs2)) ]
    | C_plain (Alui (o, rd, rs1, imm)) -> [ Insn (Instr.Alui (o, rd, rs1, imm)) ]
    | C_plain (Store (src, off)) -> [ Insn (Instr.Store { src; base = 15; off; width = Instr.W64 }) ]
    | C_plain (Load (rd, off)) -> [ Insn (Instr.Load { rd; base = 15; off; width = Instr.W64 }) ]
    | C_patch (far, slot, rd, imm) ->
        [
          li r1 (Instr.encode (Instr.Alui (Instr.Add, rd, rd, imm)));
          sd r1 (if far then other else own) (Int64.of_int (slot * 8));
        ]
    | C_split r ->
        let l = Printf.sprintf "%s%d" tag i in
        [ beq r r0 l; addi r r 1L; label l ]
  in
  let ops tag own other l = List.concat (List.mapi (op_items tag own other) l) in
  let slab = List.init 8 (fun _ -> nop) in
  (* a full page of nops between the two code groups guarantees they
     land on different frames whatever the surrounding code sizes *)
  let sled = List.init (Velum_isa.Arch.page_size / Velum_isa.Arch.instr_bytes) (fun _ -> nop) in
  let fold =
    [ mv r12 r2 ]
    @ List.concat (List.map (fun r -> [ xor r12 r12 r ]) [ 3; 4; 5; 6; 7; 8; 9; 10; 11 ])
  in
  let print_digest =
    [
      li r6 16L;
      label "d_loop";
      srli r7 r12 60L;
      andi r7 r7 15L;
      addi r2 r7 97L;
      li r1 Abi.sys_putchar;
      ecall;
      slli r12 r12 4L;
      addi r6 r6 (-1L);
      bne r6 r0 "d_loop";
    ]
  in
  Asm.assemble ~origin:Abi.user_base
    ([
       label "u_entry";
       li r14 0x0014_4000L;
       li r15 Abi.heap_base;
       la r13 "slab_a";
       la r12 "slab_b";
     ]
    @ seed_items
    (* the pass counter lives in the heap past the random Store/Load
       slots — every architectural register is spoken for *)
    @ [ li r1 (Int64.of_int passes); sd r1 r15 1024L; label "pass" ]
    @ ops "ca" r13 r12 ops_a
    @ [ label "slab_a" ] @ slab
    @ [ jmp "b_entry" ]
    @ [
        label "a_ret";
        ld r1 r15 1024L;
        addi r1 r1 (-1L);
        sd r1 r15 1024L;
        bne r1 r0 "pass";
        jmp "finish";
      ]
    @ sled
    @ [ label "b_entry" ]
    @ ops "cb" r12 r13 ops_b
    @ [ label "slab_b" ] @ slab
    @ [ jmp "a_ret"; label "finish" ]
    @ fold @ print_digest
    @ [ li r1 Abi.sys_exit; ecall ])

let engine_chain_smc_prop =
  QCheck2.Test.make ~count:20
    ~name:"interp = block for SMC into chained predecessor/successor pages"
    gen_chain_program
    (fun prog ->
      let user = compile_chain prog in
      let setup = Images.plan ~heap_pages:1 ~user () in
      let native = run_native ~engine:Engine.Interp setup in
      String.length native = 16
      && native = run_native ~engine:Engine.Block setup
      && run_observed ~engine:Engine.Interp ~paging:Vm.Nested_paging setup
         = run_observed ~engine:Engine.Block ~paging:Vm.Nested_paging setup
      && run_observed ~engine:Engine.Interp ~paging:Vm.Shadow_paging setup
         = run_observed ~engine:Engine.Block ~paging:Vm.Shadow_paging setup)

(* The same random block graphs, run long enough (24 passes vs the
   promotion threshold of 16) that hot heads get promoted into
   superblock traces {e before} the later passes' patch stores land —
   randomized SMC into interior frames of formed traces.  The digest
   and full observable state only match the interpreter if severing a
   constituent kills the whole trace (no stale multi-block execution),
   and the nested block run must actually have compiled traces. *)
let engine_trace_smc_prop =
  QCheck2.Test.make ~count:15
    ~name:"interp = block for SMC into interior blocks of formed traces"
    gen_chain_program
    (fun prog ->
      let user = compile_chain ~passes:24 prog in
      let setup = Images.plan ~heap_pages:1 ~user () in
      let obs_i = run_observed ~engine:Engine.Interp ~paging:Vm.Nested_paging setup in
      let obs_b, vm = run_observed_vm ~engine:Engine.Block ~paging:Vm.Nested_paging setup in
      let traced =
        match vm.Vm.engine.Engine.cache with
        | Some c -> Trans_cache.traces_built c > 0
        | None -> false
      in
      obs_i = obs_b && traced
      && run_observed ~engine:Engine.Interp ~paging:Vm.Shadow_paging setup
         = run_observed ~engine:Engine.Block ~paging:Vm.Shadow_paging setup)

(* The random ALU/heap sweep, replayed on the block engine. *)
let engine_differential_prop =
  QCheck2.Test.make ~count:25 ~name:"block engine matches native/shadow/nested sweep"
    gen_program
    (fun prog ->
      let user = compile prog in
      let setup = Images.plan ~heap_pages:1 ~user () in
      let native = run_native ~engine:Engine.Interp setup in
      String.length native = 16
      && native = run_native ~engine:Engine.Block setup
      && native = run_virt ~engine:Engine.Block ~paging:Vm.Shadow_paging ~pv:false setup
      && native = run_virt ~engine:Engine.Block ~paging:Vm.Nested_paging ~pv:false setup)

(* The random ALU/heap bodies, run 40 laps (past
   [Trans_cache.promote_threshold]) so that their ops execute inside
   superblock traces rather than one at a time: the whole observable
   state, console digest, instret and cycles included, must match the
   interpreter under both paging modes, and the block runs must really
   have built traces. *)
let engine_trace_loop_prop =
  QCheck2.Test.make ~count:25 ~name:"interp = block for random programs looped into traces"
    gen_program
    (fun prog ->
      let setup = Images.plan ~heap_pages:1 ~user:(compile ~laps:40 prog) () in
      List.for_all
        (fun paging ->
          let obs_b, vm = run_observed_vm ~engine:Engine.Block ~paging setup in
          run_observed ~engine:Engine.Interp ~paging setup = obs_b
          &&
          match vm.Vm.engine.Engine.cache with
          | Some c -> Trans_cache.traces_built c > 0
          | None -> false)
        [ Vm.Nested_paging; Vm.Shadow_paging ])

(* ---------------- in-trace translation ----------------

   A trace load or store that misses the micro-TLB calls the VM's own
   translator at that op: a RAM translation fills the micro-TLB and the
   trace goes on with the walk's cycles added; a fault or a device stops
   the trace there with the interpreter's own outcome; a walk that
   evicts the code page's TLB entry ends the trace at the next op, so
   that the next fetch walks as the interpreter's does.  TLB misses are
   in the oracle ([observe_vm]): a translation made twice would count
   its walk twice. *)

(* Heap accesses spread over [wide_pages] pages, then a sweep that loads
   (into r0, so the digest does not see it) from the first 40 of them:
   more pages than the micro-TLB's 32 direct-mapped data slots, so pages
   32 apart evict each other on every lap. *)
let wide_pages = 48

let gen_wide_op =
  let open QCheck2.Gen in
  let wide_off =
    map2
      (fun page slot -> Int64.of_int ((page * Arch.page_size) + (slot * 8)))
      (int_range 0 (wide_pages - 1))
      (int_range 0 7)
  in
  frequency
    [
      (2, gen_op);
      (1, map2 (fun r off -> Store (r, off)) gen_reg wide_off);
      (1, map2 (fun r off -> Load (r, off)) gen_reg wide_off);
    ]

let wide_sweep = List.init 40 (fun page -> Load (0, Int64.of_int (page * Arch.page_size)))

let gen_wide_program =
  let open QCheck2.Gen in
  map
    (fun (seeds, ops) -> (seeds, ops @ wide_sweep))
    (pair (array_size (return 10) (map Int64.of_int int)) (list_size (int_range 5 40) gen_wide_op))

(* Everything a bare-metal run shows: traces do not run there, so this
   leg checks the wrapped translations of the block path. *)
let native_observed ~engine setup =
  let p = Images.boot_native ~engine setup in
  let outcome =
    match Platform.run ~budget:100_000_000L p with Platform.Halted -> "halted" | _ -> "stuck"
  in
  Printf.sprintf "%s %s pc=%Lx instret=%Ld cycles=%Ld" outcome (Platform.console_output p)
    (Cpu.pc p.Platform.cpu) (Platform.instructions_retired p) (Platform.cycles p)

(* The configurations an in-trace translation must agree in: both
   paging modes, with the default 64-entry TLB and with 4 entries, where
   nearly every data walk evicts the code page's entry. *)
let trace_xlate_configs =
  [
    ("nested", Vm.Nested_paging, None);
    ("shadow", Vm.Shadow_paging, None);
    ("nested/tlb4", Vm.Nested_paging, Some 4);
    ("shadow/tlb4", Vm.Shadow_paging, Some 4);
  ]

let engine_wide_trace_prop =
  QCheck2.Test.make ~count:12
    ~name:"interp = block for looped programs over more pages than the micro-TLB holds"
    gen_wide_program
    (fun prog ->
      let setup = Images.plan ~heap_pages:wide_pages ~user:(compile ~laps:40 prog) () in
      native_observed ~engine:Engine.Interp setup = native_observed ~engine:Engine.Block setup
      && List.for_all
           (fun (_, paging, tlb_size) ->
             let obs_b, vm = run_observed_vm ?tlb_size ~engine:Engine.Block ~paging setup in
             run_observed ?tlb_size ~engine:Engine.Interp ~paging setup = obs_b
             && Vm.traces_built vm > 0)
           trace_xlate_configs)

(* pt_churn with a load before each store in its touch loop: under
   shadow paging the load of a freshly mapped page needs a shadow fill
   and the store another, both from inside the touch loop's trace, and
   the kernel's map and unmap loops store to shadowed page-table pages
   (PT-write exits) from inside theirs. *)
let pt_touch ~count =
  let va = 0x0200_0000L and batch = 16L in
  Asm.assemble ~origin:Abi.user_base
    [
      label "u_entry";
      li r6 (Int64.of_int count);
      label "u_loop";
      li r1 Abi.sys_map;
      li r2 va;
      li r3 batch;
      ecall;
      li r7 va;
      li r8 batch;
      label "u_touch";
      ld r11 r7 0L;
      add r12 r12 r11;
      sd r8 r7 0L;
      addi r7 r7 4096L;
      addi r8 r8 (-1L);
      bne r8 r0 "u_touch";
      li r1 Abi.sys_unmap;
      li r2 va;
      li r3 batch;
      ecall;
      addi r6 r6 (-1L);
      bne r6 r0 "u_loop";
      li r1 Abi.sys_exit;
      ecall;
    ]

(* Shadow fills and PT writes from inside traces ([pt_touch]), and the
   emulated block device's status poll, an MMIO load inside the
   kernel's polling-loop trace, in every configuration of
   [trace_xlate_configs]; the block runs must have followed traces. *)
let in_trace_translation () =
  List.iter
    (fun (name, setup) ->
      List.iter
        (fun (cname, paging, tlb_size) ->
          let what = name ^ "/" ^ cname in
          let obs_i = run_observed ?tlb_size ~engine:Engine.Interp ~paging setup in
          let obs_b, vm = run_observed_vm ?tlb_size ~engine:Engine.Block ~paging setup in
          Alcotest.(check string) what obs_i obs_b;
          match vm.Vm.engine.Engine.cache with
          | None -> Alcotest.fail "block engine has no cache"
          | Some c ->
              Alcotest.(check bool) (what ^ " traces followed") true
                (Trans_cache.trace_follows c > 0))
        trace_xlate_configs)
    [
      ("pt-touch", Images.plan ~user:(pt_touch ~count:40) ());
      ( "blk",
        Images.plan ~heap_pages:1 ~user:(Workloads.blk_read ~sector:0 ~count:1 ~reps:40) () );
    ]

(* The block engine's coherence hook is its own: creating and loading a
   VM registers no write listener on host memory, the first inserted
   block registers exactly one, and destroying the VM removes it. *)
let hook_lifecycle () =
  let setup = Images.plan ~user:(Workloads.cpu_spin ~iters:200L) () in
  let host = Host.create ~frames:(setup.Images.frames + 1024) () in
  let hyp = Hypervisor.create ~host () in
  let mem = host.Host.mem in
  let before = Phys_mem.listener_count mem in
  let vm = Images.create_vm hyp ~name:"hook" setup in
  Alcotest.(check bool) "default engine is the block engine" true
    (Vm.engine_kind vm = Engine.Block);
  Alcotest.(check int) "created and loaded: no listener" before (Phys_mem.listener_count mem);
  ignore (Hypervisor.run hyp ~budget:10_000L);
  Alcotest.(check int) "first blocks: one listener" (before + 1)
    (Phys_mem.listener_count mem);
  (match Hypervisor.run hyp ~budget:500_000_000L with
  | Hypervisor.All_halted -> ()
  | _ -> Alcotest.fail "spin did not halt");
  Alcotest.(check int) "still one after the run" (before + 1) (Phys_mem.listener_count mem);
  Vm.destroy vm;
  Alcotest.(check int) "destroy removes it" before (Phys_mem.listener_count mem)

(* Drop the engine-local gauges from a fleet report's per-VM monitor
   JSON: [engine.*], [dtlb.*] and [tlb.hits] count work the block engine
   skips, so they differ between engines by design — the names ci.sh's
   engine-equivalence stage filters from [velum run].  [tlb.misses],
   [tlb.evictions] and [tlb.flushes] are lockstep and stay. *)
let strip_engine_gauges report =
  let local key =
    List.exists
      (fun prefix -> String.starts_with ~prefix key)
      [ "engine."; "dtlb."; "tlb.hits" ]
  in
  let n = String.length report in
  let b = Buffer.create n in
  let rec go i =
    if i < n then
      if report.[i] <> '"' then begin
        Buffer.add_char b report.[i];
        go (i + 1)
      end
      else
        let j = String.index_from report (i + 1) '"' in
        if j + 1 < n && report.[j + 1] = ':' && local (String.sub report (i + 1) (j - i - 1))
        then begin
          (* skip the value and its separator *)
          let k = ref (j + 2) in
          while !k < n && report.[!k] <> ',' && report.[!k] <> '}' do
            incr k
          done;
          go (if !k < n && report.[!k] = ',' then !k + 1 else !k)
        end
        else begin
          Buffer.add_string b (String.sub report i (j - i + 1));
          go (j + 1)
        end
  in
  go 0;
  Buffer.contents b

(* The E23 fabric cell, small: every VM forced onto the reference
   interpreter, then on the default engine.  The fleet report (but for
   its engine-local gauges) and every reply latency must be
   identical. *)
let fabric_fleet_lockstep () =
  let module F = Velum_cluster.Fabric in
  let module P = Velum_cluster.Parallel in
  let shape = { F.backends = 2; clients = 2; requests = 6; batch = 2; service = 150 } in
  let run force =
    let hosts = 2 in
    let cells = Array.make hosts None in
    let mk_vms h =
      List.map
        (fun sp -> match force with Some engine -> { sp with P.engine } | None -> sp)
        (F.mk_vms shape h)
    in
    let r =
      P.run ~domains:1
        (P.config ~quantum:400_000L ~rounds:16 ~seed:1L ~hosts
           ~wire:(fun i hyp -> cells.(i) <- Some (F.wire shape ~cell:i hyp))
           ~mk_vms ())
    in
    let latencies =
      Array.to_list cells
      |> List.concat_map (fun (c : F.cell option) -> (Option.get c).F.latencies)
    in
    (strip_engine_gauges r.P.report, latencies)
  in
  let report_i, lat_i = run (Some Engine.Interp) in
  let report_b, lat_b = run None in
  Alcotest.(check bool) "replies measured" true (lat_i <> []);
  Alcotest.(check string) "fleet report" report_i report_b;
  Alcotest.(check (list int)) "latencies" lat_i lat_b

let () =
  Alcotest.run "differential"
    [
      ( "differential",
        [
          Alcotest.test_case "fixed corpus" `Quick fixed_corpus;
          QCheck_alcotest.to_alcotest differential_prop;
        ] );
      ( "engines",
        [
          Alcotest.test_case "lockstep on all workloads" `Quick engine_lockstep;
          Alcotest.test_case "lockstep with traces on ENGINE workloads" `Quick
            engine_trace_workloads;
          Alcotest.test_case "exit sequences identical" `Quick exit_sequences;
          Alcotest.test_case "fetch from a page that is not executable" `Quick nx_page_fetch;
          Alcotest.test_case "native self-modifying code" `Quick native_smc;
          Alcotest.test_case "SMC re-watches a data-only frame" `Quick native_smc_watch;
          Alcotest.test_case "allocation per instruction" `Quick alloc_budget;
          Alcotest.test_case "write-watch deliveries" `Quick watch_budget;
          Alcotest.test_case "native cache hit path" `Quick native_cache_hits;
          Alcotest.test_case "SMC into a hot two-block loop" `Quick native_hot_loop_smc;
          Alcotest.test_case "promotion follows the hotter branch direction" `Quick
            promote_hotter_direction;
          Alcotest.test_case "translation inside traces: fills, PT writes, MMIO" `Quick
            in_trace_translation;
          Alcotest.test_case "trace severed by interior SMC" `Quick vm_trace_smc;
          Alcotest.test_case "coherence hook lifecycle" `Quick hook_lifecycle;
          Alcotest.test_case "fabric fleet: interp = default engine" `Quick
            fabric_fleet_lockstep;
          QCheck_alcotest.to_alcotest engine_smc_prop;
          QCheck_alcotest.to_alcotest engine_chain_smc_prop;
          QCheck_alcotest.to_alcotest engine_trace_smc_prop;
          QCheck_alcotest.to_alcotest engine_differential_prop;
          QCheck_alcotest.to_alcotest engine_trace_loop_prop;
          QCheck_alcotest.to_alcotest engine_wide_trace_prop;
        ] );
    ]
