open Velum_isa
open Velum_machine

type action = Resume | Yielded | Became_blocked | Vcpu_halted

(* Cycles charged to copy a page when breaking copy-on-write. *)
let cow_copy_cycles = Arch.page_size / 8 * 2

let trace_event (vm : Vm.t) ~now ev =
  match vm.Vm.trace with
  | Some tr -> Trace.record tr ~vm_id:vm.Vm.id ~name:vm.Vm.name ~at:now ev
  | None -> ()

let charge ?(detail = 0L) (vm : Vm.t) (vcpu : Vcpu.t) ~now kind cycles =
  vcpu.Vcpu.vmm_cycles <- Int64.add vcpu.Vcpu.vmm_cycles (Int64.of_int cycles);
  Monitor.bump vm.Vm.monitor kind;
  Monitor.add_cycles vm.Vm.monitor kind cycles;
  trace_event vm ~now (Trace.Exit { kind; cost = cycles; detail })

let ext_irq_pending (vm : Vm.t) =
  Bus.pending_irq vm.Vm.bus

(* The cost of getting from the guest's sensitive instruction into VMM
   code and back, for the caller to charge under the exit's own kind.
   Under trap-and-emulate this is a full world switch.  Under binary
   translation, a sensitive site is translated once (and remembered by
   guest PC); afterwards the translated sequence emulates inline at a
   fraction of the cost.  The one-off translation is charged here, as a
   [E_bt_translate] exit of its own, and the switch itself then costs
   nothing more, so each cycle lands in exactly one kind.  Device
   accesses and hidden page faults don't go through here — they are
   real exits in both modes. *)
let world_switch_cost (vm : Vm.t) (vcpu : Vcpu.t) ~now =
  let cost = vm.Vm.host.Host.cost in
  match vm.Vm.exec_mode with
  | Vm.Trap_emulate -> cost.Cost_model.vmexit
  | Vm.Binary_translation ->
      let pc = Cpu.pc vcpu.Vcpu.state in
      if Velum_util.Keytbl.I64.mem vm.Vm.bt_cache pc then cost.Cost_model.bt_exec
      else begin
        Velum_util.Keytbl.I64.replace vm.Vm.bt_cache pc ();
        charge vm vcpu ~now ~detail:pc Monitor.E_bt_translate cost.Cost_model.bt_translate;
        0
      end

let irq_deliverable (vm : Vm.t) (vcpu : Vcpu.t) ~now =
  Cpu.interrupt_pending vcpu.Vcpu.state ~now ~ext_irq:(ext_irq_pending vm) <> None

let maybe_inject_irq (vm : Vm.t) ~vcpu_idx ~now =
  let vcpu = vm.Vm.vcpus.(vcpu_idx) in
  match Cpu.interrupt_pending vcpu.Vcpu.state ~now ~ext_irq:(ext_irq_pending vm) with
  | Some cause ->
      Cpu.deliver_trap vcpu.Vcpu.state ~cause ~tval:0L;
      let cost = vm.Vm.host.Host.cost.Cost_model.irq_inject in
      vcpu.Vcpu.vmm_cycles <- Int64.add vcpu.Vcpu.vmm_cycles (Int64.of_int cost);
      Monitor.irq_injected vm.Vm.monitor;
      trace_event vm ~now (Trace.Irq_inject { cost });
      true
  | None -> false

(* Reflect a trap into the guest: architectural trap entry on the
   virtual state.  BT translates the trapping site (e.g. the ecall) into
   a direct jump to the guest handler, so reflection gets cheap once the
   site is hot. *)
let reflect (vm : Vm.t) (vcpu : Vcpu.t) ~now kind ~cause ~tval =
  let cost = vm.Vm.host.Host.cost in
  let switch = world_switch_cost vm vcpu ~now in
  Cpu.deliver_trap vcpu.Vcpu.state ~cause ~tval;
  charge vm vcpu ~now ~detail:tval kind (switch + cost.Cost_model.emul_instr)

(* Virtual CSR semantics. *)
let vcsr_read (vm : Vm.t) (vcpu : Vcpu.t) ~now csr =
  let s = vcpu.Vcpu.state in
  match csr with
  | Arch.Time -> now
  | Arch.Vmid -> Int64.of_int (vm.Vm.id + 1)
  | Arch.Sip ->
      let v =
        if Cpu.timer_pending s ~now then
          Velum_util.Bitops.set_bit 0L Arch.irq_timer true
        else 0L
      in
      if ext_irq_pending vm then Velum_util.Bitops.set_bit v Arch.irq_external true else v
  | c -> Cpu.get_csr s c

let illegal_of insn = Instr.encode insn

let handle_privileged (vm : Vm.t) ~vcpu_idx ~now insn =
  let vcpu = vm.Vm.vcpus.(vcpu_idx) in
  let s = vcpu.Vcpu.state in
  let cost = vm.Vm.host.Host.cost in
  let illegal =
    (* the virtual machine's *user* code ran a privileged instruction,
       or its kernel wrote a read-only CSR *)
    s.Cpu.mode = Arch.User
    || match insn with Instr.Csrw (csr, _) -> Arch.csr_read_only csr | _ -> false
  in
  if illegal then begin
    (* the guest kernel gets the illegal-instruction trap *)
    reflect vm vcpu ~now Monitor.E_guest_trap ~cause:Arch.Illegal_instruction
      ~tval:(illegal_of insn);
    Resume
  end
  else
    let base = world_switch_cost vm vcpu ~now + cost.Cost_model.emul_instr in
    let done_ ?detail kind extra =
      Cpu.advance_pc s;
      charge vm vcpu ~now ?detail kind (base + extra);
      Resume
    in
    match insn with
    | Instr.Csrr (rd, csr) ->
        Cpu.set_reg s rd (vcsr_read vm vcpu ~now csr);
        done_ Monitor.E_csr 0
    | Instr.Csrw (csr, rs1) ->
        Cpu.set_csr s csr (Cpu.get_reg s rs1);
        if csr = Arch.Satp then Vm.flush_vcpu_tlb vm ~vcpu_idx;
        done_ Monitor.E_csr 0
    | Instr.Sret ->
        Cpu.apply_sret s;
        charge vm vcpu ~now Monitor.E_sret base;
        Resume
    | Instr.Sfence ->
        Vm.flush_vcpu_tlb vm ~vcpu_idx;
        done_ Monitor.E_sfence 0
    | Instr.Wfi ->
        Cpu.advance_pc s;
        charge vm vcpu ~now Monitor.E_wfi base;
        if irq_deliverable vm vcpu ~now then Resume
        else begin
          Vcpu.block vcpu;
          Became_blocked
        end
    | Instr.In (rd, port) ->
        let v =
          if port = Velum_devices.Uart.data_port then
            Velum_devices.Uart.read_reg vm.Vm.uart Velum_devices.Uart.reg_data
          else if port = Velum_devices.Uart.status_port then
            Velum_devices.Uart.read_reg vm.Vm.uart Velum_devices.Uart.reg_status
          else 0L
        in
        Cpu.set_reg s rd v;
        trace_event vm ~now
          (Trace.Device_io { write = false; addr = Int64.of_int port });
        done_ ~detail:(Int64.of_int port) Monitor.E_port_io cost.Cost_model.port_io
    | Instr.Out (port, rs1) ->
        if port = Velum_devices.Uart.data_port then
          Velum_devices.Uart.write_reg vm.Vm.uart Velum_devices.Uart.reg_data
            (Cpu.get_reg s rs1);
        trace_event vm ~now
          (Trace.Device_io { write = true; addr = Int64.of_int port });
        done_ ~detail:(Int64.of_int port) Monitor.E_port_io cost.Cost_model.port_io
    | Instr.Halt ->
        vcpu.Vcpu.runstate <- Vcpu.Halted;
        charge vm vcpu ~now Monitor.E_halt base;
        Vcpu_halted
    | _ ->
        (* Non-privileged instructions never exit as X_privileged. *)
        assert false

(* Emulate the MMIO access of the instruction at the guest PC (shadow
   paging funnels device touches through page faults). *)
let emulate_mmio_insn (vm : Vm.t) ~vcpu_idx ~now ~access ~gpa =
  let vcpu = vm.Vm.vcpus.(vcpu_idx) in
  let s = vcpu.Vcpu.state in
  let cost = vm.Vm.host.Host.cost in
  Bus.tick vm.Vm.bus now;
  match Option.bind (Vm.read_guest_va vm ~vcpu_idx (Cpu.pc s)) Instr.decode with
  | Some (Instr.Load { rd; width; _ }) ->
      let v = Option.value (Bus.read vm.Vm.bus gpa width) ~default:0L in
      Cpu.set_reg s rd v;
      Cpu.advance_pc s;
      trace_event vm ~now (Trace.Device_io { write = false; addr = gpa });
      charge vm vcpu ~now ~detail:gpa Monitor.E_mmio
        (cost.Cost_model.vmexit + cost.Cost_model.emul_instr + cost.Cost_model.mmio_device);
      Resume
  | Some (Instr.Store { src; width; _ }) ->
      ignore (Bus.write vm.Vm.bus gpa width (Cpu.get_reg s src));
      Cpu.advance_pc s;
      trace_event vm ~now (Trace.Device_io { write = true; addr = gpa });
      charge vm vcpu ~now ~detail:gpa Monitor.E_mmio
        (cost.Cost_model.vmexit + cost.Cost_model.emul_instr + cost.Cost_model.mmio_device);
      Resume
  | Some _ | None ->
      reflect vm vcpu ~now Monitor.E_guest_trap
        ~cause:(Arch.fault_cause access `Access) ~tval:gpa;
      Resume

(* Host-level page-fault service: the guest never sees these. *)
let handle_host_fault (vm : Vm.t) ~vcpu_idx ~now ~gfn ~access =
  let vcpu = vm.Vm.vcpus.(vcpu_idx) in
  let cost = vm.Vm.host.Host.cost in
  let base = cost.Cost_model.vmexit in
  if gfn < 0L then begin
    charge vm vcpu ~now Monitor.E_shadow_fill base;
    Resume
  end
  else
    match P2m.get vm.Vm.p2m gfn with
    | P2m.Swapped _ -> (
        match Vm.resolve_read vm gfn with
        | Some _ ->
            Vm.flush_all_tlbs vm;
            charge vm vcpu ~now ~detail:gfn Monitor.E_swap_in (base + Host.swap_cost_cycles);
            Resume
        | None ->
            reflect vm vcpu ~now Monitor.E_guest_trap
              ~cause:(Arch.fault_cause access `Access) ~tval:0L;
            Resume)
    | P2m.Remote -> (
        match Vm.resolve_read vm gfn with
        | Some _ ->
            Vm.flush_all_tlbs vm;
            charge vm vcpu ~now ~detail:gfn Monitor.E_remote_fetch
              (base + vm.Vm.remote_fault_cycles);
            Resume
        | None ->
            reflect vm vcpu ~now Monitor.E_guest_trap
              ~cause:(Arch.fault_cause access `Access) ~tval:0L;
            Resume)
    | P2m.Present { writable = false; cow = true; _ } ->
        ignore (Vm.resolve_write vm gfn);
        charge vm vcpu ~now ~detail:gfn Monitor.E_cow_break (base + cow_copy_cycles);
        Resume
    | P2m.Present { writable = false; cow = false; _ } when access = Arch.Store ->
        ignore (Vm.resolve_write vm gfn);
        Vm.flush_all_tlbs vm;
        charge vm vcpu ~now ~detail:gfn Monitor.E_dirty_log
          (base + vm.Vm.host.Host.cost.Cost_model.emul_instr);
        Resume
    | P2m.Present { cow = true; _ } when access = Arch.Store ->
        ignore (Vm.resolve_write vm gfn);
        charge vm vcpu ~now ~detail:gfn Monitor.E_cow_break (base + cow_copy_cycles);
        Resume
    | P2m.Present _ ->
        (* Spurious (already repaired); resume and retry. *)
        charge vm vcpu ~now Monitor.E_shadow_fill base;
        Resume
    | P2m.Ballooned | P2m.Absent ->
        reflect vm vcpu ~now Monitor.E_guest_trap
          ~cause:(Arch.fault_cause access `Access) ~tval:0L;
        Resume

let handle_page_fault (vm : Vm.t) ~vcpu_idx ~now ~access ~va =
  let vcpu = vm.Vm.vcpus.(vcpu_idx) in
  let s = vcpu.Vcpu.state in
  let cost = vm.Vm.host.Host.cost in
  let user = s.Cpu.mode = Arch.User in
  let satp = Cpu.get_csr s Arch.Satp in
  match vm.Vm.paging with
  | Vm.Shadow_paging ->
      if not (Arch.satp_enabled satp) then
        handle_host_fault vm ~vcpu_idx ~now
          ~gfn:(Int64.shift_right_logical va Arch.page_shift) ~access
      else begin
        let shadow = Option.get vm.Vm.shadow in
        let result =
          Shadow.handle_fault shadow ~root_gfn:(Arch.satp_root_ppn satp) ~access ~user ~va
        in
        if Shadow.take_tlb_flush shadow then Vm.flush_all_tlbs vm;
        match result with
        | Shadow.Filled { cycles } ->
            charge vm vcpu ~now ~detail:va Monitor.E_shadow_fill
              (cost.Cost_model.vmexit + cycles);
            Resume
        | Shadow.Guest_fault ->
            reflect vm vcpu ~now Monitor.E_guest_page_fault
              ~cause:(Arch.fault_cause access `Page) ~tval:va;
            Resume
        | Shadow.Target_mmio { gpa } -> emulate_mmio_insn vm ~vcpu_idx ~now ~access ~gpa
        | Shadow.Pt_write { gpa } -> (
            (* Decode the trapped store and apply it to both trees. *)
            match Option.bind (Vm.read_guest_va vm ~vcpu_idx (Cpu.pc s)) Instr.decode with
            | Some (Instr.Store { src; width = Instr.W64; _ }) ->
                (* adaptive BT retranslates hot PT-write sites so later
                   updates skip the hardware fault *)
                let switch = world_switch_cost vm vcpu ~now in
                ignore (Shadow.emulate_pt_write shadow ~gpa ~value:(Cpu.get_reg s src));
                if Shadow.take_tlb_flush shadow then Vm.flush_all_tlbs vm;
                Cpu.advance_pc s;
                charge vm vcpu ~now ~detail:gpa Monitor.E_pt_write
                  (switch + (2 * cost.Cost_model.emul_instr));
                Resume
            | Some _ | None ->
                (* A sub-word store to a page-table page; reflect it as a
                   fault rather than guessing. *)
                reflect vm vcpu ~now Monitor.E_guest_page_fault
                  ~cause:(Arch.fault_cause access `Page) ~tval:va;
                Resume)
        | Shadow.Bad_gpa ->
            reflect vm vcpu ~now Monitor.E_guest_trap
              ~cause:(Arch.fault_cause access `Access) ~tval:va;
            Resume
      end
  | Vm.Nested_paging -> (
      let nested = Option.get vm.Vm.nested in
      match Nested.classify_fault nested ~guest_satp:satp ~access ~user ~va with
      | Nested.Guest_level ->
          reflect vm vcpu ~now Monitor.E_guest_page_fault
            ~cause:(Arch.fault_cause access `Page) ~tval:va;
          Resume
      | Nested.Host_level { gfn } -> handle_host_fault vm ~vcpu_idx ~now ~gfn ~access
      | Nested.Mmio { gpa } -> emulate_mmio_insn vm ~vcpu_idx ~now ~access ~gpa
      | Nested.Bad { gpa = _ } ->
          reflect vm vcpu ~now Monitor.E_guest_trap
            ~cause:(Arch.fault_cause access `Access) ~tval:va;
          Resume)

let handle_exit (vm : Vm.t) ~vcpu_idx ~now exit_ =
  let vcpu = vm.Vm.vcpus.(vcpu_idx) in
  let s = vcpu.Vcpu.state in
  let cost = vm.Vm.host.Host.cost in
  match exit_ with
  | Cpu.X_privileged insn -> handle_privileged vm ~vcpu_idx ~now insn
  | Cpu.X_trap { cause; tval } ->
      reflect vm vcpu ~now Monitor.E_guest_trap ~cause ~tval;
      Resume
  | Cpu.X_page_fault { access; va } -> handle_page_fault vm ~vcpu_idx ~now ~access ~va
  | Cpu.X_mmio_load { rd; pa; width } ->
      Bus.tick vm.Vm.bus now;
      let v = Option.value (Bus.read vm.Vm.bus pa width) ~default:0L in
      Cpu.set_reg s rd v;
      Cpu.advance_pc s;
      trace_event vm ~now (Trace.Device_io { write = false; addr = pa });
      charge vm vcpu ~now ~detail:pa Monitor.E_mmio
        (cost.Cost_model.vmexit + cost.Cost_model.mmio_device);
      Resume
  | Cpu.X_mmio_store { pa; width; value } ->
      Bus.tick vm.Vm.bus now;
      ignore (Bus.write vm.Vm.bus pa width value);
      Cpu.advance_pc s;
      trace_event vm ~now (Trace.Device_io { write = true; addr = pa });
      charge vm vcpu ~now ~detail:pa Monitor.E_mmio
        (cost.Cost_model.vmexit + cost.Cost_model.mmio_device);
      Resume
  | Cpu.X_hypercall ->
      if s.Cpu.mode = Arch.User then begin
        (* hypercalls are a kernel interface: reflect an illegal
           instruction into the guest rather than letting user code
           balloon pages or rewrite page tables *)
        reflect vm vcpu ~now Monitor.E_guest_trap ~cause:Arch.Illegal_instruction
          ~tval:(Instr.encode Instr.Hcall);
        Resume
      end
      else begin
        let num = Cpu.get_reg s 1 in
        let action = Hypercall.dispatch vm ~vcpu_idx ~now in
        trace_event vm ~now (Trace.Hypercall { num });
        charge vm vcpu ~now ~detail:num Monitor.E_hypercall cost.Cost_model.hypercall;
        match action with
        | Hypercall.Continue -> Resume
        | Hypercall.Yield_cpu -> Yielded
      end
