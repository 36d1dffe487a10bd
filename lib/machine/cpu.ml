open Velum_isa
open Velum_util

type state = {
  regs : int64 array;
  mutable pc : int64;
  mutable mode : Arch.mode;
  csrs : int64 array;
  mutable halted : bool;
  mutable waiting : bool;
  mutable instret : int64;
}

let num_csrs = List.length Arch.all_csrs

let create_state ?(pc = 0L) ?(mode = Arch.Supervisor) () =
  {
    regs = Array.make Arch.num_regs 0L;
    pc;
    mode;
    csrs = Array.make num_csrs 0L;
    halted = false;
    waiting = false;
    instret = 0L;
  }

let copy_state s =
  {
    regs = Array.copy s.regs;
    pc = s.pc;
    mode = s.mode;
    csrs = Array.copy s.csrs;
    halted = s.halted;
    waiting = s.waiting;
    instret = s.instret;
  }

let get_reg s r = s.regs.(r)
let set_reg s r v = if r <> 0 then s.regs.(r) <- v
let get_csr s c = s.csrs.(Arch.csr_index c)
let set_csr s c v = s.csrs.(Arch.csr_index c) <- v

(* sie status bits *)
let gie_bit = 63
let spie_bit = 62
let spp_bit = 61

let gie s = Bitops.test_bit (get_csr s Arch.Sie) gie_bit

let deliver_trap s ~cause ~tval =
  set_csr s Arch.Sepc s.pc;
  set_csr s Arch.Scause (Arch.cause_code cause);
  set_csr s Arch.Stval tval;
  let sie = get_csr s Arch.Sie in
  let sie = Bitops.set_bit sie spp_bit (s.mode = Arch.Supervisor) in
  let sie = Bitops.set_bit sie spie_bit (Bitops.test_bit sie gie_bit) in
  let sie = Bitops.set_bit sie gie_bit false in
  set_csr s Arch.Sie sie;
  s.mode <- Arch.Supervisor;
  s.waiting <- false;
  s.pc <- get_csr s Arch.Stvec

let apply_sret s =
  let sie = get_csr s Arch.Sie in
  s.mode <- (if Bitops.test_bit sie spp_bit then Arch.Supervisor else Arch.User);
  set_csr s Arch.Sie (Bitops.set_bit sie gie_bit (Bitops.test_bit sie spie_bit));
  s.pc <- get_csr s Arch.Sepc

let timer_pending s ~now =
  let cmp = get_csr s Arch.Stimecmp in
  cmp <> 0L && Int64.unsigned_compare now cmp >= 0

let interrupt_pending s ~now ~ext_irq =
  let sie = get_csr s Arch.Sie in
  if not (Bitops.test_bit sie gie_bit) then None
  else if ext_irq && Bitops.test_bit sie Arch.irq_external then
    Some Arch.External_interrupt
  else if timer_pending s ~now && Bitops.test_bit sie Arch.irq_timer then
    Some Arch.Timer_interrupt
  else None

let synth_sip s ~now ~ext_irq =
  let v = if timer_pending s ~now then Bitops.set_bit 0L Arch.irq_timer true else 0L in
  if ext_irq then Bitops.set_bit v Arch.irq_external true else v

let csr_read_native s ~now ~ext_irq = function
  | Arch.Time -> now
  | Arch.Sip -> synth_sip s ~now ~ext_irq
  | c -> get_csr s c

type xlate = { pa : int64; mmio : bool; xlate_cycles : int }
type xlate_fault = [ `Page | `Access ]

type env =
  | Native of {
      mmio_read : int64 -> Instr.width -> int64 option;
      mmio_write : int64 -> Instr.width -> int64 -> bool;
      port_in : int -> int64 option;
      port_out : int -> int64 -> bool;
    }
  | Deprivileged

type ctx = {
  translate : access:Arch.access -> user:bool -> int64 -> (xlate, xlate_fault) result;
  read_ram : int64 -> Instr.width -> int64;
  write_ram : int64 -> Instr.width -> int64 -> unit;
  flush_tlb : unit -> unit;
  now : unit -> int64;
  ext_irq : unit -> bool;
  cost : Cost_model.t;
  env : env;
  dtlb : Dtlb.t option;
}

type vmexit =
  | X_privileged of Instr.t
  | X_trap of { cause : Arch.cause; tval : int64 }
  | X_page_fault of { access : Arch.access; va : int64 }
  | X_mmio_load of { rd : Arch.reg; pa : int64; width : Instr.width }
  | X_mmio_store of { pa : int64; width : Instr.width; value : int64 }
  | X_hypercall

let pp_vmexit ppf = function
  | X_privileged i -> Format.fprintf ppf "privileged(%a)" Instr.pp i
  | X_trap { cause; tval } ->
      Format.fprintf ppf "trap(%s, 0x%Lx)" (Arch.cause_name cause) tval
  | X_page_fault { access; va } ->
      Format.fprintf ppf "page-fault(%s, 0x%Lx)" (Arch.access_name access) va
  | X_mmio_load { rd; pa; width } ->
      Format.fprintf ppf "mmio-load(%s, 0x%Lx, %d)" (Arch.reg_name rd) pa
        (Instr.width_bytes width)
  | X_mmio_store { pa; width; value } ->
      Format.fprintf ppf "mmio-store(0x%Lx, %d, 0x%Lx)" pa (Instr.width_bytes width) value
  | X_hypercall -> Format.pp_print_string ppf "hypercall"

let advance_pc s = s.pc <- Int64.add s.pc (Int64.of_int Arch.instr_bytes)

type stop = Budget | Halted | Waiting | Exit of vmexit

(* Outcome of one instruction: cycles consumed, and whether the hart must
   stop.  Native traps are folded into Retired (the trap has been
   delivered and execution continues at stvec). *)
type step = Retired of int | Stop_exec of stop * int

let alu_cycles cost = function
  | Instr.Mul -> cost.Cost_model.mul
  | Instr.Div | Instr.Rem -> cost.Cost_model.div
  | _ -> 0

let eval_alu op a b =
  match op with
  | Instr.Add -> Int64.add a b
  | Instr.Sub -> Int64.sub a b
  | Instr.Mul -> Int64.mul a b
  | Instr.Div ->
      if b = 0L then -1L
      else if a = Int64.min_int && b = -1L then Int64.min_int
      else Int64.div a b
  | Instr.Rem ->
      if b = 0L then a else if a = Int64.min_int && b = -1L then 0L else Int64.rem a b
  | Instr.And -> Int64.logand a b
  | Instr.Or -> Int64.logor a b
  | Instr.Xor -> Int64.logxor a b
  | Instr.Sll -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Instr.Srl -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))
  | Instr.Sra -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
  | Instr.Slt -> if Int64.compare a b < 0 then 1L else 0L
  | Instr.Sltu -> if Int64.unsigned_compare a b < 0 then 1L else 0L

(* Immediates: bitwise ops use the zero-extended low 32 bits, shifts the
   low 6 bits; arithmetic and compares use the sign-extended value the
   decoder produced. *)
let alui_imm op imm =
  match op with
  | Instr.And | Instr.Or | Instr.Xor -> Int64.logand imm 0xFFFF_FFFFL
  | Instr.Sll | Instr.Srl | Instr.Sra -> Int64.logand imm 63L
  | _ -> imm

let eval_branch op a b =
  match op with
  | Instr.Beq -> a = b
  | Instr.Bne -> a <> b
  | Instr.Blt -> Int64.compare a b < 0
  | Instr.Bge -> Int64.compare a b >= 0
  | Instr.Bltu -> Int64.unsigned_compare a b < 0
  | Instr.Bgeu -> Int64.unsigned_compare a b >= 0

let is_deprivileged ctx = match ctx.env with Deprivileged -> true | Native _ -> false

let trap_or_exit s ctx cause tval cycles =
  if is_deprivileged ctx then Stop_exec (Exit (X_trap { cause; tval }), cycles)
  else begin
    deliver_trap s ~cause ~tval;
    Retired (cycles + ctx.cost.Cost_model.trap_enter)
  end

(* Data access: translate, then dispatch to RAM, a device, or an exit.
   [mmio_rd] is the destination register when this is a load (used in
   the MMIO-load exit payload); [store_value] distinguishes stores. *)
let data_access s ctx access va width ~mmio_rd ~store_value
    ~(k_load : int64 -> int -> step) =
  let cost = ctx.cost in
  let bytes = Instr.width_bytes width in
  if Int64.rem va (Int64.of_int bytes) <> 0L then
    trap_or_exit s ctx (Arch.fault_cause access `Misaligned) va cost.base_instr
  else
    let user = s.mode = Arch.User in
    match ctx.translate ~access ~user va with
    | Error `Page ->
        if is_deprivileged ctx then
          Stop_exec (Exit (X_page_fault { access; va }), cost.base_instr)
        else trap_or_exit s ctx (Arch.fault_cause access `Page) va cost.base_instr
    | Error `Access -> trap_or_exit s ctx (Arch.fault_cause access `Access) va cost.base_instr
    | Ok { pa; mmio; xlate_cycles } -> (
        let cyc = cost.base_instr + cost.mem_access + xlate_cycles in
        if mmio then
          match ctx.env with
          | Deprivileged -> (
              match store_value with
              | None ->
                  Stop_exec
                    (Exit (X_mmio_load { rd = mmio_rd; pa; width }), cost.base_instr)
              | Some value ->
                  Stop_exec (Exit (X_mmio_store { pa; width; value }), cost.base_instr))
          | Native { mmio_read; mmio_write; _ } -> (
              match store_value with
              | None -> (
                  match mmio_read pa width with
                  | Some v -> k_load v (cyc + cost.mmio_device)
                  | None -> trap_or_exit s ctx (Arch.fault_cause access `Access) va cost.base_instr)
              | Some v ->
                  if mmio_write pa width v then begin
                    advance_pc s;
                    Retired (cyc + cost.mmio_device)
                  end
                  else trap_or_exit s ctx (Arch.fault_cause access `Access) va cost.base_instr)
        else
          match store_value with
          | None -> k_load (ctx.read_ram pa width) cyc
          | Some v ->
              ctx.write_ram pa width v;
              advance_pc s;
              Retired cyc)

(* Reached only on a native hart in supervisor mode. *)
let exec_privileged s ctx insn =
  let cost = ctx.cost in
  let ok cycles =
    advance_pc s;
    Retired cycles
  in
  match (insn, ctx.env) with
  | _, Deprivileged -> assert false
  | Instr.Csrr (rd, csr), _ ->
      set_reg s rd (csr_read_native s ~now:(ctx.now ()) ~ext_irq:(ctx.ext_irq ()) csr);
      ok cost.base_instr
  | Instr.Csrw (csr, rs1), _ ->
      if Arch.csr_read_only csr then
        trap_or_exit s ctx Arch.Illegal_instruction (Instr.encode insn) cost.base_instr
      else begin
        set_csr s csr (get_reg s rs1);
        if csr = Arch.Satp then ctx.flush_tlb ();
        ok cost.base_instr
      end
  | Instr.Sret, _ ->
      apply_sret s;
      Retired (cost.base_instr + cost.trap_enter)
  | Instr.Sfence, _ ->
      ctx.flush_tlb ();
      ok (cost.base_instr + cost.tlb_fill)
  | Instr.Wfi, _ ->
      if interrupt_pending s ~now:(ctx.now ()) ~ext_irq:(ctx.ext_irq ()) <> None then
        ok cost.base_instr
      else begin
        s.waiting <- true;
        advance_pc s;
        Stop_exec (Waiting, cost.base_instr)
      end
  | Instr.In (rd, port), Native { port_in; _ } -> (
      match port_in port with
      | Some v ->
          set_reg s rd v;
          ok (cost.base_instr + cost.port_io)
      | None -> trap_or_exit s ctx Arch.Load_access_fault (Int64.of_int port) cost.base_instr)
  | Instr.Out (port, rs1), Native { port_out; _ } ->
      if port_out port (get_reg s rs1) then ok (cost.base_instr + cost.port_io)
      else trap_or_exit s ctx Arch.Store_access_fault (Int64.of_int port) cost.base_instr
  | Instr.Halt, _ ->
      s.halted <- true;
      Stop_exec (Halted, cost.base_instr)
  | _ -> assert false

let exec_insn s ctx insn =
  let cost = ctx.cost in
  let deprivileged = is_deprivileged ctx in
  match insn with
  | Instr.Nop ->
      advance_pc s;
      Retired cost.base_instr
  | Instr.Alu (op, rd, rs1, rs2) ->
      set_reg s rd (eval_alu op (get_reg s rs1) (get_reg s rs2));
      advance_pc s;
      Retired (cost.base_instr + alu_cycles cost op)
  | Instr.Alui (op, rd, rs1, imm) ->
      set_reg s rd (eval_alu op (get_reg s rs1) (alui_imm op imm));
      advance_pc s;
      Retired (cost.base_instr + alu_cycles cost op)
  | Instr.Lui (rd, imm) ->
      set_reg s rd (Int64.shift_left imm 32);
      advance_pc s;
      Retired cost.base_instr
  | Instr.Load { rd; base; off; width } ->
      let va = Int64.add (get_reg s base) off in
      data_access s ctx Arch.Load va width ~mmio_rd:rd ~store_value:None
        ~k_load:(fun v cyc ->
          set_reg s rd v;
          advance_pc s;
          Retired cyc)
  | Instr.Store { src; base; off; width } ->
      let va = Int64.add (get_reg s base) off in
      data_access s ctx Arch.Store va width ~mmio_rd:0
        ~store_value:(Some (get_reg s src))
        ~k_load:(fun _ _ -> assert false)
  | Instr.Branch (op, rs1, rs2, off) ->
      if eval_branch op (get_reg s rs1) (get_reg s rs2) then
        s.pc <- Int64.add s.pc off
      else advance_pc s;
      Retired cost.base_instr
  | Instr.Jal (rd, off) ->
      set_reg s rd (Int64.add s.pc (Int64.of_int Arch.instr_bytes));
      s.pc <- Int64.add s.pc off;
      Retired cost.base_instr
  | Instr.Jalr (rd, rs1, imm) ->
      let target = Int64.add (get_reg s rs1) imm in
      set_reg s rd (Int64.add s.pc (Int64.of_int Arch.instr_bytes));
      s.pc <- target;
      Retired cost.base_instr
  | Instr.Ecall ->
      if deprivileged then
        Stop_exec (Exit (X_trap { cause = Arch.Syscall; tval = 0L }), cost.base_instr)
      else trap_or_exit s ctx Arch.Syscall 0L cost.base_instr
  | Instr.Ebreak -> trap_or_exit s ctx Arch.Breakpoint 0L cost.base_instr
  | Instr.Hcall ->
      if deprivileged then Stop_exec (Exit X_hypercall, cost.base_instr)
      else trap_or_exit s ctx Arch.Illegal_instruction (Instr.encode insn) cost.base_instr
  | Instr.Csrr _ | Instr.Csrw _ | Instr.Sret | Instr.Sfence | Instr.Wfi
  | Instr.In _ | Instr.Out _ | Instr.Halt ->
      if deprivileged then Stop_exec (Exit (X_privileged insn), cost.base_instr)
      else if s.mode = Arch.User then
        trap_or_exit s ctx Arch.Illegal_instruction (Instr.encode insn) cost.base_instr
      else exec_privileged s ctx insn

let fetch_prelude s ctx =
  let cost = ctx.cost in
  let pc = s.pc in
  if Int64.rem pc (Int64.of_int Arch.instr_bytes) <> 0L then
    Error (trap_or_exit s ctx Arch.Misaligned_fetch pc cost.base_instr)
  else
    let user = s.mode = Arch.User in
    match ctx.translate ~access:Arch.Fetch ~user pc with
    | Error `Page ->
        if is_deprivileged ctx then
          Error
            (Stop_exec (Exit (X_page_fault { access = Arch.Fetch; va = pc }), cost.base_instr))
        else Error (trap_or_exit s ctx Arch.Fetch_page_fault pc cost.base_instr)
    | Error `Access -> Error (trap_or_exit s ctx Arch.Fetch_access_fault pc cost.base_instr)
    | Ok x ->
        if x.mmio then Error (trap_or_exit s ctx Arch.Fetch_access_fault pc cost.base_instr)
        else Ok x

let step_one s ctx =
  let cost = ctx.cost in
  match fetch_prelude s ctx with
  | Error step -> step
  | Ok { pa; mmio = _; xlate_cycles } -> (
      let word = ctx.read_ram pa Instr.W64 in
      match Instr.decode word with
      | None -> trap_or_exit s ctx Arch.Illegal_instruction word cost.base_instr
      | Some insn -> (
          match exec_insn s ctx insn with
          | Retired c ->
              s.instret <- Int64.add s.instret 1L;
              Retired (c + xlate_cycles)
          | Stop_exec (reason, c) -> Stop_exec (reason, c + xlate_cycles)))

let run s ctx ~budget =
  let cost = ctx.cost in
  let deprivileged = is_deprivileged ctx in
  if s.halted then (0, Halted)
  else begin
    let consumed = ref 0 in
    let result = ref None in
    while !result = None do
      if !consumed >= budget then result := Some Budget
      else if s.halted then result := Some Halted
      else begin
        (if not deprivileged then
           match interrupt_pending s ~now:(ctx.now ()) ~ext_irq:(ctx.ext_irq ()) with
           | Some cause ->
               deliver_trap s ~cause ~tval:0L;
               consumed := !consumed + cost.trap_enter
           | None -> ());
        if s.waiting then result := Some Waiting
        else
          match step_one s ctx with
          | Retired c -> consumed := !consumed + c
          | Stop_exec (reason, c) ->
              consumed := !consumed + c;
              result := Some reason
      end
    done;
    let stop = match !result with Some r -> r | None -> assert false in
    (!consumed, stop)
  end
