open Velum_isa
open Velum_util

type state = {
  regs : Bytes.t;
  mutable mode : Arch.mode;
  csrs : int64 array;
  mutable halted : bool;
  mutable waiting : bool;
  mutable instret : int64;
}

external slot_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external slot_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The slots are native-endian; the snapshot image stores them
   little-endian with one blit, which is only the same bytes on a
   little-endian host. *)
let () = if Sys.big_endian then failwith "Velum needs a little-endian host"

let pc_slot = 8 * Arch.num_regs
let regs_bytes = pc_slot + 8
let num_csrs = List.length Arch.all_csrs

let create_state ?(pc = 0L) ?(mode = Arch.Supervisor) () =
  let regs = Bytes.make regs_bytes '\000' in
  slot_set regs pc_slot pc;
  {
    regs;
    mode;
    csrs = Array.make num_csrs 0L;
    halted = false;
    waiting = false;
    instret = 0L;
  }

let reg_slot r =
  if r < 0 || r >= Arch.num_regs then invalid_arg "Cpu: register index out of range";
  r lsl 3

let get_reg s r = slot_get s.regs (reg_slot r)
let set_reg s r v =
  let o = reg_slot r in
  if o <> 0 then slot_set s.regs o v
let pc s = slot_get s.regs pc_slot
let set_pc s v = slot_set s.regs pc_slot v
let get_csr s c = s.csrs.(Arch.csr_index c)
let set_csr s c v = s.csrs.(Arch.csr_index c) <- v

(* sie status bits *)
let gie_bit = 63
let spie_bit = 62
let spp_bit = 61

let gie s = Bitops.test_bit (get_csr s Arch.Sie) gie_bit

let deliver_trap s ~cause ~tval =
  set_csr s Arch.Sepc (pc s);
  set_csr s Arch.Scause (Arch.cause_code cause);
  set_csr s Arch.Stval tval;
  let sie = get_csr s Arch.Sie in
  let sie = Bitops.set_bit sie spp_bit (s.mode = Arch.Supervisor) in
  let sie = Bitops.set_bit sie spie_bit (Bitops.test_bit sie gie_bit) in
  let sie = Bitops.set_bit sie gie_bit false in
  set_csr s Arch.Sie sie;
  s.mode <- Arch.Supervisor;
  s.waiting <- false;
  set_pc s (get_csr s Arch.Stvec)

let apply_sret s =
  let sie = get_csr s Arch.Sie in
  s.mode <- (if Bitops.test_bit sie spp_bit then Arch.Supervisor else Arch.User);
  set_csr s Arch.Sie (Bitops.set_bit sie gie_bit (Bitops.test_bit sie spie_bit));
  set_pc s (get_csr s Arch.Sepc)

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

(* CSR read semantics on bare metal: [Time] returns [now], [Sip]
   synthesises pending bits, everything else reads the cell. *)
let csr_read_native s ~now ~ext_irq = function
  | Arch.Time -> now
  | Arch.Sip -> synth_sip s ~now ~ext_irq
  | c -> get_csr s c

(* A translation result is one immediate int: bits 0-47 the physical
   address, bit 48 the MMIO flag, bits 49-61 the walk cycles; a negative
   value is a fault code.  A zero-cycle RAM translation is its address. *)
let pa_bits = 48
let pa_mask = (1 lsl pa_bits) - 1
let mmio_flag = 1 lsl pa_bits
let cycles_shift = pa_bits + 1
let max_xlate_cycles = (1 lsl (Sys.int_size - 1 - cycles_shift)) - 1
let xl_page = -1
let xl_access = -2

let xl_make ~pa ~mmio ~cycles =
  if pa < 0 || pa > pa_mask then invalid_arg "Cpu.xl_make: address outside [0, 2^48)";
  if cycles < 0 || cycles > max_xlate_cycles then
    invalid_arg "Cpu.xl_make: walk cycles do not fit";
  pa lor (if mmio then mmio_flag else 0) lor (cycles lsl cycles_shift)

let xl_frame ~ppn ~va ~mmio ~cycles =
  xl_make
    ~pa:((Int64.to_int ppn lsl Arch.page_shift) lor (Int64.to_int va land (Arch.page_size - 1)))
    ~mmio ~cycles

let xl_hit hit ~va = xl_make ~pa:(Tlb.hit_pa hit ~va) ~mmio:(Tlb.hit_mmio hit) ~cycles:0
let xl_pa x = x land pa_mask
let xl_mmio x = x land mmio_flag <> 0
let xl_cycles x = x lsr cycles_shift

type env =
  | Native of {
      mmio_read : int64 -> Instr.width -> int64 option;
      mmio_write : int64 -> Instr.width -> int64 -> bool;
      port_in : int -> int64 option;
      port_out : int -> int64 -> bool;
    }
  | Deprivileged

type ctx = {
  translate : access:Arch.access -> user:bool -> int64 -> int;
  mem : Phys_mem.t;
  flush_tlb : unit -> unit;
  now : unit -> int64;
  ext_irq : unit -> bool;
  cost : Cost_model.t;
  env : env;
  dtlb : Dtlb.t;
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

let instr_bytes64 = Int64.of_int Arch.instr_bytes
let advance_pc s = set_pc s (Int64.add (pc s) instr_bytes64)

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

(* A misaligned access, on top of the translator's fault codes. *)
let misaligned = -3

let translate_data s ctx access va width =
  if Int64.logand va (Int64.of_int (Instr.width_bytes width - 1)) <> 0L then misaligned
  else ctx.translate ~access ~user:(s.mode = Arch.User) va

(* The outcome of a data access whose translation failed with [code]. *)
let data_fault s ctx access va code =
  let base = ctx.cost.Cost_model.base_instr in
  if code = misaligned then trap_or_exit s ctx (Arch.fault_cause access `Misaligned) va base
  else if code = xl_page && is_deprivileged ctx then
    Stop_exec (Exit (X_page_fault { access; va }), base)
  else
    trap_or_exit s ctx
      (Arch.fault_cause access (if code = xl_page then `Page else `Access))
      va base

(* Loads and stores: translate, then go to RAM, a device, or an exit. *)
let exec_load s ctx rd va width =
  let x = translate_data s ctx Arch.Load va width in
  if x < 0 then data_fault s ctx Arch.Load va x
  else
    let cost = ctx.cost in
    let cyc = cost.base_instr + cost.mem_access + xl_cycles x in
    if not (xl_mmio x) then begin
      set_reg s rd (Phys_mem.read_at ctx.mem (xl_pa x) width);
      advance_pc s;
      Retired cyc
    end
    else
      let pa = Int64.of_int (xl_pa x) in
      match ctx.env with
      | Deprivileged -> Stop_exec (Exit (X_mmio_load { rd; pa; width }), cost.base_instr)
      | Native { mmio_read; _ } -> (
          match mmio_read pa width with
          | Some v ->
              set_reg s rd v;
              advance_pc s;
              Retired (cyc + cost.mmio_device)
          | None -> trap_or_exit s ctx Arch.Load_access_fault va cost.base_instr)

let exec_store s ctx va width v =
  let x = translate_data s ctx Arch.Store va width in
  if x < 0 then data_fault s ctx Arch.Store va x
  else
    let cost = ctx.cost in
    let cyc = cost.base_instr + cost.mem_access + xl_cycles x in
    if not (xl_mmio x) then begin
      Phys_mem.write_at ctx.mem (xl_pa x) width v;
      advance_pc s;
      Retired cyc
    end
    else
      let pa = Int64.of_int (xl_pa x) in
      match ctx.env with
      | Deprivileged -> Stop_exec (Exit (X_mmio_store { pa; width; value = v }), cost.base_instr)
      | Native { mmio_write; _ } ->
          if mmio_write pa width v then begin
            advance_pc s;
            Retired (cyc + cost.mmio_device)
          end
          else trap_or_exit s ctx Arch.Store_access_fault va cost.base_instr

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
      exec_load s ctx rd (Int64.add (get_reg s base) off) width
  | Instr.Store { src; base; off; width } ->
      exec_store s ctx (Int64.add (get_reg s base) off) width (get_reg s src)
  | Instr.Branch (op, rs1, rs2, off) ->
      if eval_branch op (get_reg s rs1) (get_reg s rs2) then set_pc s (Int64.add (pc s) off)
      else advance_pc s;
      Retired cost.base_instr
  | Instr.Jal (rd, off) ->
      let here = pc s in
      set_reg s rd (Int64.add here instr_bytes64);
      set_pc s (Int64.add here off);
      Retired cost.base_instr
  | Instr.Jalr (rd, rs1, imm) ->
      let target = Int64.add (get_reg s rs1) imm in
      set_reg s rd (Int64.add (pc s) instr_bytes64);
      set_pc s target;
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
  let pc = pc s in
  if Int64.logand pc (Int64.pred instr_bytes64) <> 0L then misaligned
  else
    let x = ctx.translate ~access:Arch.Fetch ~user:(s.mode = Arch.User) pc in
    if x >= 0 && xl_mmio x then xl_access else x

let fetch_fault s ctx code =
  let pc = pc s and base = ctx.cost.Cost_model.base_instr in
  if code = misaligned then trap_or_exit s ctx Arch.Misaligned_fetch pc base
  else if code = xl_page && is_deprivileged ctx then
    Stop_exec (Exit (X_page_fault { access = Arch.Fetch; va = pc }), base)
  else if code = xl_page then trap_or_exit s ctx Arch.Fetch_page_fault pc base
  else trap_or_exit s ctx Arch.Fetch_access_fault pc base

let run s ctx ~budget =
  let trap_enter = ctx.cost.Cost_model.trap_enter in
  let base_instr = ctx.cost.Cost_model.base_instr in
  let deprivileged = is_deprivileged ctx in
  (* [retired] is flushed into [instret] once, when the loop stops; a
     fetch fault or an undecodable word retires nothing, even when the
     trap it raises is delivered natively *)
  let rec loop consumed retired =
    if consumed >= budget then finish consumed retired Budget
    else if s.halted then finish consumed retired Halted
    else
      let consumed =
        if deprivileged then consumed
        else
          match interrupt_pending s ~now:(ctx.now ()) ~ext_irq:(ctx.ext_irq ()) with
          | Some cause ->
              deliver_trap s ~cause ~tval:0L;
              consumed + trap_enter
          | None -> consumed
      in
      if s.waiting then finish consumed retired Waiting
      else
        let x = fetch_prelude s ctx in
        if x < 0 then unretired consumed retired (fetch_fault s ctx x)
        else
          let word = Phys_mem.read_at ctx.mem (xl_pa x) Instr.W64 in
          match Instr.decode word with
          | None ->
              unretired consumed retired
                (trap_or_exit s ctx Arch.Illegal_instruction word base_instr)
          | Some insn -> (
              match exec_insn s ctx insn with
              | Retired c -> loop (consumed + c + xl_cycles x) (retired + 1)
              | Stop_exec (reason, c) -> finish (consumed + c + xl_cycles x) retired reason)
  and unretired consumed retired = function
    | Retired c -> loop (consumed + c) retired
    | Stop_exec (reason, c) -> finish (consumed + c) retired reason
  and finish consumed retired stop =
    s.instret <- Int64.add s.instret (Int64.of_int retired);
    (consumed, stop)
  in
  if s.halted then (0, Halted) else loop 0 0
