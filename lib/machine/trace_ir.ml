open Velum_isa

type tgt = Op of int | Out of int | Side of int

type uop =
  | U_nop of int
  | U_add of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_sub of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_mul of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_div of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_rem of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_and of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_or of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_xor of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_sll of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_srl of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_sra of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_slt of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_sltu of { rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_addi of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_muli of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_divi of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_remi of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_andi of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_ori of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_xori of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_slli of { rd : int; rs1 : int; sh : int; cyc : int }
  | U_srli of { rd : int; rs1 : int; sh : int; cyc : int }
  | U_srai of { rd : int; rs1 : int; sh : int; cyc : int }
  | U_slti of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_sltiu of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_lui of { rd : int; v : int64; cyc : int }
  | U_load of {
      rd : int;
      base : int;
      off : int64;
      width : Instr.width;
      amask : int64;
      cyc : int;
    }
  | U_store of {
      src : int;
      base : int;
      off : int64;
      width : Instr.width;
      amask : int64;
      cyc : int;
    }
  | U_beq of { rs1 : int; rs2 : int; t_tgt : tgt; f_tgt : tgt; cyc : int }
  | U_bne of { rs1 : int; rs2 : int; t_tgt : tgt; f_tgt : tgt; cyc : int }
  | U_blt of { rs1 : int; rs2 : int; t_tgt : tgt; f_tgt : tgt; cyc : int }
  | U_bge of { rs1 : int; rs2 : int; t_tgt : tgt; f_tgt : tgt; cyc : int }
  | U_bltu of { rs1 : int; rs2 : int; t_tgt : tgt; f_tgt : tgt; cyc : int }
  | U_bgeu of { rs1 : int; rs2 : int; t_tgt : tgt; f_tgt : tgt; cyc : int }
  | U_jal of { rd : int; link : int; tgt : tgt; cyc : int }
  | U_jalr of { rd : int; link : int; rs1 : int; imm : int64; cyc : int }
  | U_exit of { stop : Cpu.stop; cyc : int }

type prog = {
  ops : uop array;
  offs : int array;
  entry_off : int;
  live : bool ref;
}

type segment = { seg_insns : Instr.t array; seg_off : int }

(* ---- lowering ---- *)

let ib = Arch.instr_bytes

(* The static deprivileged outcome of a slow instruction (cf.
   [Cpu.exec_insn]'s deprivileged arms: every one is a [Stop_exec] of a
   constant payload costing [base_instr], with the PC not advanced). *)
let static_exit insn =
  match insn with
  | Instr.Ecall -> Some (Cpu.Exit (Cpu.X_trap { cause = Arch.Syscall; tval = 0L }))
  | Instr.Ebreak -> Some (Cpu.Exit (Cpu.X_trap { cause = Arch.Breakpoint; tval = 0L }))
  | Instr.Hcall -> Some (Cpu.Exit Cpu.X_hypercall)
  | Instr.Csrr _ | Instr.Csrw _ | Instr.Sret | Instr.Sfence | Instr.Wfi
  | Instr.In _ | Instr.Out _ | Instr.Halt ->
      Some (Cpu.Exit (Cpu.X_privileged insn))
  | _ -> None

(* Register operands are lowered to their byte offsets in the register
   file ([Cpu.state.regs]), so an op reads and writes its registers
   with no index arithmetic; offset 0 is [r0]. *)
let[@inline] slot r = r lsl 3

let lower_alu op rd rs1 rs2 cyc =
  let rd = slot rd and rs1 = slot rs1 and rs2 = slot rs2 in
  match op with
  | Instr.Add -> U_add { rd; rs1; rs2; cyc }
  | Instr.Sub -> U_sub { rd; rs1; rs2; cyc }
  | Instr.Mul -> U_mul { rd; rs1; rs2; cyc }
  | Instr.Div -> U_div { rd; rs1; rs2; cyc }
  | Instr.Rem -> U_rem { rd; rs1; rs2; cyc }
  | Instr.And -> U_and { rd; rs1; rs2; cyc }
  | Instr.Or -> U_or { rd; rs1; rs2; cyc }
  | Instr.Xor -> U_xor { rd; rs1; rs2; cyc }
  | Instr.Sll -> U_sll { rd; rs1; rs2; cyc }
  | Instr.Srl -> U_srl { rd; rs1; rs2; cyc }
  | Instr.Sra -> U_sra { rd; rs1; rs2; cyc }
  | Instr.Slt -> U_slt { rd; rs1; rs2; cyc }
  | Instr.Sltu -> U_sltu { rd; rs1; rs2; cyc }

(* The immediate is folded through [Cpu.alui_imm] first, so shift
   amounts arrive already masked to 0..63.  The decoder produces no
   immediate [Sub]/[Mul]/[Div]/[Rem], but [Cpu.exec_insn] defines them,
   so they lower too: [a - imm] is [a + (-imm)] modulo 2^64. *)
let lower_alui op rd rs1 imm cyc =
  let rd = slot rd and rs1 = slot rs1 in
  let imm = Cpu.alui_imm op imm in
  match op with
  | Instr.Add -> U_addi { rd; rs1; imm; cyc }
  | Instr.Sub -> U_addi { rd; rs1; imm = Int64.neg imm; cyc }
  | Instr.Mul -> U_muli { rd; rs1; imm; cyc }
  | Instr.Div -> U_divi { rd; rs1; imm; cyc }
  | Instr.Rem -> U_remi { rd; rs1; imm; cyc }
  | Instr.And -> U_andi { rd; rs1; imm; cyc }
  | Instr.Or -> U_ori { rd; rs1; imm; cyc }
  | Instr.Xor -> U_xori { rd; rs1; imm; cyc }
  | Instr.Sll -> U_slli { rd; rs1; sh = Int64.to_int imm; cyc }
  | Instr.Srl -> U_srli { rd; rs1; sh = Int64.to_int imm; cyc }
  | Instr.Sra -> U_srai { rd; rs1; sh = Int64.to_int imm; cyc }
  | Instr.Slt -> U_slti { rd; rs1; imm; cyc }
  | Instr.Sltu -> U_sltiu { rd; rs1; imm; cyc }

let lower_branch op rs1 rs2 t_tgt f_tgt cyc =
  let rs1 = slot rs1 and rs2 = slot rs2 in
  match op with
  | Instr.Beq -> U_beq { rs1; rs2; t_tgt; f_tgt; cyc }
  | Instr.Bne -> U_bne { rs1; rs2; t_tgt; f_tgt; cyc }
  | Instr.Blt -> U_blt { rs1; rs2; t_tgt; f_tgt; cyc }
  | Instr.Bge -> U_bge { rs1; rs2; t_tgt; f_tgt; cyc }
  | Instr.Bltu -> U_bltu { rs1; rs2; t_tgt; f_tgt; cyc }
  | Instr.Bgeu -> U_bgeu { rs1; rs2; t_tgt; f_tgt; cyc }

let build ~cost ~segments =
  let base = cost.Cost_model.base_instr in
  let mem = base + cost.Cost_model.mem_access in
  let segs = Array.of_list segments in
  let nseg = Array.length segs in
  if nseg = 0 then None
  else begin
    (* first-op index of each segment, and the total op count *)
    let firsts = Array.make nseg 0 in
    let total = ref 0 in
    Array.iteri
      (fun i seg ->
        firsts.(i) <- !total;
        total := !total + Array.length seg.seg_insns)
      segs;
    let n = !total in
    if n = 0 then None
    else begin
      (* A page offset lands in the trace when some segment's span
         contains it (8-aligned); the first containing segment wins —
         overlapping segments decode the same bytes, so either mapping
         executes identically. *)
      let resolve off =
        if off land (ib - 1) <> 0 then Out off
        else begin
          let found = ref (Out off) in
          (try
             for i = 0 to nseg - 1 do
               let s = segs.(i) in
               let lo = s.seg_off
               and hi = s.seg_off + (ib * Array.length s.seg_insns) in
               if off >= lo && off < hi then begin
                 found := Op (firsts.(i) + ((off - lo) / ib));
                 raise Exit
               end
             done
           with Exit -> ());
          !found
        end
      in
      let ops = Array.make n (U_nop base) in
      let offs = Array.make n 0 in
      let ok = ref true in
      Array.iteri
        (fun si seg ->
          let len = Array.length seg.seg_insns in
          for k = 0 to len - 1 do
            let insn = seg.seg_insns.(k) in
            let off = seg.seg_off + (k * ib) in
            let idx = firsts.(si) + k in
            offs.(idx) <- off;
            let last = k = len - 1 in
            let lowered =
              match insn with
              | Instr.Nop -> Some (U_nop base)
              | Instr.Alu (op, rd, rs1, rs2) ->
                  Some (lower_alu op rd rs1 rs2 (base + Cpu.alu_cycles cost op))
              | Instr.Alui (op, rd, rs1, imm) ->
                  Some (lower_alui op rd rs1 imm (base + Cpu.alu_cycles cost op))
              | Instr.Lui (rd, imm) ->
                  Some (U_lui { rd = slot rd; v = Int64.shift_left imm 32; cyc = base })
              | Instr.Load { rd; base = b; off = o; width } ->
                  Some
                    (U_load
                       {
                         rd = slot rd;
                         base = slot b;
                         off = o;
                         width;
                         amask = Int64.of_int (Instr.width_bytes width - 1);
                         cyc = mem;
                       })
              | Instr.Store { src; base = b; off = o; width } ->
                  (* a store must have a successor op to side-exit to
                     when the trace severs itself; terminated segments
                     guarantee it is never last *)
                  if last then None
                  else
                    Some
                      (U_store
                         {
                           src = slot src;
                           base = slot b;
                           off = o;
                           width;
                           amask = Int64.of_int (Instr.width_bytes width - 1);
                           cyc = mem;
                         })
              | Instr.Branch (op, rs1, rs2, delta) when last ->
                  let t_tgt, f_tgt =
                    match (resolve (off + Int64.to_int delta), resolve (off + ib)) with
                    | (Op _ as t), Out d -> (t, Side d)
                    | Out d, (Op _ as f) -> (Side d, f)
                    | t, f -> (t, f)
                  in
                  Some (lower_branch op rs1 rs2 t_tgt f_tgt base)
              | Instr.Jal (rd, delta) when last ->
                  Some
                    (U_jal
                       {
                         rd = slot rd;
                         link = off + ib;
                         tgt = resolve (off + Int64.to_int delta);
                         cyc = base;
                       })
              | Instr.Jalr (rd, rs1, imm) when last ->
                  Some (U_jalr { rd = slot rd; link = off + ib; rs1 = slot rs1; imm; cyc = base })
              | insn when last -> (
                  match static_exit insn with
                  | Some stop -> Some (U_exit { stop; cyc = base })
                  | None -> None)
              | _ ->
                  (* a terminator in a non-final position, or an
                     unterminated segment end: not lowerable *)
                  None
            in
            match lowered with
            | Some u -> ops.(idx) <- u
            | None -> ok := false
          done;
          (* an unterminated segment (last insn is a plain straight-line
             op) would fall off the op array: refuse it *)
          if len > 0 then begin
            match seg.seg_insns.(len - 1) with
            | Instr.Branch _ | Instr.Jal _ | Instr.Jalr _ -> ()
            | insn -> if static_exit insn = None then ok := false
          end)
        segs;
      if not !ok then None
      else Some { ops; offs; entry_off = segs.(0).seg_off; live = ref true }
    end
  end

(* ---- execution ---- *)

type outcome =
  | Fall of { cycles : int; early : bool }
  | Stop of { cycles : int; stop : Cpu.stop }
  | Bail

(* The register file and PC through the compiler primitives [Cpu]
   exports: inlined here, unboxed, no bounds check (register offsets
   come from 4-bit decoder fields). *)
let pc_slot = Cpu.pc_slot
let[@inline] reg regs o = Cpu.slot_get regs o
let[@inline] set_reg regs o v = if o <> 0 then Cpu.slot_set regs o v
let[@inline] set_pc regs v = Cpu.slot_set regs pc_slot v

(* [Cpu.eval_alu]'s semantics, written here with nothing but [Int64]
   primitives, which a property test pins; calling [Cpu.eval_alu] would
   box every result, since [-opaque] builds inline nothing across
   modules. *)
let[@inline] ult (a : int64) (b : int64) = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

let[@inline] div (a : int64) b =
  if b = 0L then -1L
  else if b = -1L then Int64.neg a (* min_int / -1 wraps to min_int *)
  else Int64.div a b

let[@inline] rem (a : int64) b = if b = 0L then a else if b = -1L then 0L else Int64.rem a b
let[@inline] shamt (b : int64) = Int64.to_int b land 63
let[@inline] vpn_of va = Int64.to_int (Int64.shift_right_logical va Arch.page_shift)

let[@inline] frame_pa ppn va =
  (ppn lsl Arch.page_shift) lor (Int64.to_int va land (Arch.page_size - 1))

(* The ways out of a trace run.  They flush the batched instret delta
   and write the PC; they are closed top-level functions, so a run
   allocates nothing for them. *)
let fall s cyc ret early =
  s.Cpu.instret <- Int64.add s.Cpu.instret (Int64.of_int ret);
  Fall { cycles = cyc; early }

(* leave before op [i]; zero ops retired means nothing was touched *)
let leave s p page_base i cyc ret early =
  if ret = 0 then Bail
  else begin
    set_pc s.Cpu.regs (Int64.logor page_base (Int64.of_int p.offs.(i)));
    fall s cyc ret early
  end

(* a retired transfer to a target outside the trace; [early] when it is
   a branch direction the trace was not built along *)
let out s page_base delta cyc ret early =
  set_pc s.Cpu.regs (Int64.add page_base (Int64.of_int delta));
  fall s cyc ret early

(* a stop at op [i], which does not retire: the PC stays at it *)
let stop_at s p page_base i cyc ret stop =
  set_pc s.Cpu.regs (Int64.logor page_base (Int64.of_int p.offs.(i)));
  if ret > 0 then s.Cpu.instret <- Int64.add s.Cpu.instret (Int64.of_int ret);
  Stop { cycles = cyc; stop }

(* A load or store at op [i] whose translation failed with [code]: the
   interpreter's own outcome.  Traces run deprivileged only, where every
   data fault is an exit. *)
let fault s ctx p page_base i cyc ret access va code =
  match Cpu.data_fault s ctx access va code with
  | Cpu.Stop_exec (stop, c) -> stop_at s p page_base i (cyc + c) ret stop
  | Cpu.Retired _ -> assert false

(* A load or store at op [i] whose translation found a device: the
   interpreter's deprivileged MMIO exit, which costs [base_instr]. *)
let mmio s ctx p page_base i cyc ret exit =
  stop_at s p page_base i (cyc + ctx.Cpu.cost.Cost_model.base_instr) ret (Cpu.Exit exit)

(* After op [i]'s access went through the translator, which found the
   micro-TLB at generation [gen]: the trace may go on only while it is
   still live (a walk writes A/D bits, a store any byte) and a fetch
   from its page would still hit its code [frame] at zero cycles — the
   engine's [fetch_holds] rule, since the walk may have evicted the code
   page's TLB entry. *)
let still_holds p dtlb ~user page_base frame gen =
  !(p.live)
  && (Dtlb.generation dtlb = gen
     || Dtlb.lookup dtlb ~access:Arch.Fetch ~user (vpn_of page_base) = frame)

(* One dispatch per op: every arm is one instruction's whole semantics
   with its operands decoded at build time, followed by the fuel check
   that admits the next op (the engine runs an instruction only while
   consumed < fuel; the first op is always admitted).  [go] makes no
   call but tail calls, so the loop has no stack-limit check and keeps
   its state in registers; the loads and stores, which call into [Dtlb],
   [Phys_mem] and the translator, run in [side_op], which [go] and they
   tail-call in turn.
   [cyc] mirrors the engine's [consumed] delta: it starts at [xl], which
   is charged only if an op executes ([leave] bails on zero ops). *)
let exec p ~start ~s ~ctx ~user ~page_base ~frame ~fuel_left ~xl =
  if fuel_left <= 0 then Bail
  else begin
    let regs = s.Cpu.regs in
    let ops = p.ops in
    let rec go i cyc ret =
      match ops.(i) with
      | U_nop c ->
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_add { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (Int64.add (reg regs rs1) (reg regs rs2));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_sub { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (Int64.sub (reg regs rs1) (reg regs rs2));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_mul { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (Int64.mul (reg regs rs1) (reg regs rs2));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_div { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (div (reg regs rs1) (reg regs rs2));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_rem { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (rem (reg regs rs1) (reg regs rs2));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_and { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (Int64.logand (reg regs rs1) (reg regs rs2));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_or { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (Int64.logor (reg regs rs1) (reg regs rs2));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_xor { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (Int64.logxor (reg regs rs1) (reg regs rs2));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_sll { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (Int64.shift_left (reg regs rs1) (shamt (reg regs rs2)));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_srl { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (Int64.shift_right_logical (reg regs rs1) (shamt (reg regs rs2)));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_sra { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (Int64.shift_right (reg regs rs1) (shamt (reg regs rs2)));
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_slt { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (if reg regs rs1 < reg regs rs2 then 1L else 0L);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_sltu { rd; rs1; rs2; cyc = c } ->
          set_reg regs rd (if ult (reg regs rs1) (reg regs rs2) then 1L else 0L);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_addi { rd; rs1; imm; cyc = c } ->
          set_reg regs rd (Int64.add (reg regs rs1) imm);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_muli { rd; rs1; imm; cyc = c } ->
          set_reg regs rd (Int64.mul (reg regs rs1) imm);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_divi { rd; rs1; imm; cyc = c } ->
          set_reg regs rd (div (reg regs rs1) imm);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_remi { rd; rs1; imm; cyc = c } ->
          set_reg regs rd (rem (reg regs rs1) imm);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_andi { rd; rs1; imm; cyc = c } ->
          set_reg regs rd (Int64.logand (reg regs rs1) imm);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_ori { rd; rs1; imm; cyc = c } ->
          set_reg regs rd (Int64.logor (reg regs rs1) imm);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_xori { rd; rs1; imm; cyc = c } ->
          set_reg regs rd (Int64.logxor (reg regs rs1) imm);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_slli { rd; rs1; sh; cyc = c } ->
          set_reg regs rd (Int64.shift_left (reg regs rs1) sh);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_srli { rd; rs1; sh; cyc = c } ->
          set_reg regs rd (Int64.shift_right_logical (reg regs rs1) sh);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_srai { rd; rs1; sh; cyc = c } ->
          set_reg regs rd (Int64.shift_right (reg regs rs1) sh);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_slti { rd; rs1; imm; cyc = c } ->
          set_reg regs rd (if reg regs rs1 < imm then 1L else 0L);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_sltiu { rd; rs1; imm; cyc = c } ->
          set_reg regs rd (if ult (reg regs rs1) imm then 1L else 0L);
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | U_lui { rd; v; cyc = c } ->
          set_reg regs rd v;
          let cyc = cyc + c in
          if cyc < fuel_left then go (i + 1) cyc (ret + 1)
          else leave s p page_base (i + 1) cyc (ret + 1) false
      | (U_load _ | U_store _ | U_exit _) as u -> side_op u i cyc ret
      | U_beq { rs1; rs2; t_tgt; f_tgt; cyc = c } ->
          take (if reg regs rs1 = reg regs rs2 then t_tgt else f_tgt) (cyc + c) (ret + 1)
      | U_bne { rs1; rs2; t_tgt; f_tgt; cyc = c } ->
          take (if reg regs rs1 <> reg regs rs2 then t_tgt else f_tgt) (cyc + c) (ret + 1)
      | U_blt { rs1; rs2; t_tgt; f_tgt; cyc = c } ->
          take (if reg regs rs1 < reg regs rs2 then t_tgt else f_tgt) (cyc + c) (ret + 1)
      | U_bge { rs1; rs2; t_tgt; f_tgt; cyc = c } ->
          take (if reg regs rs1 >= reg regs rs2 then t_tgt else f_tgt) (cyc + c) (ret + 1)
      | U_bltu { rs1; rs2; t_tgt; f_tgt; cyc = c } ->
          take (if ult (reg regs rs1) (reg regs rs2) then t_tgt else f_tgt) (cyc + c) (ret + 1)
      | U_bgeu { rs1; rs2; t_tgt; f_tgt; cyc = c } ->
          take (if ult (reg regs rs1) (reg regs rs2) then f_tgt else t_tgt) (cyc + c) (ret + 1)
      | U_jal { rd; link; tgt; cyc = c } ->
          set_reg regs rd (Int64.add page_base (Int64.of_int link));
          take tgt (cyc + c) (ret + 1)
      | U_jalr { rd; link; rs1; imm; cyc = c } ->
          let target = Int64.add (reg regs rs1) imm in
          set_reg regs rd (Int64.add page_base (Int64.of_int link));
          set_pc regs target;
          fall s (cyc + c) (ret + 1) false
    (* a control transfer that retired: in-trace targets pass the fuel
       check like any next op, others leave with the target PC *)
    and take tgt cyc ret =
      match tgt with
      | Op j ->
          if cyc < fuel_left then go j cyc ret else leave s p page_base j cyc ret false
      | Out delta -> out s page_base delta cyc ret false
      | Side delta -> out s page_base delta cyc ret true
    (* Loads, stores and lowered slow instructions run here, out of
       [go]: loads and stores call into [Dtlb] and [Phys_mem], and the
       exit's eight-argument tail call would make [go] spill [cyc] to
       its frame and reload it on every op.  An aligned access that
       misses the micro-TLB calls the VM's own translator in place, as
       the engine's wrapped [translate] and [Cpu.exec_load]/[exec_store]
       do: a RAM translation fills the micro-TLB, makes the access and
       adds its walk cycles; a fault or a device stops the trace at the
       op with the interpreter's outcome.  A misaligned access
       side-exits before the op. *)
    and side_op u i cyc ret =
      let dtlb = ctx.Cpu.dtlb and mem = ctx.Cpu.mem in
      match u with
      | U_load { rd; base; off; width; amask; cyc = c } ->
          let va = Int64.add (reg regs base) off in
          if Int64.logand va amask <> 0L then leave s p page_base i cyc ret true
          else
            let ppn = Dtlb.lookup dtlb ~access:Arch.Load ~user (vpn_of va) in
            if ppn >= 0 then begin
              set_reg regs rd (Phys_mem.read_at mem (frame_pa ppn va) width);
              let cyc = cyc + c in
              if cyc < fuel_left then go (i + 1) cyc (ret + 1)
              else leave s p page_base (i + 1) cyc (ret + 1) false
            end
            else
              let gen = Dtlb.generation dtlb in
              let x = ctx.Cpu.translate ~access:Arch.Load ~user va in
              if x < 0 then fault s ctx p page_base i cyc ret Arch.Load va x
              else if Cpu.xl_mmio x then
                mmio s ctx p page_base i cyc ret
                  (Cpu.X_mmio_load { rd = rd lsr 3; pa = Int64.of_int (Cpu.xl_pa x); width })
              else begin
                Dtlb.fill dtlb ~access:Arch.Load ~user ~va;
                set_reg regs rd (Phys_mem.read_at mem (Cpu.xl_pa x) width);
                let cyc = cyc + c + Cpu.xl_cycles x in
                if not (still_holds p dtlb ~user page_base frame gen) then
                  leave s p page_base (i + 1) cyc (ret + 1) true
                else if cyc < fuel_left then go (i + 1) cyc (ret + 1)
                else leave s p page_base (i + 1) cyc (ret + 1) false
              end
      | U_store { src; base; off; width; amask; cyc = c } ->
          let va = Int64.add (reg regs base) off in
          if Int64.logand va amask <> 0L then leave s p page_base i cyc ret true
          else
            let ppn = Dtlb.lookup dtlb ~access:Arch.Store ~user (vpn_of va) in
            if ppn >= 0 then begin
              Phys_mem.write_at mem (frame_pa ppn va) width (reg regs src);
              let cyc = cyc + c in
              (* the write may have severed this very trace (a store
                 into a constituent block's bytes); the op retired, so
                 side-exit at the next op, like the engine's [b.valid]
                 continuation check *)
              if not !(p.live) then leave s p page_base (i + 1) cyc (ret + 1) true
              else if cyc < fuel_left then go (i + 1) cyc (ret + 1)
              else leave s p page_base (i + 1) cyc (ret + 1) false
            end
            else
              let gen = Dtlb.generation dtlb in
              let x = ctx.Cpu.translate ~access:Arch.Store ~user va in
              if x < 0 then fault s ctx p page_base i cyc ret Arch.Store va x
              else if Cpu.xl_mmio x then
                mmio s ctx p page_base i cyc ret
                  (Cpu.X_mmio_store
                     { pa = Int64.of_int (Cpu.xl_pa x); width; value = reg regs src })
              else begin
                Dtlb.fill dtlb ~access:Arch.Store ~user ~va;
                Phys_mem.write_at mem (Cpu.xl_pa x) width (reg regs src);
                let cyc = cyc + c + Cpu.xl_cycles x in
                if not (still_holds p dtlb ~user page_base frame gen) then
                  leave s p page_base (i + 1) cyc (ret + 1) true
                else if cyc < fuel_left then go (i + 1) cyc (ret + 1)
                else leave s p page_base (i + 1) cyc (ret + 1) false
              end
      | U_exit { stop; cyc = c } -> stop_at s p page_base i (cyc + c) ret stop
      | _ -> assert false (* [go] passes no other op *)
    in
    go start xl 0
  end
