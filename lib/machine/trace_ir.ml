open Velum_isa

type tgt = Op of int | Out of int

type uop =
  | U_nop of int
  | U_alu of { op : Instr.alu_op; rd : int; rs1 : int; rs2 : int; cyc : int }
  | U_alui of { op : Instr.alu_op; rd : int; rs1 : int; imm : int64; cyc : int }
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
  | U_branch of {
      op : Instr.branch_op;
      rs1 : int;
      rs2 : int;
      t_tgt : tgt;
      f_tgt : tgt;
      cyc : int;
    }
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
                  Some (U_alu { op; rd; rs1; rs2; cyc = base + Cpu.alu_cycles cost op })
              | Instr.Alui (op, rd, rs1, imm) ->
                  Some
                    (U_alui
                       {
                         op;
                         rd;
                         rs1;
                         imm = Cpu.alui_imm op imm;
                         cyc = base + Cpu.alu_cycles cost op;
                       })
              | Instr.Lui (rd, imm) ->
                  Some (U_lui { rd; v = Int64.shift_left imm 32; cyc = base })
              | Instr.Load { rd; base = b; off = o; width } ->
                  Some
                    (U_load
                       {
                         rd;
                         base = b;
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
                           src;
                           base = b;
                           off = o;
                           width;
                           amask = Int64.of_int (Instr.width_bytes width - 1);
                           cyc = mem;
                         })
              | Instr.Branch (op, rs1, rs2, delta) when last ->
                  Some
                    (U_branch
                       {
                         op;
                         rs1;
                         rs2;
                         t_tgt = resolve (off + Int64.to_int delta);
                         f_tgt = resolve (off + ib);
                         cyc = base;
                       })
              | Instr.Jal (rd, delta) when last ->
                  Some
                    (U_jal
                       {
                         rd;
                         link = off + ib;
                         tgt = resolve (off + Int64.to_int delta);
                         cyc = base;
                       })
              | Instr.Jalr (rd, rs1, imm) when last ->
                  Some (U_jalr { rd; link = off + ib; rs1; imm; cyc = base })
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
   exports: inlined here, unboxed, no bounds check (register indices are
   4-bit decoder fields). *)
let pc_slot = Cpu.pc_slot
let[@inline] reg regs r = Cpu.slot_get regs (r lsl 3)
let[@inline] set_reg regs r v = if r <> 0 then Cpu.slot_set regs (r lsl 3) v
let[@inline] set_pc regs v = Cpu.slot_set regs pc_slot v

(* The ALU and branch semantics of [Cpu.eval_alu]/[Cpu.eval_branch],
   written here with nothing but [Int64] primitives.  Trace ops call
   them only from positions where the compiler inlines them, so no arm
   boxes its result; a single arm that called out of the module would
   make every arm allocate. *)
let[@inline] ult (a : int64) (b : int64) = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

let[@inline] alu op (a : int64) (b : int64) =
  match op with
  | Instr.Add -> Int64.add a b
  | Instr.Sub -> Int64.sub a b
  | Instr.Mul -> Int64.mul a b
  | Instr.Div ->
      if b = 0L then -1L
      else if b = -1L then Int64.neg a (* min_int / -1 wraps to min_int *)
      else Int64.div a b
  | Instr.Rem -> if b = 0L then a else if b = -1L then 0L else Int64.rem a b
  | Instr.And -> Int64.logand a b
  | Instr.Or -> Int64.logor a b
  | Instr.Xor -> Int64.logxor a b
  | Instr.Sll -> Int64.shift_left a (Int64.to_int b land 63)
  | Instr.Srl -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Instr.Sra -> Int64.shift_right a (Int64.to_int b land 63)
  | Instr.Slt -> if a < b then 1L else 0L
  | Instr.Sltu -> if ult a b then 1L else 0L

let[@inline] branch op (a : int64) (b : int64) =
  match op with
  | Instr.Beq -> a = b
  | Instr.Bne -> a <> b
  | Instr.Blt -> a < b
  | Instr.Bge -> a >= b
  | Instr.Bltu -> ult a b
  | Instr.Bgeu -> not (ult a b)

let exec p ~start ~s ~dtlb ~mem ~user ~page_base ~fuel_left ~xl =
  if fuel_left <= 0 then Bail
  else begin
    let regs = s.Cpu.regs in
    let ops = p.ops and offs = p.offs and live = p.live in
    (* [cyc] mirrors the engine's [consumed] delta (including [xl] once
       the first op executes); [ret] is the batched instret delta; [xlp]
       is the still-uncharged fetch-translation cost. *)
    let retire ret = s.Cpu.instret <- Int64.add s.Cpu.instret (Int64.of_int ret) in
    let leave i cyc ret early =
      if ret = 0 then Bail
      else begin
        set_pc regs (Int64.logor page_base (Int64.of_int offs.(i)));
        retire ret;
        Fall { cycles = cyc; early }
      end
    in
    let out delta cyc ret =
      set_pc regs (Int64.add page_base (Int64.of_int delta));
      retire ret;
      Fall { cycles = cyc; early = false }
    in
    let rec go i cyc ret xlp =
      (* the engine runs an instruction only while consumed < fuel; the
         first op is always admitted (cyc = 0 < fuel_left) *)
      if cyc >= fuel_left then leave i cyc ret false
      else
        match ops.(i) with
        | U_nop c -> go (i + 1) (cyc + c + xlp) (ret + 1) 0
        | U_alu { op; rd; rs1; rs2; cyc = c } ->
            set_reg regs rd (alu op (reg regs rs1) (reg regs rs2));
            go (i + 1) (cyc + c + xlp) (ret + 1) 0
        | U_alui { op; rd; rs1; imm; cyc = c } ->
            set_reg regs rd (alu op (reg regs rs1) imm);
            go (i + 1) (cyc + c + xlp) (ret + 1) 0
        | U_lui { rd; v; cyc = c } ->
            set_reg regs rd v;
            go (i + 1) (cyc + c + xlp) (ret + 1) 0
        | U_load { rd; base; off; width; amask; cyc = c } ->
            let va = Int64.add (reg regs base) off in
            if Int64.logand va amask <> 0L then leave i cyc ret true
            else
              let pa = Dtlb.lookup dtlb ~access:Arch.Load ~user va in
              if pa < 0 then leave i cyc ret true
              else begin
                set_reg regs rd (Phys_mem.read_at mem pa width);
                go (i + 1) (cyc + c + xlp) (ret + 1) 0
              end
        | U_store { src; base; off; width; amask; cyc = c } ->
            let va = Int64.add (reg regs base) off in
            if Int64.logand va amask <> 0L then leave i cyc ret true
            else
              let pa = Dtlb.lookup dtlb ~access:Arch.Store ~user va in
              if pa < 0 then leave i cyc ret true
              else begin
                Phys_mem.write_at mem pa width (reg regs src);
                (* the write may have severed this very trace (a store
                   into a constituent block's bytes); the op retired,
                   so side-exit at the next op, like the engine's
                   [b.valid] continuation check *)
                if !live then go (i + 1) (cyc + c + xlp) (ret + 1) 0
                else leave (i + 1) (cyc + c + xlp) (ret + 1) true
              end
        | U_branch { op; rs1; rs2; t_tgt; f_tgt; cyc = c } -> (
            match if branch op (reg regs rs1) (reg regs rs2) then t_tgt else f_tgt with
            | Op j -> go j (cyc + c + xlp) (ret + 1) 0
            | Out delta -> out delta (cyc + c + xlp) (ret + 1))
        | U_jal { rd; link; tgt; cyc = c } -> (
            set_reg regs rd (Int64.add page_base (Int64.of_int link));
            match tgt with
            | Op j -> go j (cyc + c + xlp) (ret + 1) 0
            | Out delta -> out delta (cyc + c + xlp) (ret + 1))
        | U_jalr { rd; link; rs1; imm; cyc = c } ->
            let target = Int64.add (reg regs rs1) imm in
            set_reg regs rd (Int64.add page_base (Int64.of_int link));
            set_pc regs target;
            retire (ret + 1);
            Fall { cycles = cyc + c + xlp; early = false }
        | U_exit { stop; cyc = c } ->
            set_pc regs (Int64.logor page_base (Int64.of_int offs.(i)));
            if ret > 0 then retire ret;
            Stop { cycles = cyc + c + xlp; stop }
    in
    go start 0 0 xl
  end
