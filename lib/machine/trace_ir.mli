(** Superblock trace IR: the compiled form of a hot multi-block path.

    The block engine's next tier above block dispatch ({!Trans_cache}):
    instead of dispatching block→block through the cache, a hot path of
    decoded blocks is lowered once into a small linear IR and then
    executed op after op with {e no} per-instruction dispatch overhead.
    The lowering bakes in everything that is static along the trace:

    - {b Cost fusion.}  Every op carries its exact interpreter cycle
      cost as a constant (base, ALU sub-op extra, memory access); the
      executor accumulates a single int and charges it in one piece at
      the exit, reconciled per-op only against the fuel budget.
    - {b Guard elimination.}  Interior ops carry no mode/paging/
      generation guards.  This is sound because traces run only
      deprivileged (no interrupt window between instructions), interior
      ops are all [Fast]-class (mode and [satp] cannot change — every
      slow instruction is lowered as a trace-terminating {!uop.U_exit}
      with a fully static exit payload), and the only thing that can
      move the {!Tlb.generation} the entry guard certified is a load or
      store that went through the translator: after one that moved it,
      the trace goes on only while a fetch from its page still hits its
      code frame, and otherwise side-exits at the next op.
    - {b Micro-TLB inlining.}  Trace loads/stores call {!Dtlb.lookup}
      directly.  A miss calls the VM's own translator in place, exactly
      as the engine's block path would: a RAM translation fills the
      micro-TLB, makes the access and charges its walk cycles; a fault
      or a device stops the trace at the op with the interpreter's own
      outcome ({!Cpu.data_fault}, or the MMIO exit), so no op is ever
      translated twice.  Only a misaligned access side-exits {e before}
      the op, for the engine's block path to handle.
    - {b No boxing.}  Registers and the PC are read and written through
      the {!Cpu.slot_get}/{!Cpu.slot_set} primitives, and every ALU op
      and branch is evaluated by this module's own [Int64] primitives
      ({!Cpu.eval_alu}'s semantics, which a property test pins), so an
      ALU or branch op allocates nothing.  Calling [Cpu.eval_alu] would
      box every result: with [-opaque] builds no function is inlined
      across modules.
    - {b One dispatch, no calls.}  Each lowered instruction is a uop
      of its own with its operands decoded, so running it is one
      dispatch on the uop's tag.  The dispatch loop makes no call that
      is not a tail call (a non-tail call would give it a stack-limit
      check, a frame and register spills on every op); loads, stores
      and slow-instruction exits run in a sibling function that it
      tail-calls and that tail-calls it back.
    - {b Static PCs.}  Every op's PC is a build-time page offset; the
      architectural [pc] is written only at (side) exits, never per op.
      Branch/jump targets inside the trace are resolved to op indices
      (loops run entirely inside the trace); all others leave with the
      target PC materialised from the entry page base.

    The module is pure with respect to {!Trans_cache}: it sees only
    instruction arrays with their page offsets.  The cache owns trace
    storage, promotion and invalidation; the engine owns dispatch. *)

open Velum_isa

(** Where a lowered control transfer lands: an op index inside the trace
    (resolved statically, including loop back-edges), or outside the
    trace at a byte delta from the entry page base (possibly negative or
    beyond the page for cross-page targets).  [Side] is an outside
    target of a branch whose other target is inside: leaving through it
    takes the direction promotion did not build, a side exit. *)
type tgt = Op of int | Out of int | Side of int

(** One op per lowered instruction, each its own constructor, so that
    executing an op is a single dispatch on its tag.  Operands are
    decoded at build time: registers as their byte offsets in
    [Cpu.state.regs] (8 times the register number, so [r0] is 0),
    immediates already folded through {!Cpu.alui_imm} (immediate shift
    amounts as [int], 0..63), and [cyc], the op's exact interpreter
    cycle cost.  The reg-reg ALU ops compute [rd <- rs1 op rs2], the
    immediate ones [rd <- rs1 op imm], with {!Cpu.eval_alu}'s semantics
    (the decoder produces no immediate [Sub], [Mul], [Div] or [Rem]; an
    immediate [Sub] lowers to {!U_addi} of the negated immediate, the
    others to their own ops).  Writes to [r0] are dropped.  A branch
    compares [rs1] with [rs2] as {!Cpu.eval_branch} does and continues
    at [t_tgt] when the comparison holds, at [f_tgt] otherwise. *)
type uop =
  | U_nop of int  (** cycles *)
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
      (** bitwise immediates are the zero-extended low 32 bits *)
  | U_ori of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_xori of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_slli of { rd : int; rs1 : int; sh : int; cyc : int }
  | U_srli of { rd : int; rs1 : int; sh : int; cyc : int }
  | U_srai of { rd : int; rs1 : int; sh : int; cyc : int }
  | U_slti of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_sltiu of { rd : int; rs1 : int; imm : int64; cyc : int }
  | U_lui of { rd : int; v : int64; cyc : int }  (** [v] already shifted *)
  | U_load of {
      rd : int;
      base : int;
      off : int64;
      width : Instr.width;
      amask : int64;  (** alignment mask ([width_bytes - 1]) *)
      cyc : int;  (** micro-TLB-hit cost: base + mem_access *)
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
      (** [link] is the static return page offset (op offset + 8) *)
  | U_jalr of { rd : int; link : int; rs1 : int; imm : int64; cyc : int }
      (** always leaves the trace (dynamic target) *)
  | U_exit of { stop : Cpu.stop; cyc : int }
      (** a deprivileged slow instruction: the exact static
          [Stop_exec] payload the interpreter would produce, with the PC
          left {e at} the instruction *)

type prog = {
  ops : uop array;
  offs : int array;  (** static page offset of each op *)
  entry_off : int;  (** page offset of [ops.(0)] *)
  live : bool ref;
      (** cleared by the owning cache when any constituent block is
          invalidated; checked at entry and after every store *)
}

(** One constituent decoded block: its instructions and the page offset
    of the first one.  All segments of a trace live in the same physical
    frame and execution regime. *)
type segment = { seg_insns : Instr.t array; seg_off : int }

val build : cost:Cost_model.t -> segments:segment list -> prog option
(** Lower [segments] (in predicted execution order) into a trace
    program.  Junctions are wired statically: each segment must end in a
    terminator (branch, jal, jalr or a slow instruction); branch/jal
    targets falling inside any segment's span become in-trace op-index
    transfers, everything else an exit ([Side] for a branch direction
    whose other one stays inside, [Out] otherwise).  Returns [None] when
    the segments are not lowerable (an unterminated segment, or a slow
    instruction in a non-final position) — callers treat that as
    "promotion refused", never as an error. *)

(** Result of one trace execution.  [Fall]: the trace was left with the
    PC written and [instret] flushed; [cycles] includes the fetch
    translation cycles passed as [xl].  [early] marks a side exit (a
    branch leaving through a [Side] target, a misaligned access, the
    trace being severed mid-run, or its code page lost to a
    translation) as opposed to an architectural exit or fuel expiry.
    [Stop]: a lowered slow instruction produced its static stop, or a
    load or store its fault or MMIO exit, with the PC at that op.
    [Bail]: zero ops executed and {e nothing} was touched (the caller
    must fall back to the plain block path to guarantee progress). *)
type outcome =
  | Fall of { cycles : int; early : bool }
  | Stop of { cycles : int; stop : Cpu.stop }
  | Bail

val exec :
  prog ->
  start:int ->
  s:Cpu.state ->
  ctx:Cpu.ctx ->
  user:bool ->
  page_base:int64 ->
  frame:int ->
  fuel_left:int ->
  xl:int ->
  outcome
(** Run the trace from op index [start] (the dispatcher maps the entry
    PC's page offset into the first segment).  [ctx] is the hart's
    deprivileged context: its [translate] is the VM's own translator
    (not one served from the micro-TLB), and its [dtlb], [mem] and
    [cost] are the ones the trace runs against.  The caller certifies at
    entry exactly what a micro-TLB fetch hit certifies for a block: the
    PC is aligned in a page whose fetch translation is a zero-cycle hit
    into [frame] under the current micro-TLB generation, [user] matches
    the trace's regime, and [ctx.cost] is the model the trace was built
    with.  [fuel_left] must be positive; [xl] is charged on the first
    executed op, exactly as the engine charges fetch-translation
    cycles. *)
