(** Straight-line block decoding for the translation-caching execution
    engine.

    A {e block} is a maximal run of instructions starting at some byte
    offset that an engine may execute without re-consulting memory:
    decoding stops at (and includes) the first {e terminator} — any
    control transfer (branch, jump), trap-raising instruction (ecall,
    ebreak, hypercall) or sensitive/privileged instruction (CSR access,
    [sret], [sfence], [wfi], port I/O, [halt]) — because after such an
    instruction the PC, privilege mode or translation regime may have
    changed.  Blocks never cross a page-frame boundary, so every
    instruction of a block shares one fetch translation. *)

val is_terminator : Instr.t -> bool
(** Ends a straight-line block (the terminator itself is still part of
    the block): every control transfer and every trapping or sensitive
    instruction.  Only [Nop], [Alu], [Alui], [Lui], [Load] and [Store]
    continue a block. *)

val preserves_translation_unconditionally : Instr.t -> bool
(** Executing the instruction touches no memory (so it cannot evict or
    fill TLB entries), cannot trap (mode unchanged) and cannot write
    [satp] or flush.  True exactly for [Nop], [Alu], [Alui], [Lui],
    [Branch], [Jal] and [Jalr]. *)

val decode_span : read_word:(int -> int64) -> max_instrs:int -> Instr.t array
(** [decode_span ~read_word ~max_instrs] decodes instruction words
    [read_word 0], [read_word 1], … into a straight-line block: decoding
    stops after the first terminator, before the first word that fails
    to decode, or after [max_instrs] instructions, whichever comes
    first.  The result may be empty (first word undecodable). *)
