let is_terminator = function
  | Instr.Nop | Instr.Alu _ | Instr.Alui _ | Instr.Lui _ | Instr.Load _
  | Instr.Store _ ->
      false
  | Instr.Branch _ | Instr.Jal _ | Instr.Jalr _ | Instr.Ecall | Instr.Ebreak
  | Instr.Hcall | Instr.Csrr _ | Instr.Csrw _ | Instr.Sret | Instr.Sfence
  | Instr.Wfi | Instr.In _ | Instr.Out _ | Instr.Halt ->
      true

let preserves_translation_unconditionally = function
  | Instr.Nop | Instr.Alu _ | Instr.Alui _ | Instr.Lui _ | Instr.Branch _
  | Instr.Jal _ | Instr.Jalr _ ->
      true
  | _ -> false

let decode_span ~read_word ~max_instrs =
  let rec go i acc =
    if i >= max_instrs then acc
    else
      match Instr.decode (read_word i) with
      | None -> acc
      | Some insn when is_terminator insn -> insn :: acc
      | Some insn -> go (i + 1) (insn :: acc)
  in
  Array.of_list (List.rev (go 0 []))
