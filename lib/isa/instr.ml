open Velum_util

type alu_op =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Slt
  | Sltu

type branch_op = Beq | Bne | Blt | Bge | Bltu | Bgeu

type width = W8 | W16 | W32 | W64

let width_bytes = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

type t =
  | Nop
  | Alu of alu_op * Arch.reg * Arch.reg * Arch.reg
  | Alui of alu_op * Arch.reg * Arch.reg * int64
  | Lui of Arch.reg * int64
  | Load of { rd : Arch.reg; base : Arch.reg; off : int64; width : width }
  | Store of { src : Arch.reg; base : Arch.reg; off : int64; width : width }
  | Branch of branch_op * Arch.reg * Arch.reg * int64
  | Jal of Arch.reg * int64
  | Jalr of Arch.reg * Arch.reg * int64
  | Ecall
  | Ebreak
  | Csrr of Arch.reg * Arch.csr
  | Csrw of Arch.csr * Arch.reg
  | Sret
  | Sfence
  | Wfi
  | In of Arch.reg * int
  | Out of int * Arch.reg
  | Hcall
  | Halt

let is_privileged = function
  | Csrr _ | Csrw _ | Sret | Sfence | Wfi | In _ | Out _ | Halt -> true
  | Nop | Alu _ | Alui _ | Lui _ | Load _ | Store _ | Branch _ | Jal _ | Jalr _
  | Ecall | Ebreak | Hcall ->
      false

(* Opcode assignments.  Gaps are illegal encodings. *)
let op_nop = 0x01
let op_alu = 0x02
let op_alui = 0x03
let op_lui = 0x04
let op_load = 0x05
let op_store = 0x06
let op_branch = 0x07
let op_jal = 0x08
let op_jalr = 0x09
let op_ecall = 0x0a
let op_ebreak = 0x0b
let op_csrr = 0x0c
let op_csrw = 0x0d
let op_sret = 0x0e
let op_sfence = 0x0f
let op_wfi = 0x10
let op_in = 0x11
let op_out = 0x12
let op_hcall = 0x13
let op_halt = 0x14

let alu_code = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Sll -> 8
  | Srl -> 9
  | Sra -> 10
  | Slt -> 11
  | Sltu -> 12

let alu_ops = [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu ]

let alui_valid = function
  | Add | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu -> true
  | Sub | Mul | Div | Rem -> false

(* Decode tables: one slot per value of the 8-bit aux field, filled from
   the code functions above, so decoding a sub-op is one array load. *)
let aux_table code ops =
  let a = Array.make 256 None in
  List.iter (fun op -> a.(code op) <- Some op) ops;
  a

let alu_by_aux = aux_table alu_code alu_ops
let alui_by_aux = aux_table alu_code (List.filter alui_valid alu_ops)

let branch_code = function
  | Beq -> 0
  | Bne -> 1
  | Blt -> 2
  | Bge -> 3
  | Bltu -> 4
  | Bgeu -> 5

let branch_by_aux = aux_table branch_code [ Beq; Bne; Blt; Bge; Bltu; Bgeu ]
let width_code = function W8 -> 0 | W16 -> 1 | W32 -> 2 | W64 -> 3
let width_by_aux = aux_table width_code [ W8; W16; W32; W64 ]

let check_reg r =
  if r < 0 || r >= Arch.num_regs then invalid_arg "Instr.encode: bad register"

let check_imm imm =
  if imm < Int64.neg 0x8000_0000L || imm > 0xFFFF_FFFFL then
    invalid_arg "Instr.encode: immediate does not fit in 32 bits"

let pack ~opcode ?(rd = 0) ?(rs1 = 0) ?(rs2 = 0) ?(aux = 0) ?(imm = 0L) () =
  check_reg rd;
  check_reg rs1;
  check_reg rs2;
  if aux < 0 || aux > 0xff then invalid_arg "Instr.encode: bad aux field";
  check_imm imm;
  let w = Int64.of_int (opcode land 0xff) in
  let w = Bitops.insert w ~lo:8 ~width:4 (Int64.of_int rd) in
  let w = Bitops.insert w ~lo:12 ~width:4 (Int64.of_int rs1) in
  let w = Bitops.insert w ~lo:16 ~width:4 (Int64.of_int rs2) in
  let w = Bitops.insert w ~lo:20 ~width:8 (Int64.of_int aux) in
  Bitops.insert w ~lo:32 ~width:32 imm

let encode = function
  | Nop -> pack ~opcode:op_nop ()
  | Alu (op, rd, rs1, rs2) -> pack ~opcode:op_alu ~rd ~rs1 ~rs2 ~aux:(alu_code op) ()
  | Alui (op, rd, rs1, imm) ->
      if not (alui_valid op) then invalid_arg "Instr.encode: invalid immediate ALU op";
      pack ~opcode:op_alui ~rd ~rs1 ~aux:(alu_code op) ~imm ()
  | Lui (rd, imm) -> pack ~opcode:op_lui ~rd ~imm ()
  | Load { rd; base; off; width } ->
      pack ~opcode:op_load ~rd ~rs1:base ~aux:(width_code width) ~imm:off ()
  | Store { src; base; off; width } ->
      pack ~opcode:op_store ~rs1:base ~rs2:src ~aux:(width_code width) ~imm:off ()
  | Branch (op, rs1, rs2, off) ->
      pack ~opcode:op_branch ~rs1 ~rs2 ~aux:(branch_code op) ~imm:off ()
  | Jal (rd, off) -> pack ~opcode:op_jal ~rd ~imm:off ()
  | Jalr (rd, rs1, imm) -> pack ~opcode:op_jalr ~rd ~rs1 ~imm ()
  | Ecall -> pack ~opcode:op_ecall ()
  | Ebreak -> pack ~opcode:op_ebreak ()
  | Csrr (rd, csr) -> pack ~opcode:op_csrr ~rd ~aux:(Arch.csr_index csr) ()
  | Csrw (csr, rs1) -> pack ~opcode:op_csrw ~rs1 ~aux:(Arch.csr_index csr) ()
  | Sret -> pack ~opcode:op_sret ()
  | Sfence -> pack ~opcode:op_sfence ()
  | Wfi -> pack ~opcode:op_wfi ()
  | In (rd, port) ->
      if port < 0 || port > 0xffff then invalid_arg "Instr.encode: bad port";
      pack ~opcode:op_in ~rd ~imm:(Int64.of_int port) ()
  | Out (port, rs1) ->
      if port < 0 || port > 0xffff then invalid_arg "Instr.encode: bad port";
      pack ~opcode:op_out ~rs1 ~imm:(Int64.of_int port) ()
  | Hcall -> pack ~opcode:op_hcall ()
  | Halt -> pack ~opcode:op_halt ()

(* Fields come straight off the low word with fixed shifts and masks,
   immediates off the high word, and opcodes are literal match cases (a
   jump table); the [op_*] names above are the same numbers.  The
   interpreter decodes every instruction it executes. *)
let decode w =
  let lo = Int64.to_int w in
  if (lo lsr 28) land 0xf <> 0 then None
  else
    let rd = (lo lsr 8) land 0xf
    and rs1 = (lo lsr 12) land 0xf
    and rs2 = (lo lsr 16) land 0xf
    and aux = (lo lsr 20) land 0xff in
    match lo land 0xff with
    | 0x01 -> Some Nop
    | 0x02 -> (
        match alu_by_aux.(aux) with
        | Some op -> Some (Alu (op, rd, rs1, rs2))
        | None -> None)
    | 0x03 -> (
        match alui_by_aux.(aux) with
        | Some op ->
            (* Bitwise/shift immediates were stored zero-extended, the
               rest sign-extended; the execution semantics re-extend, so
               surface the raw signed view uniformly here. *)
            Some (Alui (op, rd, rs1, Int64.shift_right w 32))
        | None -> None)
    | 0x04 -> Some (Lui (rd, Int64.shift_right_logical w 32))
    | 0x05 -> (
        match width_by_aux.(aux) with
        | Some width -> Some (Load { rd; base = rs1; off = Int64.shift_right w 32; width })
        | None -> None)
    | 0x06 -> (
        match width_by_aux.(aux) with
        | Some width ->
            Some (Store { src = rs2; base = rs1; off = Int64.shift_right w 32; width })
        | None -> None)
    | 0x07 -> (
        match branch_by_aux.(aux) with
        | Some op -> Some (Branch (op, rs1, rs2, Int64.shift_right w 32))
        | None -> None)
    | 0x08 -> Some (Jal (rd, Int64.shift_right w 32))
    | 0x09 -> Some (Jalr (rd, rs1, Int64.shift_right w 32))
    | 0x0a -> Some Ecall
    | 0x0b -> Some Ebreak
    | 0x0c -> (
        match Arch.csr_of_index aux with
        | Some csr -> Some (Csrr (rd, csr))
        | None -> None)
    | 0x0d -> (
        match Arch.csr_of_index aux with
        | Some csr -> Some (Csrw (csr, rs1))
        | None -> None)
    | 0x0e -> Some Sret
    | 0x0f -> Some Sfence
    | 0x10 -> Some Wfi
    | 0x11 -> Some (In (rd, Int64.to_int (Int64.shift_right_logical w 32)))
    | 0x12 -> Some (Out (Int64.to_int (Int64.shift_right_logical w 32), rs1))
    | 0x13 -> Some Hcall
    | 0x14 -> Some Halt
    | _ -> None

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Slt -> "slt"
  | Sltu -> "sltu"

let branch_name = function
  | Beq -> "beq"
  | Bne -> "bne"
  | Blt -> "blt"
  | Bge -> "bge"
  | Bltu -> "bltu"
  | Bgeu -> "bgeu"

let width_name = function W8 -> "w8" | W16 -> "w16" | W32 -> "w32" | W64 -> "w64"

let pp ppf i =
  let r = Arch.reg_name in
  match i with
  | Nop -> Format.pp_print_string ppf "nop"
  | Alu (op, rd, rs1, rs2) ->
      Format.fprintf ppf "%s %s, %s, %s" (alu_name op) (r rd) (r rs1) (r rs2)
  | Alui (op, rd, rs1, imm) ->
      Format.fprintf ppf "%si %s, %s, %Ld" (alu_name op) (r rd) (r rs1) imm
  | Lui (rd, imm) -> Format.fprintf ppf "lui %s, 0x%Lx" (r rd) imm
  | Load { rd; base; off; width } ->
      Format.fprintf ppf "ld.%s %s, %Ld(%s)" (width_name width) (r rd) off (r base)
  | Store { src; base; off; width } ->
      Format.fprintf ppf "st.%s %s, %Ld(%s)" (width_name width) (r src) off (r base)
  | Branch (op, rs1, rs2, off) ->
      Format.fprintf ppf "%s %s, %s, %Ld" (branch_name op) (r rs1) (r rs2) off
  | Jal (rd, off) -> Format.fprintf ppf "jal %s, %Ld" (r rd) off
  | Jalr (rd, rs1, imm) -> Format.fprintf ppf "jalr %s, %Ld(%s)" (r rd) imm (r rs1)
  | Ecall -> Format.pp_print_string ppf "ecall"
  | Ebreak -> Format.pp_print_string ppf "ebreak"
  | Csrr (rd, csr) -> Format.fprintf ppf "csrr %s, %s" (r rd) (Arch.csr_name csr)
  | Csrw (csr, rs1) -> Format.fprintf ppf "csrw %s, %s" (Arch.csr_name csr) (r rs1)
  | Sret -> Format.pp_print_string ppf "sret"
  | Sfence -> Format.pp_print_string ppf "sfence"
  | Wfi -> Format.pp_print_string ppf "wfi"
  | In (rd, port) -> Format.fprintf ppf "in %s, 0x%x" (r rd) port
  | Out (port, rs1) -> Format.fprintf ppf "out 0x%x, %s" port (r rs1)
  | Hcall -> Format.pp_print_string ppf "hcall"
  | Halt -> Format.pp_print_string ppf "halt"

let to_string i = Format.asprintf "%a" pp i
