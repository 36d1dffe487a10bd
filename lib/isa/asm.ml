let r0 = 0
let r1 = 1
let r2 = 2
let r3 = 3
let r4 = 4
let r5 = 5
let r6 = 6
let r7 = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let r14 = 14
let r15 = 15

type item =
  | Label of string
  | Insn of Instr.t
  | Branch_to of Instr.branch_op * Arch.reg * Arch.reg * string
  | Jal_to of Arch.reg * string
  | La of Arch.reg * string
  | Li of Arch.reg * int64
  | Ld_abs of Arch.reg * string
  | Sd_abs of Arch.reg * string
  | Dword of int64
  | Bytes_lit of string
  | Space of int
  | Align of int

let nop = Insn Instr.Nop
let alu op rd rs1 rs2 = Insn (Instr.Alu (op, rd, rs1, rs2))
let alui op rd rs1 imm = Insn (Instr.Alui (op, rd, rs1, imm))
let add = alu Instr.Add
let sub = alu Instr.Sub
let mul = alu Instr.Mul
let div = alu Instr.Div
let rem = alu Instr.Rem
let and_ = alu Instr.And
let or_ = alu Instr.Or
let xor = alu Instr.Xor
let sll = alu Instr.Sll
let srl = alu Instr.Srl
let slt = alu Instr.Slt
let addi = alui Instr.Add
let andi = alui Instr.And
let ori = alui Instr.Or
let xori = alui Instr.Xor
let slli = alui Instr.Sll
let srli = alui Instr.Srl
let mv rd rs = addi rd rs 0L
let li rd v = Li (rd, v)
let la rd sym = La (rd, sym)
let ldl rd sym = Ld_abs (rd, sym)
let sdl src sym = Sd_abs (src, sym)
let ld rd base off = Insn (Instr.Load { rd; base; off; width = Instr.W64 })
let sd src base off = Insn (Instr.Store { src; base; off; width = Instr.W64 })
let lb rd base off = Insn (Instr.Load { rd; base; off; width = Instr.W8 })
let sb src base off = Insn (Instr.Store { src; base; off; width = Instr.W8 })
let beq a b t = Branch_to (Instr.Beq, a, b, t)
let bne a b t = Branch_to (Instr.Bne, a, b, t)
let blt a b t = Branch_to (Instr.Blt, a, b, t)
let bge a b t = Branch_to (Instr.Bge, a, b, t)
let bltu a b t = Branch_to (Instr.Bltu, a, b, t)
let bgeu a b t = Branch_to (Instr.Bgeu, a, b, t)
let jmp t = Jal_to (r0, t)
let call t = Jal_to (r15, t)
let ret = Insn (Instr.Jalr (r0, r15, 0L))
let jalr rd rs1 imm = Insn (Instr.Jalr (rd, rs1, imm))
let ecall = Insn Instr.Ecall
let ebreak = Insn Instr.Ebreak
let csrr rd csr = Insn (Instr.Csrr (rd, csr))
let csrw csr rs = Insn (Instr.Csrw (csr, rs))
let sret = Insn Instr.Sret
let sfence = Insn Instr.Sfence
let wfi = Insn Instr.Wfi
let inp rd port = Insn (Instr.In (rd, port))
let outp port rs = Insn (Instr.Out (port, rs))
let hcall = Insn Instr.Hcall
let halt = Insn Instr.Halt
let label name = Label name

type image = {
  origin : int64;
  code : Bytes.t;
  symbols : (string * int64) list;
}

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let ibytes = Arch.instr_bytes

let fits_signed32 v = v >= Int64.neg 0x8000_0000L && v <= 0x7FFF_FFFFL

let li_size v = if fits_signed32 v then ibytes else 2 * ibytes

let size_of = function
  | Label _ -> 0
  | Insn _ | Branch_to _ | Jal_to _ | La _ | Ld_abs _ | Sd_abs _ -> ibytes
  | Li (_, v) -> li_size v
  | Dword _ -> 8
  | Bytes_lit s -> String.length s
  | Space n -> n
  | Align _ -> 0

let align_pad addr a =
  if a <= 0 || a land (a - 1) <> 0 then err "align %d is not a power of two" a;
  let m = Int64.rem addr (Int64.of_int a) in
  if m = 0L then 0 else a - Int64.to_int m

(* Pass 1: compute each label's absolute address. *)
let layout ~origin items =
  let tbl = Hashtbl.create 64 in
  let addr = ref origin in
  List.iter
    (fun item ->
      (match item with
      | Label name ->
          if Hashtbl.mem tbl name then err "duplicate label %S" name;
          Hashtbl.add tbl name !addr
      | _ -> ());
      let sz =
        match item with
        | Align a -> align_pad !addr a
        | other -> size_of other
      in
      addr := Int64.add !addr (Int64.of_int sz))
    items;
  (tbl, Int64.to_int (Int64.sub !addr origin))

let assemble ?(origin = 0L) items =
  if Int64.rem origin (Int64.of_int ibytes) <> 0L then
    err "origin 0x%Lx is not instruction aligned" origin;
  let symbols, total = layout ~origin items in
  let lookup name =
    match Hashtbl.find_opt symbols name with
    | Some a -> a
    | None -> err "undefined label %S" name
  in
  let buf = Bytes.make total '\000' in
  let addr = ref origin in
  let off () = Int64.to_int (Int64.sub !addr origin) in
  let emit_word w =
    Bytes.set_int64_le buf (off ()) w;
    addr := Int64.add !addr 8L
  in
  let emit_insn i =
    if Int64.rem !addr (Int64.of_int ibytes) <> 0L then
      err "instruction at 0x%Lx is misaligned" !addr;
    emit_word (Instr.encode i)
  in
  List.iter
    (fun item ->
      match item with
      | Label _ -> ()
      | Insn i -> emit_insn i
      | Branch_to (op, a, b, target) ->
          let delta = Int64.sub (lookup target) !addr in
          if not (fits_signed32 delta) then err "branch to %S out of range" target;
          emit_insn (Instr.Branch (op, a, b, delta))
      | Jal_to (rd, target) ->
          let delta = Int64.sub (lookup target) !addr in
          if not (fits_signed32 delta) then err "jump to %S out of range" target;
          emit_insn (Instr.Jal (rd, delta))
      | La (rd, target) ->
          let a = lookup target in
          if not (fits_signed32 a) then err "address of %S does not fit in la" target;
          emit_insn (Instr.Alui (Instr.Add, rd, r0, a))
      | Ld_abs (rd, target) ->
          let a = lookup target in
          if not (fits_signed32 a) then err "address of %S does not fit in ld" target;
          emit_insn (Instr.Load { rd; base = r0; off = a; width = Instr.W64 })
      | Sd_abs (src, target) ->
          let a = lookup target in
          if not (fits_signed32 a) then err "address of %S does not fit in sd" target;
          emit_insn (Instr.Store { src; base = r0; off = a; width = Instr.W64 })
      | Li (rd, v) ->
          if fits_signed32 v then emit_insn (Instr.Alui (Instr.Add, rd, r0, v))
          else begin
            let hi = Int64.shift_right_logical v 32 in
            let lo = Int64.logand v 0xFFFF_FFFFL in
            emit_insn (Instr.Lui (rd, hi));
            emit_insn (Instr.Alui (Instr.Or, rd, rd, lo))
          end
      | Dword v -> emit_word v
      | Bytes_lit s ->
          Bytes.blit_string s 0 buf (off ()) (String.length s);
          addr := Int64.add !addr (Int64.of_int (String.length s))
      | Space n -> addr := Int64.add !addr (Int64.of_int n)
      | Align a ->
          let pad = align_pad !addr a in
          addr := Int64.add !addr (Int64.of_int pad))
    items;
  let syms = Hashtbl.fold (fun k v acc -> (k, v) :: acc) symbols [] in
  { origin; code = buf; symbols = List.sort compare syms }

let symbol img name =
  match List.assoc_opt name img.symbols with
  | Some a -> a
  | None -> err "undefined label %S" name

let disassemble img =
  let n = Bytes.length img.code / 8 in
  List.init n (fun i ->
      let addr = Int64.add img.origin (Int64.of_int (i * 8)) in
      let w = Bytes.get_int64_le img.code (i * 8) in
      let body =
        match Instr.decode w with
        | Some insn -> Instr.to_string insn
        | None -> Printf.sprintf ".dword 0x%Lx" w
      in
      Printf.sprintf "%08Lx: %s" addr body)
