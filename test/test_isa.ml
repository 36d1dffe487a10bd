(* Unit tests for velum_isa: architecture definitions, PTE format,
   instruction encode/decode, and the assembler. *)

open Velum_isa

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* ---------------- Arch ---------------- *)

let test_csr_index_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check (option string))
        "csr roundtrip"
        (Some (Arch.csr_name c))
        (Option.map Arch.csr_name (Arch.csr_of_index (Arch.csr_index c))))
    Arch.all_csrs;
  Alcotest.(check (option string)) "bad index" None
    (Option.map Arch.csr_name (Arch.csr_of_index 99))

let test_cause_codes () =
  checkb "interrupt flag" true (Arch.is_interrupt Arch.Timer_interrupt);
  checkb "sync has no flag" false (Arch.is_interrupt Arch.Syscall);
  List.iter
    (fun c ->
      match Arch.cause_of_code (Arch.cause_code c) with
      | Some c' -> checkb "cause roundtrip" true (c = c')
      | None -> Alcotest.fail "cause did not round-trip")
    [ Arch.Syscall; Arch.Illegal_instruction; Arch.Store_page_fault; Arch.Timer_interrupt ]

(* The list definitions the decode tables are built from; the tables must
   agree with a linear search over them on every input. *)
let all_causes =
  Arch.
    [
      Syscall; Breakpoint; Illegal_instruction; Misaligned_fetch; Misaligned_load;
      Misaligned_store; Fetch_page_fault; Load_page_fault; Store_page_fault;
      Fetch_access_fault; Load_access_fault; Store_access_fault; Timer_interrupt;
      External_interrupt;
    ]

let test_tables_match_lists () =
  for i = -4 to 300 do
    checkb (Printf.sprintf "csr %d" i) true
      (Arch.csr_of_index i = List.find_opt (fun c -> Arch.csr_index c = i) Arch.all_csrs)
  done;
  let rng = Random.State.make [| 12 |] in
  let codes =
    List.concat_map
      (fun base -> List.init 20 (fun i -> Int64.add base (Int64.of_int (i - 2))))
      [ 0L; Int64.min_int; Int64.max_int ]
    @ List.init 1000 (fun _ -> Random.State.int64 rng Int64.max_int)
  in
  List.iter
    (fun code ->
      checkb (Printf.sprintf "cause %Lx" code) true
        (Arch.cause_of_code code
        = List.find_opt (fun c -> Arch.cause_code c = code) all_causes))
    codes;
  List.iter
    (fun c -> checkb "every cause decodes" true (Arch.cause_of_code (Arch.cause_code c) = Some c))
    all_causes

let test_fault_cause_matrix () =
  checkb "store page" true (Arch.fault_cause Arch.Store `Page = Arch.Store_page_fault);
  checkb "load access" true (Arch.fault_cause Arch.Load `Access = Arch.Load_access_fault);
  checkb "fetch misaligned" true
    (Arch.fault_cause Arch.Fetch `Misaligned = Arch.Misaligned_fetch)

let test_satp () =
  let satp = Arch.satp_make ~root_ppn:0x123L in
  checkb "enabled" true (Arch.satp_enabled satp);
  check64 "root" 0x123L (Arch.satp_root_ppn satp);
  checkb "zero disabled" false (Arch.satp_enabled 0x123L)

let test_constants () =
  checki "page size" 4096 Arch.page_size;
  checki "va bits" 39 Arch.va_bits;
  checki "instr bytes" 8 Arch.instr_bytes

(* ---------------- Pte ---------------- *)

let test_pte_leaf () =
  let p = { Pte.r = true; w = false; x = true; u = true } in
  let pte = Pte.leaf ~ppn:0x42L p in
  checkb "valid" true (Pte.is_valid pte);
  checkb "leaf" true (Pte.is_leaf pte);
  check64 "ppn" 0x42L (Pte.ppn pte);
  checkb "perms" true (Pte.perms pte = p);
  checkb "not accessed" false (Pte.accessed pte);
  checkb "not dirty" false (Pte.dirty pte)

let test_pte_table () =
  let pte = Pte.table ~ppn:7L in
  checkb "valid" true (Pte.is_valid pte);
  checkb "not a leaf" false (Pte.is_leaf pte);
  check64 "ppn" 7L (Pte.ppn pte)

let test_pte_ad_bits () =
  let pte = Pte.leaf ~ppn:1L { Pte.r = true; w = true; x = false; u = false } in
  let pte = Pte.set_accessed pte in
  checkb "accessed" true (Pte.accessed pte);
  let pte = Pte.set_dirty pte in
  checkb "dirty" true (Pte.dirty pte);
  let pte = Pte.clear_dirty pte in
  checkb "dirty cleared" false (Pte.dirty pte);
  checkb "accessed kept" true (Pte.accessed (Pte.clear_dirty pte))

let test_pte_allows () =
  let sup_rw = Pte.leaf ~ppn:1L { Pte.r = true; w = true; x = false; u = false } in
  checkb "sup load" true (Pte.allows sup_rw Arch.Load ~user:false);
  checkb "sup store" true (Pte.allows sup_rw Arch.Store ~user:false);
  checkb "sup fetch denied" false (Pte.allows sup_rw Arch.Fetch ~user:false);
  checkb "user denied" false (Pte.allows sup_rw Arch.Load ~user:true);
  let user_x = Pte.leaf ~ppn:1L { Pte.r = false; w = false; x = true; u = true } in
  checkb "user fetch" true (Pte.allows user_x Arch.Fetch ~user:true);
  checkb "user load denied" false (Pte.allows user_x Arch.Load ~user:true)

let test_pte_with_perms () =
  let pte =
    Pte.set_dirty (Pte.leaf ~ppn:9L { Pte.r = true; w = true; x = true; u = true })
  in
  let pte' = Pte.with_perms pte { Pte.r = true; w = false; x = true; u = true } in
  checkb "w stripped" false (Pte.perms pte').Pte.w;
  check64 "ppn kept" 9L (Pte.ppn pte');
  checkb "dirty kept" true (Pte.dirty pte')

(* ---------------- Instr ---------------- *)

let arbitrary_instr : Instr.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let reg = int_range 0 15 in
  let imm = map Int64.of_int (int_range (-1000000) 1000000) in
  let alu_op =
    oneofl
      [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And; Instr.Or;
        Instr.Xor; Instr.Sll; Instr.Srl; Instr.Sra; Instr.Slt; Instr.Sltu ]
  in
  let alui_op =
    oneofl
      [ Instr.Add; Instr.And; Instr.Or; Instr.Xor; Instr.Sll; Instr.Srl; Instr.Sra;
        Instr.Slt; Instr.Sltu ]
  in
  let branch_op =
    oneofl [ Instr.Beq; Instr.Bne; Instr.Blt; Instr.Bge; Instr.Bltu; Instr.Bgeu ]
  in
  let width = oneofl [ Instr.W8; Instr.W16; Instr.W32; Instr.W64 ] in
  let csr = oneofl Arch.all_csrs in
  oneof
    [
      return Instr.Nop;
      map (fun (op, (a, b, c)) -> Instr.Alu (op, a, b, c)) (pair alu_op (triple reg reg reg));
      map (fun (op, (a, b, i)) -> Instr.Alui (op, a, b, i)) (pair alui_op (triple reg reg imm));
      map (fun (r, i) -> Instr.Lui (r, Int64.logand i 0xFFFF_FFFFL)) (pair reg imm);
      map
        (fun ((rd, base), (off, w)) -> Instr.Load { rd; base; off; width = w })
        (pair (pair reg reg) (pair imm width));
      map
        (fun ((src, base), (off, w)) -> Instr.Store { src; base; off; width = w })
        (pair (pair reg reg) (pair imm width));
      map (fun (op, (a, b, off)) -> Instr.Branch (op, a, b, off))
        (pair branch_op (triple reg reg imm));
      map (fun (r, off) -> Instr.Jal (r, off)) (pair reg imm);
      map (fun ((rd, rs), i) -> Instr.Jalr (rd, rs, i)) (pair (pair reg reg) imm);
      return Instr.Ecall;
      return Instr.Ebreak;
      map (fun (r, c) -> Instr.Csrr (r, c)) (pair reg csr);
      map (fun (c, r) -> Instr.Csrw (c, r)) (pair csr reg);
      return Instr.Sret;
      return Instr.Sfence;
      return Instr.Wfi;
      map (fun (r, p) -> Instr.In (r, p)) (pair reg (int_range 0 0xffff));
      map (fun (p, r) -> Instr.Out (p, r)) (pair (int_range 0 0xffff) reg);
      return Instr.Hcall;
      return Instr.Halt;
    ]

let prop_encode_decode_roundtrip =
  QCheck2.Test.make ~count:2000 ~name:"encode/decode round-trips" arbitrary_instr
    (fun i -> Instr.decode (Instr.encode i) = Some i)

(* The decoder as it was before the table-driven rewrite, kept verbatim
   (bar module paths) as the reference model [Instr.decode] must match on
   every word. *)
module Reference = struct
  open Instr
  module Bitops = Velum_util.Bitops

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
  let alu_of_code c = List.find_opt (fun op -> alu_code op = c) alu_ops

  let alui_valid = function
    | Add | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu -> true
    | Sub | Mul | Div | Rem -> false

  let branch_code = function
    | Beq -> 0
    | Bne -> 1
    | Blt -> 2
    | Bge -> 3
    | Bltu -> 4
    | Bgeu -> 5

  let branch_ops = [ Beq; Bne; Blt; Bge; Bltu; Bgeu ]
  let branch_of_code c = List.find_opt (fun op -> branch_code op = c) branch_ops

  let width_of_code = function
    | 0 -> Some W8
    | 1 -> Some W16
    | 2 -> Some W32
    | 3 -> Some W64
    | _ -> None

  let csr_of_index i = List.find_opt (fun c -> Arch.csr_index c = i) Arch.all_csrs

  let decode w =
    let opcode = Int64.to_int (Bitops.extract w ~lo:0 ~width:8) in
    let rd = Int64.to_int (Bitops.extract w ~lo:8 ~width:4) in
    let rs1 = Int64.to_int (Bitops.extract w ~lo:12 ~width:4) in
    let rs2 = Int64.to_int (Bitops.extract w ~lo:16 ~width:4) in
    let aux = Int64.to_int (Bitops.extract w ~lo:20 ~width:8) in
    let imm_u = Bitops.extract w ~lo:32 ~width:32 in
    let imm_s = Bitops.sign_extend imm_u ~width:32 in
    if Bitops.extract w ~lo:28 ~width:4 <> 0L then None
    else
      match opcode with
      | o when o = op_nop -> Some Nop
      | o when o = op_alu -> (
          match alu_of_code aux with
          | Some op -> Some (Alu (op, rd, rs1, rs2))
          | None -> None)
      | o when o = op_alui -> (
          match alu_of_code aux with
          | Some op when alui_valid op -> Some (Alui (op, rd, rs1, imm_s))
          | Some _ | None -> None)
      | o when o = op_lui -> Some (Lui (rd, imm_u))
      | o when o = op_load -> (
          match width_of_code aux with
          | Some width -> Some (Load { rd; base = rs1; off = imm_s; width })
          | None -> None)
      | o when o = op_store -> (
          match width_of_code aux with
          | Some width -> Some (Store { src = rs2; base = rs1; off = imm_s; width })
          | None -> None)
      | o when o = op_branch -> (
          match branch_of_code aux with
          | Some op -> Some (Branch (op, rs1, rs2, imm_s))
          | None -> None)
      | o when o = op_jal -> Some (Jal (rd, imm_s))
      | o when o = op_jalr -> Some (Jalr (rd, rs1, imm_s))
      | o when o = op_ecall -> Some Ecall
      | o when o = op_ebreak -> Some Ebreak
      | o when o = op_csrr -> (
          match csr_of_index aux with
          | Some csr -> Some (Csrr (rd, csr))
          | None -> None)
      | o when o = op_csrw -> (
          match csr_of_index aux with
          | Some csr -> Some (Csrw (csr, rs1))
          | None -> None)
      | o when o = op_sret -> Some Sret
      | o when o = op_sfence -> Some Sfence
      | o when o = op_wfi -> Some Wfi
      | o when o = op_in -> Some (In (rd, Int64.to_int imm_u))
      | o when o = op_out -> Some (Out (Int64.to_int imm_u, rs1))
      | o when o = op_hcall -> Some Hcall
      | o when o = op_halt -> Some Halt
      | _ -> None
end

(* Every (opcode, aux, reserved nibble) combination — 2^20 words — with
   random register fields and immediate, then fully random words. *)
let test_decode_matches_reference () =
  let rng = Random.State.make [| 20 |] in
  let check w =
    if Instr.decode w <> Reference.decode w then
      Alcotest.failf "decode 0x%016Lx disagrees with the reference decoder" w
  in
  for combo = 0 to (1 lsl 20) - 1 do
    let opcode = combo land 0xff
    and aux = (combo lsr 8) land 0xff
    and reserved = combo lsr 16 in
    let regs = Random.State.int rng (1 lsl 12) in
    let low =
      opcode lor ((regs land 0xfff) lsl 8) lor (aux lsl 20) lor (reserved lsl 28)
    in
    let imm = Int64.shift_left (Random.State.int64 rng Int64.max_int) 1 in
    check (Int64.logor (Int64.of_int low) (Int64.logand imm 0xFFFF_FFFF_0000_0000L))
  done;
  for _ = 1 to 10_000 do
    check (Random.State.bits64 rng)
  done

let test_decode_garbage () =
  Alcotest.(check (option string)) "opcode 0" None
    (Option.map Instr.to_string (Instr.decode 0L));
  Alcotest.(check (option string)) "opcode 255" None
    (Option.map Instr.to_string (Instr.decode 0xFFL));
  (* nonzero reserved bits (28-31) invalidate an otherwise-fine word *)
  let valid = Instr.encode Instr.Nop in
  let poisoned = Int64.logor valid (Int64.shift_left 1L 29) in
  Alcotest.(check (option string)) "reserved bits" None
    (Option.map Instr.to_string (Instr.decode poisoned))

let test_encode_validation () =
  Alcotest.check_raises "bad register" (Invalid_argument "Instr.encode: bad register")
    (fun () -> ignore (Instr.encode (Instr.Alu (Instr.Add, 16, 0, 0))));
  Alcotest.check_raises "imm too big"
    (Invalid_argument "Instr.encode: immediate does not fit in 32 bits") (fun () ->
      ignore (Instr.encode (Instr.Alui (Instr.Add, 1, 1, 0x1_0000_0000L))));
  Alcotest.check_raises "sub immediate invalid"
    (Invalid_argument "Instr.encode: invalid immediate ALU op") (fun () ->
      ignore (Instr.encode (Instr.Alui (Instr.Sub, 1, 1, 1L))))

let test_privileged_set () =
  checkb "csrr" true (Instr.is_privileged (Instr.Csrr (1, Arch.Satp)));
  checkb "halt" true (Instr.is_privileged Instr.Halt);
  checkb "wfi" true (Instr.is_privileged Instr.Wfi);
  checkb "in" true (Instr.is_privileged (Instr.In (1, 2)));
  checkb "add not" false (Instr.is_privileged (Instr.Alu (Instr.Add, 1, 2, 3)));
  checkb "ecall not" false (Instr.is_privileged Instr.Ecall);
  checkb "hcall not" false (Instr.is_privileged Instr.Hcall)

let test_pp_smoke () =
  checkb "alu" true (Instr.to_string (Instr.Alu (Instr.Add, 1, 2, 3)) = "add r1, r2, r3");
  checkb "load" true
    (Instr.to_string (Instr.Load { rd = 1; base = 2; off = 16L; width = Instr.W64 })
    = "ld.w64 r1, 16(r2)")

(* ---------------- Asm ---------------- *)

open Asm

let test_asm_simple_layout () =
  let img = assemble [ nop; nop; label "here"; nop ] in
  checki "size" 24 (Bytes.length img.code);
  check64 "label" 16L (symbol img "here")

let test_asm_origin () =
  let img = assemble ~origin:0x1000L [ label "start"; nop ] in
  check64 "origin label" 0x1000L (symbol img "start")

let test_asm_branch_offsets () =
  let img = assemble [ label "top"; nop; beq r1 r2 "top"; bne r1 r2 "bottom"; label "bottom" ] in
  (* the beq at offset 8 targets offset 0: delta -8 *)
  (match Instr.decode (Bytes.get_int64_le img.code 8) with
  | Some (Instr.Branch (Instr.Beq, 1, 2, off)) -> check64 "backward" (-8L) off
  | _ -> Alcotest.fail "bad beq encoding");
  match Instr.decode (Bytes.get_int64_le img.code 16) with
  | Some (Instr.Branch (Instr.Bne, 1, 2, off)) -> check64 "forward" 8L off
  | _ -> Alcotest.fail "bad bne encoding"

let test_asm_li_expansion () =
  checki "small li" 8 (size_of (li r1 42L));
  checki "negative li" 8 (size_of (li r1 (-42L)));
  checki "big li" 16 (size_of (li r1 0x1_2345_6789L));
  let img = assemble [ li r1 0xDEAD_BEEF_CAFEL ] in
  checki "two slots" 16 (Bytes.length img.code)

let test_asm_duplicate_label () =
  Alcotest.check_raises "duplicate" (Asm.Error "duplicate label \"x\"") (fun () ->
      ignore (assemble [ label "x"; label "x" ]))

let test_asm_undefined_label () =
  Alcotest.check_raises "undefined" (Asm.Error "undefined label \"nowhere\"") (fun () ->
      ignore (assemble [ jmp "nowhere" ]))

let test_asm_data_directives () =
  let img =
    assemble
      [ Dword 0x1122_3344_5566_7788L; Bytes_lit "abc"; Space 5; Align 8; label "end" ]
  in
  check64 "dword" 0x1122_3344_5566_7788L (Bytes.get_int64_le img.code 0);
  Alcotest.(check char) "bytes" 'a' (Bytes.get img.code 8);
  check64 "aligned end" 16L (symbol img "end")

let test_asm_ld_abs () =
  let img = assemble [ ldl r3 "data"; sdl r4 "data"; label "data"; Dword 0L ] in
  (match Instr.decode (Bytes.get_int64_le img.code 0) with
  | Some (Instr.Load { rd = 3; base = 0; off; width = Instr.W64 }) ->
      check64 "abs load addr" 16L off
  | _ -> Alcotest.fail "bad ldl");
  match Instr.decode (Bytes.get_int64_le img.code 8) with
  | Some (Instr.Store { src = 4; base = 0; off; width = Instr.W64 }) ->
      check64 "abs store addr" 16L off
  | _ -> Alcotest.fail "bad sdl"

let test_asm_la () =
  let img = assemble ~origin:0x2000L [ la r5 "target"; label "target"; nop ] in
  match Instr.decode (Bytes.get_int64_le img.code 0) with
  | Some (Instr.Alui (Instr.Add, 5, 0, imm)) -> check64 "la imm" 0x2008L imm
  | _ -> Alcotest.fail "bad la"

let test_asm_call_ret () =
  let img = assemble [ call "f"; halt; label "f"; ret ] in
  (match Instr.decode (Bytes.get_int64_le img.code 0) with
  | Some (Instr.Jal (15, 16L)) -> ()
  | _ -> Alcotest.fail "bad call");
  match Instr.decode (Bytes.get_int64_le img.code 16) with
  | Some (Instr.Jalr (0, 15, 0L)) -> ()
  | _ -> Alcotest.fail "bad ret"

let test_asm_misaligned_origin () =
  Alcotest.check_raises "misaligned origin"
    (Asm.Error "origin 0x4 is not instruction aligned") (fun () ->
      ignore (assemble ~origin:4L [ nop ]))

let test_asm_disassemble () =
  let img = assemble [ nop; halt ] in
  match disassemble img with
  | [ l1; l2 ] ->
      checkb "nop line" true (String.length l1 > 0);
      checkb "halt line" true
        (String.length l2 >= 4 && String.sub l2 (String.length l2 - 4) 4 = "halt")
  | _ -> Alcotest.fail "expected two lines"

(* Property: assembling a list of concrete instructions and decoding the
   image yields the same instructions. *)
let prop_asm_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"assemble/decode round-trips"
    QCheck2.Gen.(list_size (int_range 1 20) arbitrary_instr)
    (fun insns ->
      (* restrict to encodable immediates *)
      let ok =
        List.for_all
          (fun i -> match Instr.encode i with _ -> true | exception _ -> false)
          insns
      in
      if not ok then QCheck2.assume_fail ()
      else begin
        let img = assemble (List.map (fun i -> Insn i) insns) in
        let decoded =
          List.init (List.length insns) (fun k ->
              Instr.decode (Bytes.get_int64_le img.code (k * 8)))
        in
        List.for_all2 (fun i d -> d = Some i) insns decoded
      end)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "isa"
    [
      ( "arch",
        [
          Alcotest.test_case "csr indices" `Quick test_csr_index_roundtrip;
          Alcotest.test_case "cause codes" `Quick test_cause_codes;
          Alcotest.test_case "decode tables match lists" `Quick test_tables_match_lists;
          Alcotest.test_case "fault causes" `Quick test_fault_cause_matrix;
          Alcotest.test_case "satp" `Quick test_satp;
          Alcotest.test_case "constants" `Quick test_constants;
        ] );
      ( "pte",
        [
          Alcotest.test_case "leaf" `Quick test_pte_leaf;
          Alcotest.test_case "table" `Quick test_pte_table;
          Alcotest.test_case "a/d bits" `Quick test_pte_ad_bits;
          Alcotest.test_case "allows" `Quick test_pte_allows;
          Alcotest.test_case "with_perms" `Quick test_pte_with_perms;
        ] );
      ( "instr",
        [
          Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
          Alcotest.test_case "decode matches reference" `Quick test_decode_matches_reference;
          Alcotest.test_case "encode validation" `Quick test_encode_validation;
          Alcotest.test_case "privileged set" `Quick test_privileged_set;
          Alcotest.test_case "pretty printing" `Quick test_pp_smoke;
        ]
        @ qsuite [ prop_encode_decode_roundtrip ] );
      ( "asm",
        [
          Alcotest.test_case "layout" `Quick test_asm_simple_layout;
          Alcotest.test_case "origin" `Quick test_asm_origin;
          Alcotest.test_case "branch offsets" `Quick test_asm_branch_offsets;
          Alcotest.test_case "li expansion" `Quick test_asm_li_expansion;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "data directives" `Quick test_asm_data_directives;
          Alcotest.test_case "absolute load/store" `Quick test_asm_ld_abs;
          Alcotest.test_case "la" `Quick test_asm_la;
          Alcotest.test_case "call/ret" `Quick test_asm_call_ret;
          Alcotest.test_case "misaligned origin" `Quick test_asm_misaligned_origin;
          Alcotest.test_case "disassemble" `Quick test_asm_disassemble;
        ]
        @ qsuite [ prop_asm_roundtrip ] );
    ]
