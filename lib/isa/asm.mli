(** Two-pass assembler for VR64.

    Programs are OCaml lists of {!item}s — instructions, labels and data
    directives.  Branch and jump targets are symbolic; the assembler
    resolves them relative to the program's load address.  Guest kernels
    and workloads in [velum.guests] are written in this DSL.

    Register convention used by the assembler's pseudo-instructions and
    by all guest code in this repository:
    - [r0] hardwired zero
    - [r1] syscall/hypercall number and return value
    - [r2]-[r5] arguments
    - [r13] frame/scratch, [r14] stack pointer, [r15] link register *)

(** {1 Register shorthands} *)

val r0 : Arch.reg
val r1 : Arch.reg
val r2 : Arch.reg
val r3 : Arch.reg
val r4 : Arch.reg
val r5 : Arch.reg
val r6 : Arch.reg
val r7 : Arch.reg
val r8 : Arch.reg
val r9 : Arch.reg
val r10 : Arch.reg
val r11 : Arch.reg
val r12 : Arch.reg
val r13 : Arch.reg
val r14 : Arch.reg
val r15 : Arch.reg

(** {1 Program items} *)

type item =
  | Label of string
  | Insn of Instr.t  (** a concrete instruction *)
  | Branch_to of Instr.branch_op * Arch.reg * Arch.reg * string
  | Jal_to of Arch.reg * string
  | La of Arch.reg * string  (** load a label's absolute address *)
  | Li of Arch.reg * int64
      (** load a 64-bit constant; expands to one instruction when the
          value fits in a signed 32-bit immediate, two otherwise *)
  | Ld_abs of Arch.reg * string
      (** 64-bit load from a label's absolute address (r0-based) *)
  | Sd_abs of Arch.reg * string
      (** 64-bit store to a label's absolute address (r0-based) *)
  | Dword of int64  (** 8 bytes of data *)
  | Bytes_lit of string  (** raw bytes *)
  | Space of int  (** [n] zero bytes *)
  | Align of int  (** pad with zeros to a power-of-two boundary *)

(** {1 Instruction helpers}

    Thin constructors so programs read like assembly. *)

val nop : item
val add : Arch.reg -> Arch.reg -> Arch.reg -> item
val sub : Arch.reg -> Arch.reg -> Arch.reg -> item
val mul : Arch.reg -> Arch.reg -> Arch.reg -> item
val div : Arch.reg -> Arch.reg -> Arch.reg -> item
val rem : Arch.reg -> Arch.reg -> Arch.reg -> item
val and_ : Arch.reg -> Arch.reg -> Arch.reg -> item
val or_ : Arch.reg -> Arch.reg -> Arch.reg -> item
val xor : Arch.reg -> Arch.reg -> Arch.reg -> item
val sll : Arch.reg -> Arch.reg -> Arch.reg -> item
val srl : Arch.reg -> Arch.reg -> Arch.reg -> item
val slt : Arch.reg -> Arch.reg -> Arch.reg -> item
val addi : Arch.reg -> Arch.reg -> int64 -> item
val andi : Arch.reg -> Arch.reg -> int64 -> item
val ori : Arch.reg -> Arch.reg -> int64 -> item
val xori : Arch.reg -> Arch.reg -> int64 -> item
val slli : Arch.reg -> Arch.reg -> int64 -> item
val srli : Arch.reg -> Arch.reg -> int64 -> item
val mv : Arch.reg -> Arch.reg -> item
val li : Arch.reg -> int64 -> item
val la : Arch.reg -> string -> item
val ldl : Arch.reg -> string -> item
val sdl : Arch.reg -> string -> item
val ld : Arch.reg -> Arch.reg -> int64 -> item
val sd : Arch.reg -> Arch.reg -> int64 -> item
val lb : Arch.reg -> Arch.reg -> int64 -> item
val sb : Arch.reg -> Arch.reg -> int64 -> item
val beq : Arch.reg -> Arch.reg -> string -> item
val bne : Arch.reg -> Arch.reg -> string -> item
val blt : Arch.reg -> Arch.reg -> string -> item
val bge : Arch.reg -> Arch.reg -> string -> item
val bltu : Arch.reg -> Arch.reg -> string -> item
val bgeu : Arch.reg -> Arch.reg -> string -> item
val jmp : string -> item
val call : string -> item
val ret : item
val jalr : Arch.reg -> Arch.reg -> int64 -> item
val ecall : item
val ebreak : item
val csrr : Arch.reg -> Arch.csr -> item
val csrw : Arch.csr -> Arch.reg -> item
val sret : item
val sfence : item
val wfi : item
val inp : Arch.reg -> int -> item
val outp : int -> Arch.reg -> item
val hcall : item
val halt : item
val label : string -> item

(** {1 Assembly} *)

type image = {
  origin : int64;  (** load address of the first byte *)
  code : Bytes.t;  (** assembled bytes *)
  symbols : (string * int64) list;  (** label → absolute address *)
}

exception Error of string
(** Raised on duplicate or undefined labels, unencodable operands, or
    misaligned instruction placement. *)

val assemble : ?origin:int64 -> item list -> image
(** [assemble ~origin items] lays the program out starting at [origin]
    (default 0) and resolves all symbols.

    @raise Error as described above. *)

val size_of : item -> int
(** [size_of item] is the number of bytes the item occupies, except for
    [Align] whose size depends on position (reported as 0 here). *)

val symbol : image -> string -> int64
(** [symbol img name] looks up a label.

    @raise Error if undefined. *)

val disassemble : image -> string list
(** [disassemble img] renders each 8-byte word of the image as an
    instruction (or [.dword] when it does not decode); for debugging. *)
