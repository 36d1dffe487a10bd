type mode = User | Supervisor

let pp_mode ppf = function
  | User -> Format.pp_print_string ppf "user"
  | Supervisor -> Format.pp_print_string ppf "supervisor"

type reg = int

let num_regs = 16

let reg_name r =
  if r < 0 || r >= num_regs then invalid_arg "Arch.reg_name: out of range";
  "r" ^ string_of_int r

type csr =
  | Satp
  | Stvec
  | Sepc
  | Scause
  | Stval
  | Sie
  | Sip
  | Sscratch
  | Stimecmp
  | Time
  | Vmid
  | Hartid

let csr_index = function
  | Satp -> 0
  | Stvec -> 1
  | Sepc -> 2
  | Scause -> 3
  | Stval -> 4
  | Sie -> 5
  | Sip -> 6
  | Sscratch -> 7
  | Stimecmp -> 8
  | Time -> 9
  | Vmid -> 10
  | Hartid -> 11

let all_csrs =
  [ Satp; Stvec; Sepc; Scause; Stval; Sie; Sip; Sscratch; Stimecmp; Time; Vmid; Hartid ]

(* Decode tables, built once from the list definitions so the list stays
   the single source of truth; the interpreter looks a CSR up on every
   csrr/csrw it decodes. *)
let csr_by_index =
  let a = Array.make (List.length all_csrs) None in
  List.iter (fun c -> a.(csr_index c) <- Some c) all_csrs;
  a

let csr_of_index i = if i >= 0 && i < Array.length csr_by_index then csr_by_index.(i) else None

let csr_name = function
  | Satp -> "satp"
  | Stvec -> "stvec"
  | Sepc -> "sepc"
  | Scause -> "scause"
  | Stval -> "stval"
  | Sie -> "sie"
  | Sip -> "sip"
  | Sscratch -> "sscratch"
  | Stimecmp -> "stimecmp"
  | Time -> "time"
  | Vmid -> "vmid"
  | Hartid -> "hartid"

let csr_read_only = function
  | Time | Sip | Vmid | Hartid -> true
  | Satp | Stvec | Sepc | Scause | Stval | Sie | Sscratch | Stimecmp -> false

let irq_timer = 0
let irq_external = 1

type cause =
  | Syscall
  | Breakpoint
  | Illegal_instruction
  | Misaligned_fetch
  | Misaligned_load
  | Misaligned_store
  | Fetch_page_fault
  | Load_page_fault
  | Store_page_fault
  | Fetch_access_fault
  | Load_access_fault
  | Store_access_fault
  | Timer_interrupt
  | External_interrupt

let interrupt_flag = Int64.shift_left 1L 63

let cause_code = function
  | Syscall -> 0L
  | Breakpoint -> 1L
  | Illegal_instruction -> 2L
  | Misaligned_fetch -> 3L
  | Misaligned_load -> 4L
  | Misaligned_store -> 5L
  | Fetch_page_fault -> 6L
  | Load_page_fault -> 7L
  | Store_page_fault -> 8L
  | Fetch_access_fault -> 9L
  | Load_access_fault -> 10L
  | Store_access_fault -> 11L
  | Timer_interrupt -> Int64.logor interrupt_flag 0L
  | External_interrupt -> Int64.logor interrupt_flag 1L

let all_causes =
  [
    Syscall;
    Breakpoint;
    Illegal_instruction;
    Misaligned_fetch;
    Misaligned_load;
    Misaligned_store;
    Fetch_page_fault;
    Load_page_fault;
    Store_page_fault;
    Fetch_access_fault;
    Load_access_fault;
    Store_access_fault;
    Timer_interrupt;
    External_interrupt;
  ]

(* Synchronous causes indexed by code, interrupts by code without the
   interrupt flag. *)
let sync_causes, irq_causes =
  let sync = Array.make (List.length all_causes) None
  and irq = Array.make (List.length all_causes) None in
  List.iter
    (fun c ->
      let code = cause_code c in
      if Int64.logand code interrupt_flag <> 0L then
        irq.(Int64.to_int (Int64.logxor code interrupt_flag)) <- Some c
      else sync.(Int64.to_int code) <- Some c)
    all_causes;
  (sync, irq)

let cause_of_code code =
  let table, i =
    if Int64.logand code interrupt_flag <> 0L then
      (irq_causes, Int64.logxor code interrupt_flag)
    else (sync_causes, code)
  in
  if i >= 0L && i < Int64.of_int (Array.length table) then table.(Int64.to_int i) else None

let cause_name = function
  | Syscall -> "syscall"
  | Breakpoint -> "breakpoint"
  | Illegal_instruction -> "illegal-instruction"
  | Misaligned_fetch -> "misaligned-fetch"
  | Misaligned_load -> "misaligned-load"
  | Misaligned_store -> "misaligned-store"
  | Fetch_page_fault -> "fetch-page-fault"
  | Load_page_fault -> "load-page-fault"
  | Store_page_fault -> "store-page-fault"
  | Fetch_access_fault -> "fetch-access-fault"
  | Load_access_fault -> "load-access-fault"
  | Store_access_fault -> "store-access-fault"
  | Timer_interrupt -> "timer-interrupt"
  | External_interrupt -> "external-interrupt"

let is_interrupt c = Int64.logand (cause_code c) interrupt_flag <> 0L

type access = Fetch | Load | Store

let access_name = function Fetch -> "fetch" | Load -> "load" | Store -> "store"

let fault_cause access kind =
  match (access, kind) with
  | Fetch, `Page -> Fetch_page_fault
  | Load, `Page -> Load_page_fault
  | Store, `Page -> Store_page_fault
  | Fetch, `Access -> Fetch_access_fault
  | Load, `Access -> Load_access_fault
  | Store, `Access -> Store_access_fault
  | Fetch, `Misaligned -> Misaligned_fetch
  | Load, `Misaligned -> Misaligned_load
  | Store, `Misaligned -> Misaligned_store

let xlen = 64
let instr_bytes = 8
let page_shift = 12
let page_size = 1 lsl page_shift
let pt_levels = 3
let vpn_bits = 9
let va_bits = (pt_levels * vpn_bits) + page_shift
let satp_enable_bit = 63

let satp_make ~root_ppn =
  Int64.logor (Int64.shift_left 1L satp_enable_bit) root_ppn

let satp_enabled satp = Velum_util.Bitops.test_bit satp satp_enable_bit
let satp_root_ppn satp = Velum_util.Bitops.extract satp ~lo:0 ~width:44
