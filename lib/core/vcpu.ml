open Velum_machine

type runstate = Runnable | Running | Blocked | Halted

type t = {
  id : int;
  vm_id : int;
  state : Cpu.state;
  mutable runstate : runstate;
  mutable weight : int;
  mutable cap : int; (* max CPU %, 0 = uncapped *)
  mutable window_used : int; (* cycles consumed in the current period *)
  mutable credits : int;
  mutable boosted : bool;
  mutable vruntime : float;
  mutable last_scheduled : int64;
  mutable guest_cycles : int64;
  mutable vmm_cycles : int64;
}

let create ~id ~vm_id ?(weight = 256) ?(hartid = 0) ~entry () =
  let state = Cpu.create_state ~pc:entry ~mode:Velum_isa.Arch.Supervisor () in
  Cpu.set_csr state Velum_isa.Arch.Hartid (Int64.of_int hartid);
  {
    id;
    vm_id;
    state;
    runstate = Runnable;
    weight;
    cap = 0;
    window_used = 0;
    credits = 0;
    boosted = false;
    vruntime = 0.0;
    last_scheduled = 0L;
    guest_cycles = 0L;
    vmm_cycles = 0L;
  }

let is_runnable t = match t.runstate with Runnable | Running -> true | Blocked | Halted -> false

let total_cycles t = Int64.add t.guest_cycles t.vmm_cycles

let block t = if t.runstate <> Halted then t.runstate <- Blocked

let wake t ~boost =
  if t.runstate = Blocked then begin
    t.runstate <- Runnable;
    if boost then t.boosted <- true
  end

let runstate_name = function
  | Runnable -> "runnable"
  | Running -> "running"
  | Blocked -> "blocked"
  | Halted -> "halted"

let pp ppf t =
  Format.fprintf ppf "vcpu%d(vm%d, %s, pc=0x%Lx)" t.id t.vm_id (runstate_name t.runstate)
    (Cpu.pc t.state)
