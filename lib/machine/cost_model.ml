type t = {
  base_instr : int;
  mul : int;
  div : int;
  mem_access : int;
  pt_ref : int;
  tlb_fill : int;
  trap_enter : int;
  vmexit : int;
  emul_instr : int;
  hypercall : int;
  mmio_device : int;
  port_io : int;
  irq_inject : int;
  ctx_switch : int;
  bt_translate : int;
  bt_exec : int;
}

let default =
  {
    base_instr = 1;
    mul = 3;
    div = 12;
    mem_access = 2;
    pt_ref = 20;
    tlb_fill = 4;
    trap_enter = 60;
    vmexit = 800;
    emul_instr = 40;
    hypercall = 160;
    mmio_device = 120;
    port_io = 80;
    irq_inject = 50;
    ctx_switch = 200;
    bt_translate = 300;
    bt_exec = 40;
  }

let walk_refs_1d = Velum_isa.Arch.pt_levels

let walk_refs_2d =
  let n = Velum_isa.Arch.pt_levels in
  ((n + 1) * n) + n

let fill_cycles t ~refs = (refs * t.pt_ref) + t.tlb_fill
