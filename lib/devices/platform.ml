open Velum_isa
open Velum_machine

type t = {
  mem : Phys_mem.t;
  bus : Bus.t;
  uart : Uart.t;
  blk : Blockdev.t;
  vblk : Virtio_blk.t;
  cpu : Cpu.state;
  tlb : Tlb.t;
  dtlb : Dtlb.t;
  mmu : Mmu.t;
  cost : Cost_model.t;
  engine : Engine.t;
  mutable clock : int64;
  mutable io_hook : (write:bool -> addr:int64 -> now:int64 -> unit) option;
}

let identity_dma mem =
  {
    Blockdev.dma_read =
      (fun pa len ->
        if Phys_mem.in_range mem ~pa ~bytes:len then begin
          let b = Bytes.create len in
          let rec go pa pos =
            if pos < len then begin
              let off = Int64.to_int pa land (Arch.page_size - 1) in
              let n = min (len - pos) (Arch.page_size - off) in
              Phys_mem.blit_out mem
                ~ppn:(Int64.shift_right_logical pa Arch.page_shift)
                ~off b ~pos ~len:n;
              go (Int64.add pa (Int64.of_int n)) (pos + n)
            end
          in
          go pa 0;
          Some b
        end
        else None);
    dma_write =
      (fun pa b ->
        Phys_mem.in_range mem ~pa ~bytes:(Bytes.length b)
        && begin
             Phys_mem.load_bytes mem ~pa b;
             true
           end);
  }

let identity_guest_mem mem =
  let dma = identity_dma mem in
  {
    Virtio_ring.read_u64 =
      (fun pa ->
        if Phys_mem.in_range mem ~pa ~bytes:8 then Some (Phys_mem.read mem pa Instr.W64)
        else None);
    write_u64 =
      (fun pa v ->
        if Phys_mem.in_range mem ~pa ~bytes:8 then begin
          Phys_mem.write mem pa Instr.W64 v;
          true
        end
        else false);
    read_bytes = dma.Blockdev.dma_read;
    write_bytes = dma.Blockdev.dma_write;
  }

(* Capacity of both block devices, in sectors. *)
let blk_sectors = 8192

let create ?(frames = 4096) ?(cost = Cost_model.default) ?(tlb_size = 64)
    ?(engine = Engine.default) () =
  let mem = Phys_mem.create ~frames in
  let bus = Bus.create () in
  let uart = Uart.create () in
  let blk = Blockdev.create ~sectors:blk_sectors (identity_dma mem) in
  let vblk = Virtio_blk.create ~sectors:blk_sectors (identity_guest_mem mem) in
  Bus.attach bus (Uart.device uart);
  Bus.attach bus (Blockdev.device blk);
  Bus.attach bus (Virtio_blk.device vblk);
  let cpu = Cpu.create_state () in
  let tlb = Tlb.create ~size:tlb_size in
  let dtlb = Dtlb.create ~tlb in
  let mmu = Mmu.create ~mem ~tlb ~cost ~get_satp:(fun () -> Cpu.get_csr cpu Arch.Satp) in
  let engine = Engine.of_kind engine in
  {
    mem;
    bus;
    uart;
    blk;
    vblk;
    cpu;
    tlb;
    dtlb;
    mmu;
    cost;
    engine;
    clock = 0L;
    io_hook = None;
  }

let set_io_hook t f = t.io_hook <- Some f

let notify_io t ~write ~addr =
  match t.io_hook with
  | Some f -> f ~write ~addr ~now:t.clock
  | None -> ()

let load_image t (img : Asm.image) = Phys_mem.load_bytes t.mem ~pa:img.origin img.code

let boot t ~entry =
  Bytes.fill t.cpu.Cpu.regs 0 (Bytes.length t.cpu.Cpu.regs) '\000';
  Array.fill t.cpu.Cpu.csrs 0 (Array.length t.cpu.Cpu.csrs) 0L;
  Cpu.set_pc t.cpu entry;
  t.cpu.Cpu.mode <- Arch.Supervisor;
  t.cpu.Cpu.halted <- false;
  t.cpu.Cpu.waiting <- false

type outcome = Halted | Out_of_budget | Deadlock

let make_ctx t =
  {
    Cpu.translate = (fun ~access ~user va -> Mmu.translate t.mmu ~access ~user va);
    mem = t.mem;
    flush_tlb = (fun () -> Mmu.flush t.mmu);
    now = (fun () -> t.clock);
    ext_irq = (fun () -> Bus.pending_irq t.bus);
    cost = t.cost;
    dtlb = t.dtlb;
    env =
      Cpu.Native
        {
          mmio_read =
            (fun pa w ->
              notify_io t ~write:false ~addr:pa;
              Bus.read t.bus pa w);
          mmio_write =
            (fun pa w v ->
              notify_io t ~write:true ~addr:pa;
              Bus.write t.bus pa w v);
          port_in =
            (fun port ->
              notify_io t ~write:false ~addr:(Int64.of_int port);
              if port = Uart.data_port then Some (Uart.read_reg t.uart Uart.reg_data)
              else if port = Uart.status_port then
                Some (Uart.read_reg t.uart Uart.reg_status)
              else None);
          port_out =
            (fun port v ->
              notify_io t ~write:true ~addr:(Int64.of_int port);
              if port = Uart.data_port then begin
                Uart.write_reg t.uart Uart.reg_data v;
                true
              end
              else false);
        };
  }

(* The earliest future event that could wake a waiting hart. *)
let next_event t =
  let candidates =
    List.filter_map Fun.id
      [
        (let cmp = Cpu.get_csr t.cpu Arch.Stimecmp in
         if cmp <> 0L && Int64.unsigned_compare cmp t.clock > 0 then Some cmp else None);
        Blockdev.next_completion t.blk;
        Virtio_blk.next_completion t.vblk;
      ]
  in
  match candidates with
  | [] -> None
  | first :: rest -> Some (List.fold_left min first rest)

let chunk = 1000

let run ?(budget = 500_000_000L) t =
  let ctx = make_ctx t in
  let deadline = Int64.add t.clock budget in
  let rec loop () =
    if Int64.unsigned_compare t.clock deadline >= 0 then Out_of_budget
    else begin
      let consumed, stop = t.engine.Engine.step_n t.cpu ctx ~fuel:chunk in
      t.clock <- Int64.add t.clock (Int64.of_int consumed);
      Bus.tick t.bus t.clock;
      match stop with
      | Cpu.Halted -> Halted
      | Cpu.Budget -> loop ()
      | Cpu.Waiting -> (
          match next_event t with
          | Some when_ when Int64.unsigned_compare when_ t.clock > 0 ->
              t.clock <- when_;
              Bus.tick t.bus t.clock;
              loop ()
          | Some _ ->
              (* Event already due: let the hart re-check interrupts. *)
              Bus.tick t.bus t.clock;
              if
                Cpu.interrupt_pending t.cpu ~now:t.clock
                  ~ext_irq:(Bus.pending_irq t.bus)
                  <> None
              then loop ()
              else Deadlock
          | None -> Deadlock)
      | Cpu.Exit _ -> assert false
    end
  in
  loop ()

let console_output t = Uart.output t.uart
let cycles t = t.clock
let instructions_retired t = t.cpu.Cpu.instret
