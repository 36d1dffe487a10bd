open Velum_machine

type t = {
  mem : Phys_mem.t;
  alloc : Frame_alloc.t;
  cost : Cost_model.t;
  default_engine : Engine.kind;
  swap : Bytes.t Velum_util.Keytbl.Int.t;
  swap_slots : int;
  mutable swap_next : int;
  mutable swap_free : int list;
  mutable swap_ins : int;
  mutable swap_outs : int;
  mutable churn : Churn.t option;
}

let swap_cost_cycles = 2_000_000

let create ?(frames = 16384) ?(cost = Cost_model.default) ?(swap_slots = 4096)
    ?(engine = Engine.default) () =
  let mem = Phys_mem.create ~frames in
  {
    mem;
    alloc = Frame_alloc.create ~mem ();
    cost;
    default_engine = engine;
    swap = Velum_util.Keytbl.Int.create 16;
    swap_slots;
    swap_next = 0;
    swap_free = [];
    swap_ins = 0;
    swap_outs = 0;
    churn = None;
  }

let churn t =
  match t.churn with
  | Some c -> c
  | None ->
      let c = Churn.attach t.mem in
      t.churn <- Some c;
      c

let swap_out t ~ppn =
  let slot =
    match t.swap_free with
    | slot :: rest ->
        t.swap_free <- rest;
        slot
    | [] ->
        if t.swap_next >= t.swap_slots then failwith "Host.swap_out: swap full";
        t.swap_next <- t.swap_next + 1;
        t.swap_next - 1
  in
  Velum_util.Keytbl.Int.replace t.swap slot (Phys_mem.frame_read t.mem ~ppn);
  t.swap_outs <- t.swap_outs + 1;
  slot

let swap_in t ~slot ~ppn =
  match Velum_util.Keytbl.Int.find_opt t.swap slot with
  | Some b ->
      Phys_mem.frame_write t.mem ~ppn b;
      Velum_util.Keytbl.Int.remove t.swap slot;
      t.swap_free <- slot :: t.swap_free;
      t.swap_ins <- t.swap_ins + 1
  | None -> invalid_arg "Host.swap_in: empty slot"

let free_swap_slots t = List.length t.swap_free + (t.swap_slots - t.swap_next)
