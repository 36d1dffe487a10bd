open Velum_util

let data_port = 0x10
let status_port = 0x11
let reg_data = 0x00L
let reg_status = 0x08L
let mmio_base = 0x4000_0000L

type t = { rx : char Ring.t; tx : Buffer.t }

let create ?(rx_capacity = 4096) () =
  { rx = Ring.create ~capacity:rx_capacity; tx = Buffer.create 256 }

let feed_input t s = String.iter (fun c -> ignore (Ring.push t.rx c)) s

let output t = Buffer.contents t.tx
let output_length t = Buffer.length t.tx
let clear_output t = Buffer.clear t.tx
let rx_pending t = not (Ring.is_empty t.rx)

(* The device state: the console written so far and the unread input. *)
let state t io =
  let tx = Serial.string io (Buffer.contents t.tx) in
  if Serial.loading io then begin
    Buffer.clear t.tx;
    Buffer.add_string t.tx tx
  end;
  Serial.ring io (fun c -> Char.chr (Serial.int ~max:255 io (Char.code c))) ' ' t.rx

let read_reg t off =
  if off = reg_data then
    match Ring.pop t.rx with Some c -> Int64.of_int (Char.code c) | None -> 0L
  else if off = reg_status then
    let v = if rx_pending t then 1L else 0L in
    Int64.logor v 2L
  else 0L

let write_reg t off v =
  if off = reg_data then
    Buffer.add_char t.tx (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))

let device ?(base = mmio_base) t =
  {
    Velum_machine.Bus.name = "uart";
    base;
    size = 0x100;
    read = (fun off _w -> read_reg t off);
    write = (fun off _w v -> write_reg t off v);
    tick = (fun _ -> ());
    pending_irq = (fun () -> rx_pending t);
  }
