(* Unit tests for velum_devices: bus dispatch, UART, block device,
   virtio ring/block, network link and NIC, and the native platform. *)

open Velum_isa
open Velum_machine
open Velum_devices

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)
let checks = Alcotest.(check string)

(* ---------------- Bus ---------------- *)

let dummy_device name base size =
  let last = ref 0L in
  {
    Bus.name;
    base;
    size;
    read = (fun off _ -> Int64.add off 100L);
    write = (fun _ _ v -> last := v);
    tick = (fun _ -> ());
    pending_irq = (fun () -> false);
  }

let test_bus_dispatch () =
  let bus = Bus.create () in
  Bus.attach bus (dummy_device "a" 0x4000_0000L 0x100);
  Bus.attach bus (dummy_device "b" 0x4000_1000L 0x100);
  (match Bus.read bus 0x4000_0010L Instr.W64 with
  | Some v -> check64 "offset-relative" 116L v
  | None -> Alcotest.fail "no device");
  checkb "write claimed" true (Bus.write bus 0x4000_1000L Instr.W64 7L);
  checkb "hole" true (Bus.read bus 0x4000_2000L Instr.W64 = None)

let test_bus_overlap_rejected () =
  let bus = Bus.create () in
  Bus.attach bus (dummy_device "a" 0x4000_0000L 0x200);
  Alcotest.check_raises "overlap" (Invalid_argument "Bus.attach: b overlaps a")
    (fun () -> Bus.attach bus (dummy_device "b" 0x4000_0100L 0x100))

let test_bus_window () =
  checkb "below" false (Bus.is_mmio 0x3FFF_FFFFL);
  checkb "base" true (Bus.is_mmio 0x4000_0000L);
  checkb "top" false (Bus.is_mmio 0x5000_0000L);
  let bus = Bus.create () in
  Alcotest.check_raises "outside window"
    (Invalid_argument "Bus.attach: x outside the MMIO window") (fun () ->
      Bus.attach bus (dummy_device "x" 0x1000L 0x100))

(* ---------------- Uart ---------------- *)

let test_uart_tx () =
  let u = Uart.create () in
  Uart.write_reg u Uart.reg_data 0x68L (* h *);
  Uart.write_reg u Uart.reg_data 0x69L (* i *);
  checks "output" "hi" (Uart.output u);
  checki "length" 2 (Uart.output_length u);
  Uart.clear_output u;
  checks "cleared" "" (Uart.output u)

let test_uart_rx () =
  let u = Uart.create () in
  checkb "no rx" false (Uart.rx_pending u);
  check64 "empty read" 0L (Uart.read_reg u Uart.reg_data);
  Uart.feed_input u "ab";
  checkb "rx pending" true (Uart.rx_pending u);
  check64 "status rx bit" 3L (Uart.read_reg u Uart.reg_status);
  check64 "pop a" (Int64.of_int (Char.code 'a')) (Uart.read_reg u Uart.reg_data);
  check64 "pop b" (Int64.of_int (Char.code 'b')) (Uart.read_reg u Uart.reg_data);
  check64 "status tx only" 2L (Uart.read_reg u Uart.reg_status)

let test_uart_device_irq () =
  let u = Uart.create () in
  let d = Uart.device u in
  checkb "idle" false (d.Bus.pending_irq ());
  Uart.feed_input u "x";
  checkb "irq on rx" true (d.Bus.pending_irq ())

(* ---------------- Blockdev ---------------- *)

let make_blk () =
  let backing = Bytes.make 65536 '\000' in
  let dma =
    {
      Blockdev.dma_read =
        (fun pa len ->
          let off = Int64.to_int pa in
          if off + len <= Bytes.length backing then Some (Bytes.sub backing off len)
          else None);
      dma_write =
        (fun pa b ->
          let off = Int64.to_int pa in
          if off + Bytes.length b <= Bytes.length backing then begin
            Bytes.blit b 0 backing off (Bytes.length b);
            true
          end
          else false);
    }
  in
  (Blockdev.create ~sectors:64 dma, backing)

let test_blk_read () =
  let blk, backing = make_blk () in
  Blockdev.load blk ~sector:2 "hello-disk";
  let d = Blockdev.device blk in
  d.Bus.write Blockdev.reg_sector Instr.W64 2L;
  d.Bus.write Blockdev.reg_count Instr.W64 1L;
  d.Bus.write Blockdev.reg_dma Instr.W64 0x100L;
  d.Bus.write Blockdev.reg_cmd Instr.W64 Blockdev.cmd_read;
  check64 "busy" Blockdev.status_busy (d.Bus.read Blockdev.reg_status Instr.W64);
  checkb "has deadline" true (Blockdev.next_completion blk <> None);
  d.Bus.tick 10_000_000L;
  checkb "irq raised" true (d.Bus.pending_irq ());
  check64 "done" Blockdev.status_done (d.Bus.read Blockdev.reg_status Instr.W64);
  checkb "irq acked" false (d.Bus.pending_irq ());
  check64 "idle after ack" Blockdev.status_idle (d.Bus.read Blockdev.reg_status Instr.W64);
  checks "dma payload" "hello-disk" (Bytes.sub_string backing 0x100 10);
  checki "ops" 1 (Blockdev.completed_ops blk)

let test_blk_write () =
  let blk, backing = make_blk () in
  Bytes.blit_string "write-me!" 0 backing 0x200 9;
  let d = Blockdev.device blk in
  d.Bus.write Blockdev.reg_sector Instr.W64 5L;
  d.Bus.write Blockdev.reg_count Instr.W64 1L;
  d.Bus.write Blockdev.reg_dma Instr.W64 0x200L;
  d.Bus.write Blockdev.reg_cmd Instr.W64 Blockdev.cmd_write;
  d.Bus.tick 10_000_000L;
  check64 "done" Blockdev.status_done (d.Bus.read Blockdev.reg_status Instr.W64);
  checks "stored" "write-me!" (String.sub (Blockdev.read_back blk ~sector:5 ~count:1) 0 9)

let test_blk_bad_range () =
  let blk, _ = make_blk () in
  let d = Blockdev.device blk in
  d.Bus.write Blockdev.reg_sector Instr.W64 1000L (* beyond 64 sectors *);
  d.Bus.write Blockdev.reg_count Instr.W64 1L;
  d.Bus.write Blockdev.reg_cmd Instr.W64 Blockdev.cmd_read;
  check64 "error" Blockdev.status_error (d.Bus.read Blockdev.reg_status Instr.W64)

let test_blk_bad_dma () =
  let blk, _ = make_blk () in
  let d = Blockdev.device blk in
  d.Bus.write Blockdev.reg_sector Instr.W64 0L;
  d.Bus.write Blockdev.reg_count Instr.W64 1L;
  d.Bus.write Blockdev.reg_dma Instr.W64 0xFFFF_0000L (* outside backing *);
  d.Bus.write Blockdev.reg_cmd Instr.W64 Blockdev.cmd_read;
  d.Bus.tick 10_000_000L;
  check64 "error surfaced at completion" Blockdev.status_error
    (d.Bus.read Blockdev.reg_status Instr.W64);
  checki "error counted" 1 (Blockdev.error_count blk)

let test_blk_unknown_cmd () =
  let blk, _ = make_blk () in
  let d = Blockdev.device blk in
  d.Bus.write Blockdev.reg_sector Instr.W64 0L;
  d.Bus.write Blockdev.reg_count Instr.W64 1L;
  d.Bus.write Blockdev.reg_dma Instr.W64 0x100L;
  d.Bus.write Blockdev.reg_cmd Instr.W64 99L (* not read/write *);
  (* rejected immediately: no seek latency, no pending completion *)
  checkb "no completion scheduled" true (Blockdev.next_completion blk = None);
  checkb "irq raised" true (d.Bus.pending_irq ());
  checki "error counted" 1 (Blockdev.error_count blk);
  check64 "immediate error" Blockdev.status_error
    (d.Bus.read Blockdev.reg_status Instr.W64);
  (* the status read acked the error; the device accepts new commands *)
  d.Bus.write Blockdev.reg_cmd Instr.W64 Blockdev.cmd_read;
  d.Bus.tick 10_000_000L;
  check64 "recovers after reject" Blockdev.status_done
    (d.Bus.read Blockdev.reg_status Instr.W64)

let test_blk_zero_count () =
  let blk, _ = make_blk () in
  let d = Blockdev.device blk in
  d.Bus.write Blockdev.reg_sector Instr.W64 0L;
  d.Bus.write Blockdev.reg_count Instr.W64 0L (* empty transfer is malformed *);
  d.Bus.write Blockdev.reg_cmd Instr.W64 Blockdev.cmd_read;
  check64 "immediate error" Blockdev.status_error
    (d.Bus.read Blockdev.reg_status Instr.W64);
  checki "error counted" 1 (Blockdev.error_count blk)

let test_blk_transient_fault_retry () =
  let blk, _ = make_blk () in
  Blockdev.load blk ~sector:0 "retry-me";
  let f = Velum_util.Fault.create ~seed:7L () in
  (* the fault window covers only the first command's issue time *)
  Velum_util.Fault.add_window f Velum_util.Fault.Blk_transient ~lo:0L ~hi:1_000L;
  Blockdev.set_faults blk f;
  let d = Blockdev.device blk in
  let issue () =
    d.Bus.write Blockdev.reg_sector Instr.W64 0L;
    d.Bus.write Blockdev.reg_count Instr.W64 1L;
    d.Bus.write Blockdev.reg_dma Instr.W64 0x100L;
    d.Bus.write Blockdev.reg_cmd Instr.W64 Blockdev.cmd_read
  in
  issue ();
  d.Bus.tick 10_000_000L;
  check64 "injected error" Blockdev.status_error
    (d.Bus.read Blockdev.reg_status Instr.W64);
  checki "error counted" 1 (Blockdev.error_count blk);
  checki "fault observed" 1 (Velum_util.Fault.observed f Velum_util.Fault.Blk_transient);
  (* past the window the retry succeeds *)
  issue ();
  d.Bus.tick 20_000_000L;
  check64 "retry succeeds" Blockdev.status_done
    (d.Bus.read Blockdev.reg_status Instr.W64);
  checki "no new error" 1 (Blockdev.error_count blk)

(* Guest SECTOR/COUNT values whose sum or byte offset overflows, or
   whose top bit [Int64.to_int] would drop, fail the command like any
   other bad range: nothing raises out of the MMIO write, nothing is
   allocated, and no other sector is read or written in their place. *)
let blk_overflow ~written cmd sector count () =
  let blk, mem = make_blk () in
  Bytes.fill mem 0x100 512 'g';
  if written then Blockdev.load blk ~sector:5 (String.make 512 's');
  let sector5 = Blockdev.read_back blk ~sector:5 ~count:1 in
  let resident = Blockdev.resident_bytes blk in
  let d = Blockdev.device blk in
  d.Bus.write Blockdev.reg_sector Instr.W64 sector;
  d.Bus.write Blockdev.reg_count Instr.W64 count;
  d.Bus.write Blockdev.reg_dma Instr.W64 0x100L;
  d.Bus.write Blockdev.reg_cmd Instr.W64 cmd;
  d.Bus.tick 10_000_000L;
  check64 "error" Blockdev.status_error (d.Bus.read Blockdev.reg_status Instr.W64);
  checki "error counted" 1 (Blockdev.error_count blk);
  checki "nothing allocated" resident (Blockdev.resident_bytes blk);
  checks "sector 5 unchanged" sector5 (Blockdev.read_back blk ~sector:5 ~count:1);
  checkb "guest buffer untouched" true (Bytes.sub_string mem 0x100 512 = String.make 512 'g')

let blk_overflow_cases =
  let max = Int64.of_int max_int and r = Blockdev.cmd_read and w = Blockdev.cmd_write in
  [ ("read sector=max_int, unwritten disk", false, r, max, 1L);
    ("read sector=max_int", true, r, max, 1L);
    ("read count=max_int", true, r, 0L, max);
    ("read sector=Int64.max_int", true, r, Int64.max_int, 1L);
    ("write sector=max_int", true, w, max, 1L);
    ("write count=max_int", true, w, 1L, max);
    ("write sector=2^63+5", true, w, 0x8000_0000_0000_0005L, 1L);
    ("read sector=2^63+5", true, r, 0x8000_0000_0000_0005L, 1L) ]
  |> List.map (fun (name, written, cmd, sector, count) ->
         Alcotest.test_case ("overflow: " ^ name) `Quick
           (blk_overflow ~written cmd sector count))

(* Disks allocate each backing extent on its first write.  Until then
   they cost no memory, read as zeros and report their full capacity. *)
let test_blk_lazy_backing () =
  let null_dma = { Blockdev.dma_read = (fun _ _ -> None); dma_write = (fun _ _ -> false) } in
  let before = Gc.allocated_bytes () in
  let blk = Blockdev.create ~sectors:2048 null_dma in
  let capacity = 2048 * Blockdev.sector_bytes in
  checki "capacity before first use" capacity (Blockdev.capacity_bytes blk);
  checks "untouched sectors read as zeros" (String.make 1024 '\000')
    (Blockdev.read_back blk ~sector:7 ~count:2);
  checkb "untouched bytes read as zeros" true
    (Bytes.equal (Blockdev.pread blk ~off:100 ~len:33) (Bytes.make 33 '\000'));
  checkb "no backing allocated by reads" true
    (Gc.allocated_bytes () -. before < float_of_int (capacity / 4));
  checki "no extent resident" 0 (Blockdev.resident_bytes blk);
  Alcotest.check_raises "range still checked" (Invalid_argument "Blockdev.pread: out of range")
    (fun () -> ignore (Blockdev.pread blk ~off:(capacity - 4) ~len:8));
  Blockdev.load blk ~sector:3 "loaded";
  checks "load/read_back" "loaded" (String.sub (Blockdev.read_back blk ~sector:3 ~count:1) 0 6);
  Blockdev.pwrite blk ~off:1001 (Bytes.of_string "..xyz") ~pos:2 ~len:3;
  checks "pwrite/pread" "\000xyz\000"
    (Bytes.to_string (Blockdev.pread blk ~off:1000 ~len:5));
  checks "rest still zeros" (String.make 512 '\000') (Blockdev.read_back blk ~sector:9 ~count:1);
  checki "one extent resident" Backing.extent_bytes (Blockdev.resident_bytes blk);
  checki "capacity unchanged" capacity (Blockdev.capacity_bytes blk)

let test_backing_allocates_on_write () =
  let e = Backing.extent_bytes in
  let b = Backing.create ~bytes:((3 * e) + 4096) in
  checki "empty until written" 0 (Backing.resident_bytes b);
  checks "zeros" "\000\000\000" (Backing.sub_string b ~off:(e - 1) ~len:3);
  checkb "unwritten compares equal to zeros" true
    (Backing.equal_range b ~off:(e - 8) (Bytes.make 16 '\000') ~pos:0 ~len:16);
  checki "reads do not allocate" 0 (Backing.resident_bytes b);
  Backing.blit_from_string b ~off:(e - 1) "end";
  checki "a straddling write allocates both extents" (2 * e) (Backing.resident_bytes b);
  checks "written" "end" (Bytes.to_string (Backing.sub b ~off:(e - 1) ~len:3));
  Backing.blit_from_string b ~off:((3 * e) + 4093) "end";
  checki "the short last extent costs its own size" ((2 * e) + 4096) (Backing.resident_bytes b);
  let c = Backing.copy b in
  Backing.blit_from_string b ~off:0 "src";
  checki "the copy keeps written extents only" ((2 * e) + 4096) (Backing.resident_bytes c);
  checks "the copy is independent" "\000\000en"
    (Backing.sub_string c ~off:(e - 3) ~len:4);
  checki "length" ((3 * e) + 4096) (Backing.length b);
  checkb "no overflow in the range check" false (Backing.in_range b ~off:1 ~len:max_int);
  Alcotest.check_raises "overflowing sub raises" (Invalid_argument "Backing.sub: out of range")
    (fun () -> ignore (Backing.sub b ~off:max_int ~len:1))

(* A dense [Bytes.t] is the reference model of a store: random
   operation sequences, biased toward extent boundaries, zero lengths,
   the end of the store and out-of-range inputs, must give the model's
   results — [Invalid_argument] exactly where the model raises it — and
   [resident_bytes] must equal the total size of the extents that
   successful writes touched. *)
type backing_op =
  | B_blit of int * int * int (* off, pos, len *)
  | B_blit_string of int * int (* off, len *)
  | B_sub of int * int
  | B_sub_string of int * int
  | B_equal of int * int * int * int (* off, pos, len, flipped byte in 1/1000s of len, or -1 *)
  | B_in_range of int * int
  | B_copy of int * int * int (* src, dst, len *)

let prop_backing_model =
  let e = Backing.extent_bytes in
  let open QCheck2.Gen in
  let size =
    oneof
      [ int_range 0 (3 * e); map (fun k -> k * e) (int_range 1 3);
        map (fun k -> (k * e) + 512) (int_range 0 2) ]
  in
  let point size =
    frequency
      [ (4, map2 (fun k d -> (k * e) + d) (int_range 0 3) (int_range (-3) 3));
        (2, map (fun d -> size - d) (int_range (-2) 3));
        (3, int_range 0 (max 0 size));
        (1, oneofl [ -1; max_int; min_int; max_int - 7 ]) ]
  in
  let length =
    frequency
      [ (3, int_range 0 8); (3, map (fun k -> (k * e) + 1) (int_range 0 2));
        (3, int_range 0 (2 * e + 9)); (1, oneofl [ -1; max_int ]) ]
  in
  let op size =
    let pt = point size and small = int_range 0 4 in
    oneof
      [ map3 (fun off pos len -> B_blit (off, pos, len)) pt small length;
        map2 (fun off len -> B_blit_string (off, min len (2 * e))) pt
          (map abs length);
        map2 (fun off len -> B_sub (off, len)) pt length;
        map2 (fun off len -> B_sub_string (off, len)) pt length;
        map3 (fun (off, pos) len flip -> B_equal (off, pos, len, flip))
          (pair pt small) length (int_range (-1) 999);
        map2 (fun off len -> B_in_range (off, len)) pt length;
        map3 (fun src dst len -> B_copy (src, dst, len)) pt pt length ]
  in
  let print_op = function
    | B_blit (o, p, l) -> Printf.sprintf "blit(%d,%d,%d)" o p l
    | B_blit_string (o, l) -> Printf.sprintf "blit_string(%d,%d)" o l
    | B_sub (o, l) -> Printf.sprintf "sub(%d,%d)" o l
    | B_sub_string (o, l) -> Printf.sprintf "sub_string(%d,%d)" o l
    | B_equal (o, p, l, f) -> Printf.sprintf "equal(%d,%d,%d,%d)" o p l f
    | B_in_range (o, l) -> Printf.sprintf "in_range(%d,%d)" o l
    | B_copy (s, d, l) -> Printf.sprintf "copy(%d,%d,%d)" s d l
  in
  QCheck2.Test.make ~count:150 ~name:"backing matches a dense model"
    ~print:(fun (size, ops) ->
      Printf.sprintf "size %d: %s" size (String.concat " " (List.map print_op ops)))
    (size >>= fun size -> pair (return size) (list_size (int_range 1 25) (op size)))
    (fun (size, ops) ->
      let t = Backing.create ~bytes:size and model = Bytes.make size '\000' in
      let touched = Array.make ((size + e - 1) / e) false in
      let touch off len =
        if len > 0 then
          for i = off / e to (off + len - 1) / e do
            touched.(i) <- true
          done
      in
      (* a buffer of [n] (clamped) distinct, partly zero bytes *)
      let buf seed n =
        Bytes.init (max 0 (min n ((2 * e) + 16))) (fun i -> Char.chr ((seed + (i * 31)) land 255))
      in
      let outcome f = try Ok (f ()) with Invalid_argument _ -> Error () in
      let agree name a b =
        if a <> b then QCheck2.Test.fail_reportf "%s disagrees with the model" name
      in
      List.iteri
        (fun step op ->
          (match op with
          | B_blit (off, pos, len) ->
              let src = buf step (pos + len) in
              let m = outcome (fun () -> Bytes.blit src pos model off len) in
              agree "blit_from" m (outcome (fun () -> Backing.blit_from t ~off src ~pos ~len));
              if m = Ok () then touch off len
          | B_blit_string (off, len) ->
              let s = Bytes.to_string (buf step len) in
              let m = outcome (fun () -> Bytes.blit_string s 0 model off len) in
              agree "blit_from_string" m (outcome (fun () -> Backing.blit_from_string t ~off s));
              if m = Ok () then touch off len
          | B_sub (off, len) ->
              agree "sub"
                (outcome (fun () -> Bytes.sub model off len))
                (outcome (fun () -> Backing.sub t ~off ~len))
          | B_sub_string (off, len) ->
              agree "sub_string"
                (outcome (fun () -> Bytes.sub_string model off len))
                (outcome (fun () -> Backing.sub_string t ~off ~len))
          | B_equal (off, pos, len, flip) ->
              let b = buf step (pos + len) in
              (try Bytes.blit model off b pos len with Invalid_argument _ -> ());
              let flip =
                if flip < 0 || len <= 0 || len > Bytes.length b then -1
                else pos + (flip * len / 1000)
              in
              if flip >= 0 && flip < Bytes.length b then
                Bytes.set b flip (Char.chr (Char.code (Bytes.get b flip) lxor 1));
              agree "equal_range"
                (outcome (fun () -> Velum_util.Fnv.equal_range model off b pos len))
                (outcome (fun () -> Backing.equal_range t ~off b ~pos ~len))
          | B_in_range (off, len) ->
              agree "in_range"
                (Ok (Result.is_ok (outcome (fun () -> Bytes.sub model off len))))
                (Ok (Backing.in_range t ~off ~len))
          | B_copy (src, dst, len) ->
              let m =
                outcome (fun () ->
                    ignore (Bytes.sub model src len);
                    ignore (Bytes.sub model dst len);
                    if len > 0 && src < dst + len && dst < src + len then invalid_arg "overlap";
                    Bytes.blit model src model dst len)
              in
              agree "copy_within" m (outcome (fun () -> Backing.copy_within t ~src ~dst ~len));
              if m = Ok () then touch dst len);
          let expect = ref 0 in
          Array.iteri (fun i hit -> if hit then expect := !expect + min e (size - (i * e))) touched;
          if Backing.resident_bytes t <> !expect then
            QCheck2.Test.fail_reportf "resident_bytes %d, touched extents hold %d"
              (Backing.resident_bytes t) !expect)
        ops;
      Bytes.equal model (Backing.sub t ~off:0 ~len:size))

(* ---------------- Virtio ring ---------------- *)

let make_guest_mem () =
  let mem = Phys_mem.create ~frames:16 in
  Platform.identity_guest_mem mem

let test_ring_push_pending () =
  let gm = make_guest_mem () in
  let ring = Virtio_ring.create ~mem:gm ~base:0x1000L ~size:4 in
  check64 "avail 0" 0L (Virtio_ring.avail_idx ring);
  let d =
    { Virtio_ring.data_gpa = 0x2000L; data_len = 512; kind = 1L; arg = 7L; status_gpa = 0x3000L }
  in
  checkb "push" true (Virtio_ring.guest_push ring d);
  check64 "avail 1" 1L (Virtio_ring.avail_idx ring);
  (match Virtio_ring.pending ring with
  | [ got ] ->
      check64 "gpa" 0x2000L got.Virtio_ring.data_gpa;
      checki "len" 512 got.Virtio_ring.data_len;
      check64 "arg" 7L got.Virtio_ring.arg
  | l -> Alcotest.fail (Printf.sprintf "expected 1 pending, got %d" (List.length l)));
  Virtio_ring.complete ring ~count:1;
  checkb "drained" true (Virtio_ring.pending ring = [])

let test_ring_full_and_wrap () =
  let gm = make_guest_mem () in
  let ring = Virtio_ring.create ~mem:gm ~base:0x1000L ~size:2 in
  let d i =
    { Virtio_ring.data_gpa = Int64.of_int (0x2000 + i); data_len = 8; kind = 1L;
      arg = Int64.of_int i; status_gpa = 0x3000L }
  in
  checkb "p0" true (Virtio_ring.guest_push ring (d 0));
  checkb "p1" true (Virtio_ring.guest_push ring (d 1));
  checkb "full" false (Virtio_ring.guest_push ring (d 2));
  Virtio_ring.complete ring ~count:2;
  (* free-running indices wrap around the slot array *)
  checkb "p2 after complete" true (Virtio_ring.guest_push ring (d 2));
  match Virtio_ring.pending ring with
  | [ got ] -> check64 "wrapped slot" 2L got.Virtio_ring.arg
  | _ -> Alcotest.fail "expected one pending"

let test_ring_bad_size () =
  let gm = make_guest_mem () in
  Alcotest.check_raises "not power of two"
    (Invalid_argument "Virtio_ring.create: size must be a positive power of two")
    (fun () -> ignore (Virtio_ring.create ~mem:gm ~base:0L ~size:3))

(* ---------------- Virtio blk ---------------- *)

let test_vblk_batch () =
  let mem = Phys_mem.create ~frames:32 in
  let gm = Platform.identity_guest_mem mem in
  let vblk = Virtio_blk.create ~sectors:64 gm in
  Virtio_blk.load vblk ~sector:0 "sector-zero";
  Virtio_blk.load vblk ~sector:1 "sector-one!";
  let d = Virtio_blk.device vblk in
  d.Bus.write Virtio_blk.reg_ring_base Instr.W64 0x1000L;
  d.Bus.write Virtio_blk.reg_ring_size Instr.W64 4L;
  let ring = Virtio_ring.create ~mem:gm ~base:0x1000L ~size:4 in
  let push sector buf st =
    ignore
      (Virtio_ring.guest_push ring
         { Virtio_ring.data_gpa = buf; data_len = 512; kind = Virtio_blk.kind_read;
           arg = sector; status_gpa = st })
  in
  push 0L 0x4000L 0x3000L;
  push 1L 0x5000L 0x3008L;
  d.Bus.write Virtio_blk.reg_kick Instr.W64 0L;
  checki "one kick" 1 (Virtio_blk.kicks vblk);
  checkb "deadline" true (Virtio_blk.next_completion vblk <> None);
  d.Bus.tick 10_000_000L;
  check64 "used advanced" 2L (Virtio_ring.used_idx ring);
  checki "ops" 2 (Virtio_blk.completed_ops vblk);
  check64 "isr" 1L (d.Bus.read Virtio_blk.reg_isr Instr.W64);
  check64 "isr acked" 0L (d.Bus.read Virtio_blk.reg_isr Instr.W64);
  checks "payload 0" "sector-zero"
    (String.sub (Bytes.to_string (Option.get (gm.Virtio_ring.read_bytes 0x4000L 11))) 0 11);
  checks "payload 1" "sector-one!"
    (String.sub (Bytes.to_string (Option.get (gm.Virtio_ring.read_bytes 0x5000L 11))) 0 11);
  check64 "status ok" 0L
    (Int64.of_int (Char.code (Bytes.get (Option.get (gm.Virtio_ring.read_bytes 0x3000L 1)) 0)))

let test_vblk_error_status () =
  let mem = Phys_mem.create ~frames:32 in
  let gm = Platform.identity_guest_mem mem in
  let vblk = Virtio_blk.create ~sectors:4 gm in
  let d = Virtio_blk.device vblk in
  d.Bus.write Virtio_blk.reg_ring_base Instr.W64 0x1000L;
  d.Bus.write Virtio_blk.reg_ring_size Instr.W64 4L;
  let ring = Virtio_ring.create ~mem:gm ~base:0x1000L ~size:4 in
  ignore
    (Virtio_ring.guest_push ring
       { Virtio_ring.data_gpa = 0x4000L; data_len = 512; kind = Virtio_blk.kind_read;
         arg = 100L (* out of range *); status_gpa = 0x3000L });
  d.Bus.write Virtio_blk.reg_kick Instr.W64 0L;
  d.Bus.tick 10_000_000L;
  check64 "status error" 1L
    (Int64.of_int (Char.code (Bytes.get (Option.get (gm.Virtio_ring.read_bytes 0x3000L 1)) 0)))

(* The virtio counterpart of [blk_overflow]: a descriptor whose sector
   is huge — 2^54+5 once wrapped to byte offset 2560, i.e. sector 5 —
   or whose length overflows the range check completes with status 1. *)
let vblk_overflow kind sector len () =
  let mem = Phys_mem.create ~frames:32 in
  let gm = Platform.identity_guest_mem mem in
  let vblk = Virtio_blk.create ~sectors:64 gm in
  Virtio_blk.load vblk ~sector:5 (String.make 512 's');
  ignore (gm.Virtio_ring.write_bytes 0x4000L (Bytes.make 512 'g'));
  let resident = Virtio_blk.resident_bytes vblk in
  let d = Virtio_blk.device vblk in
  d.Bus.write Virtio_blk.reg_ring_base Instr.W64 0x1000L;
  d.Bus.write Virtio_blk.reg_ring_size Instr.W64 4L;
  let ring = Virtio_ring.create ~mem:gm ~base:0x1000L ~size:4 in
  ignore
    (Virtio_ring.guest_push ring
       { Virtio_ring.data_gpa = 0x4000L; data_len = len; kind; arg = sector;
         status_gpa = 0x3000L });
  d.Bus.write Virtio_blk.reg_kick Instr.W64 0L;
  d.Bus.tick 10_000_000L;
  check64 "status error" 1L
    (Int64.of_int (Char.code (Bytes.get (Option.get (gm.Virtio_ring.read_bytes 0x3000L 1)) 0)));
  checki "error counted" 1 (Virtio_blk.error_count vblk);
  checki "nothing allocated" resident (Virtio_blk.resident_bytes vblk);
  checks "sector 5 unchanged" (String.make 512 's') (Virtio_blk.read_back vblk ~sector:5 ~count:1);
  checks "guest buffer untouched" (String.make 512 'g')
    (Bytes.to_string (Option.get (gm.Virtio_ring.read_bytes 0x4000L 512)))

let vblk_overflow_cases =
  let wrap5 = Int64.add (Int64.shift_left 1L 54) 5L and huge = max_int / 512 * 512 in
  let r = Virtio_blk.kind_read and w = Virtio_blk.kind_write in
  [ ("read sector=2^54+5", r, wrap5, 512);
    ("write sector=2^54+5", w, wrap5, 512);
    ("read sector=Int64.max_int", r, Int64.max_int, 512);
    ("write sector=2^63+5", w, 0x8000_0000_0000_0005L, 512);
    ("read length near max_int", r, 1L, huge);
    ("write length near max_int", w, 1L, huge) ]
  |> List.map (fun (name, kind, sector, len) ->
         Alcotest.test_case ("overflow: " ^ name) `Quick (vblk_overflow kind sector len))

(* An untouched virtio disk DMAs zeros into the guest; a guest write is
   what allocates its store, and read_back sees it. *)
let test_vblk_lazy_backing () =
  let mem = Phys_mem.create ~frames:32 in
  let gm = Platform.identity_guest_mem mem in
  let vblk = Virtio_blk.create ~sectors:2048 gm in
  checks "untouched reads as zeros" (String.make 512 '\000')
    (Virtio_blk.read_back vblk ~sector:2047 ~count:1);
  ignore (gm.Virtio_ring.write_bytes 0x4000L (Bytes.make 512 '\255'));
  ignore (gm.Virtio_ring.write_bytes 0x5000L (Bytes.make 512 'w'));
  let d = Virtio_blk.device vblk in
  d.Bus.write Virtio_blk.reg_ring_base Instr.W64 0x1000L;
  d.Bus.write Virtio_blk.reg_ring_size Instr.W64 4L;
  let ring = Virtio_ring.create ~mem:gm ~base:0x1000L ~size:4 in
  let push kind sector buf st =
    ignore
      (Virtio_ring.guest_push ring
         { Virtio_ring.data_gpa = buf; data_len = 512; kind; arg = sector; status_gpa = st })
  in
  push Virtio_blk.kind_read 9L 0x4000L 0x3000L;
  push Virtio_blk.kind_write 10L 0x5000L 0x3008L;
  d.Bus.write Virtio_blk.reg_kick Instr.W64 0L;
  d.Bus.tick 10_000_000L;
  checki "both ok" 0 (Virtio_blk.error_count vblk);
  checks "guest got zeros" (String.make 512 '\000')
    (Bytes.to_string (Option.get (gm.Virtio_ring.read_bytes 0x4000L 512)));
  checks "write landed" (String.make 512 'w') (Virtio_blk.read_back vblk ~sector:10 ~count:1);
  checks "neighbour still zeros" (String.make 512 '\000')
    (Virtio_blk.read_back vblk ~sector:11 ~count:1)

(* ---------------- Link ---------------- *)

let test_link_transfer_model () =
  let l = Link.create ~bytes_per_cycle:2.0 ~latency_cycles:100 () in
  checki "transfer cycles" (100 + 500) (Link.transfer_cycles l ~bytes:1000);
  let arrival = Link.send l ~from:`A ~now:0L ~payload:(String.make 1000 'x') in
  check64 "arrival" 600L arrival;
  (* second frame queues behind the first on the line *)
  let arrival2 = Link.send l ~from:`A ~now:0L ~payload:(String.make 1000 'y') in
  check64 "serialized" 1100L arrival2;
  checki "in flight" 2 (Link.in_flight l);
  checki "bytes" 2000 (Link.bytes_sent l)

let test_link_poll () =
  let l = Link.create ~bytes_per_cycle:1.0 ~latency_cycles:10 () in
  ignore (Link.send l ~from:`A ~now:0L ~payload:"one");
  ignore (Link.send l ~from:`A ~now:0L ~payload:"two");
  Alcotest.(check (list string)) "nothing yet" [] (Link.poll l ~at:`B ~now:5L);
  Alcotest.(check (list string)) "both in order" [ "one"; "two" ]
    (Link.poll l ~at:`B ~now:1000L);
  Alcotest.(check (list string)) "drained" [] (Link.poll l ~at:`B ~now:2000L)

let test_link_directions_independent () =
  let l = Link.create () in
  ignore (Link.send l ~from:`A ~now:0L ~payload:"to-b");
  ignore (Link.send l ~from:`B ~now:0L ~payload:"to-a");
  Alcotest.(check (list string)) "b gets" [ "to-b" ] (Link.poll l ~at:`B ~now:100_000L);
  Alcotest.(check (list string)) "a gets" [ "to-a" ] (Link.poll l ~at:`A ~now:100_000L)

(* ---------------- Nic ---------------- *)

let test_nic_loopback () =
  let link = Link.create ~bytes_per_cycle:10.0 ~latency_cycles:50 () in
  let mem_a = Phys_mem.create ~frames:4 and mem_b = Phys_mem.create ~frames:4 in
  let nic_a = Nic.create ~link ~endpoint:`A ~dma:(Platform.identity_dma mem_a) () in
  let nic_b = Nic.create ~link ~endpoint:`B ~dma:(Platform.identity_dma mem_b) () in
  let da = Nic.device nic_a and db = Nic.device nic_b in
  (* put a frame in A's memory and transmit *)
  Phys_mem.write mem_a 0x100L Instr.W64 0x11223344L;
  da.Bus.write Nic.reg_tx_addr Instr.W64 0x100L;
  da.Bus.write Nic.reg_tx_len Instr.W64 8L;
  da.Bus.write Nic.reg_tx_cmd Instr.W64 1L;
  checki "sent" 1 (Nic.frames_sent nic_a);
  (* before latency elapses nothing is pending at B *)
  db.Bus.tick 10L;
  check64 "rx empty" 0L (db.Bus.read Nic.reg_rx_len Instr.W64);
  db.Bus.tick 10_000L;
  checkb "irq" true (db.Bus.pending_irq ());
  check64 "rx len" 8L (db.Bus.read Nic.reg_rx_len Instr.W64);
  db.Bus.write Nic.reg_rx_dma Instr.W64 0x200L;
  db.Bus.write Nic.reg_rx_cmd Instr.W64 1L;
  checki "received" 1 (Nic.frames_received nic_b);
  check64 "payload" 0x11223344L (Phys_mem.read mem_b 0x200L Instr.W64)

let test_uart_rx_overflow () =
  let u = Uart.create ~rx_capacity:4 () in
  Uart.feed_input u "abcdef" (* e, f dropped *);
  let drained = ref "" in
  for _ = 1 to 6 do
    let v = Uart.read_reg u Uart.reg_data in
    if v <> 0L then drained := !drained ^ String.make 1 (Char.chr (Int64.to_int v))
  done;
  checks "capacity bounds input" "abcd" !drained

let test_nic_oversized_frame_dropped () =
  let link = Link.create () in
  let mem = Phys_mem.create ~frames:8 in
  let nic = Nic.create ~link ~endpoint:`A ~dma:(Platform.identity_dma mem) () in
  let d = Nic.device nic in
  d.Bus.write Nic.reg_tx_addr Instr.W64 0L;
  d.Bus.write Nic.reg_tx_len Instr.W64 (Int64.of_int (Nic.max_frame + 1));
  d.Bus.write Nic.reg_tx_cmd Instr.W64 1L;
  checki "not sent" 0 (Nic.frames_sent nic);
  checki "nothing on the wire" 0 (Link.in_flight link)

let test_device_tick_monotonic () =
  let blk, _ = make_blk () in
  let d = Blockdev.device blk in
  d.Bus.write Blockdev.reg_sector Instr.W64 0L;
  d.Bus.write Blockdev.reg_count Instr.W64 1L;
  d.Bus.write Blockdev.reg_dma Instr.W64 0x100L;
  d.Bus.write Blockdev.reg_cmd Instr.W64 Blockdev.cmd_read;
  d.Bus.tick 10_000_000L;
  check64 "completed" Blockdev.status_done (d.Bus.read Blockdev.reg_status Instr.W64);
  (* a lagging pCPU ticks with an older timestamp: the device clock must
     not rewind, so the new command is still in flight... *)
  d.Bus.write Blockdev.reg_cmd Instr.W64 Blockdev.cmd_read;
  d.Bus.tick 5L;
  check64 "no spurious completion from a stale tick" Blockdev.status_busy
    (d.Bus.read Blockdev.reg_status Instr.W64);
  (* ...and completes once time genuinely advances *)
  d.Bus.tick 30_000_000L;
  check64 "completes later" Blockdev.status_done
    (d.Bus.read Blockdev.reg_status Instr.W64)

(* ---------------- Network fabric ---------------- *)

(* A slot whose descriptor words are unreadable must still move the used
   index: the in-order ring would otherwise desynchronize forever (the
   device completing only well-formed slots leaves used < avail with
   nothing pending). *)
let test_ring_malformed_slot () =
  let mem = Phys_mem.create ~frames:16 in
  let base_gm = Platform.identity_guest_mem mem in
  let poisoned = ref Int64.minus_one in
  let gm =
    {
      base_gm with
      Virtio_ring.read_u64 =
        (fun a -> if a = !poisoned then None else base_gm.Virtio_ring.read_u64 a);
    }
  in
  let ring = Virtio_ring.create ~mem:gm ~base:0x1000L ~size:4 in
  poisoned := Virtio_ring.slot_addr ring 1L;
  for i = 0 to 2 do
    ignore
      (Virtio_ring.guest_push ring
         { Virtio_ring.data_gpa = Int64.of_int (0x4000 + (i * 64)); data_len = 48;
           kind = 0L; arg = 0L; status_gpa = Int64.of_int (0x3000 + (i * 8)) })
  done;
  (match Virtio_ring.pending_slots ring with
  | [ (0L, Some _); (1L, None); (2L, Some _) ] -> ()
  | l -> Alcotest.fail (Printf.sprintf "unexpected slots (%d)" (List.length l)));
  checki "pending drops malformed" 2 (List.length (Virtio_ring.pending ring));
  Virtio_ring.fail_slot ring 1L;
  Virtio_ring.complete ring ~count:3;
  check64 "used catches avail" (Virtio_ring.avail_idx ring)
    (Virtio_ring.used_idx ring);
  checkb "error status written" true
    (Bytes.get (Option.get (base_gm.Virtio_ring.read_bytes 0x3008L 1)) 0
    = Virtio_ring.error_status)

(* The same condition end-to-end through the device: a kick over a batch
   with an unreadable middle slot sends the readable frames, fails the
   bad slot, and leaves the ring live for the next batch. *)
let test_vnet_malformed_tx_slot () =
  let link = Link.create ~bytes_per_cycle:8.0 ~latency_cycles:10 () in
  let mem = Phys_mem.create ~frames:16 in
  let base_gm = Platform.identity_guest_mem mem in
  let poisoned = ref Int64.minus_one in
  let gm =
    {
      base_gm with
      Virtio_ring.read_u64 =
        (fun a -> if a = !poisoned then None else base_gm.Virtio_ring.read_u64 a);
    }
  in
  let v = Virtio_net.create ~link ~endpoint:`A ~mem:gm () in
  Setups.vnet_rings v ~tx_base:0x1000L ~tx_size:4L ~rx_base:0x2000L ~rx_size:4L;
  let ring = Virtio_ring.create ~mem:gm ~base:0x1000L ~size:4 in
  poisoned := Virtio_ring.slot_addr ring 1L;
  let push i =
    ignore
      (Virtio_ring.guest_push ring
         { Virtio_ring.data_gpa = Int64.of_int (0x4000 + (i * 64)); data_len = 48;
           kind = 0L; arg = 0L; status_gpa = Int64.of_int (0x3000 + (i * 8)) })
  in
  push 0; push 1; push 2;
  Virtio_net.kick v;
  checki "two on the wire" 2 (Virtio_net.frames_sent v);
  checki "malformed counted" 1 (Virtio_net.tx_malformed v);
  check64 "no used-index desync" (Virtio_ring.avail_idx ring)
    (Virtio_ring.used_idx ring);
  checkb "failed slot status" true
    (Bytes.get (Option.get (base_gm.Virtio_ring.read_bytes 0x3008L 1)) 0
    = Virtio_ring.error_status);
  (* ring still usable after the malformed batch *)
  push 3;
  Virtio_net.kick v;
  checki "next batch flows" 3 (Virtio_net.frames_sent v)

let test_vnet_rx_overflow () =
  let link = Link.create ~bytes_per_cycle:8.0 ~latency_cycles:10 () in
  let mem = Phys_mem.create ~frames:16 in
  let gm = Platform.identity_guest_mem mem in
  let v = Virtio_net.create ~link ~endpoint:`A ~mem:gm ~backlog_capacity:4 () in
  for _ = 1 to 7 do
    ignore (Link.send link ~from:`B ~now:0L ~payload:(String.make 48 'x'))
  done;
  (* no RX ring posted yet: the backlog bounds what the device holds *)
  Virtio_net.tick v 100_000L;
  checki "backlog full" 4 (Virtio_net.backlog_length v);
  checki "overflow counted" 3 (Virtio_net.rx_overflow v);
  (* post two empty buffers; exactly two deliver, the rest stay queued *)
  Setups.vnet_rings v ~tx_base:0x1000L ~tx_size:4L ~rx_base:0x2000L ~rx_size:4L;
  let rx = Virtio_ring.create ~mem:gm ~base:0x2000L ~size:4 in
  for i = 0 to 1 do
    ignore
      (Virtio_ring.guest_push rx
         { Virtio_ring.data_gpa = Int64.of_int (0x4000 + (i * 64)); data_len = 64;
           kind = 0L; arg = 0L; status_gpa = Int64.of_int (0x3000 + (i * 8)) })
  done;
  Virtio_net.tick v 200_000L;
  checki "delivered into posted buffers" 2 (Virtio_net.frames_received v);
  checki "rest still queued" 2 (Virtio_net.backlog_length v);
  check64 "used advanced" 2L (Virtio_ring.used_idx rx);
  (* arrivals = delivered + overflow + queued *)
  checki "conservation" 7
    (Virtio_net.frames_received v + Virtio_net.rx_overflow v
   + Virtio_net.backlog_length v)

(* The RX walk against the eager one it replaced: read every pending
   descriptor first, then deliver the backlog in order.  The device now
   reads each slot only when it reaches it; with buffers and status
   words apart from the ring, the two must leave guest memory, the used
   index, the counters and the interrupt identical. *)
type rx_slot =
  | Rx_good of int  (* buffer length *)
  | Rx_malformed of int  (* descriptor word that fails to read *)
  | Rx_unwritable  (* buffer runs past the end of RAM *)

let eager_rx_walk (gm : Virtio_ring.guest_mem) ring frames =
  let backlog = Queue.of_seq (List.to_seq frames) in
  let received = ref 0 and dropped = ref 0 and malformed = ref 0 in
  let status (d : Virtio_ring.desc) v = ignore (gm.write_u64 d.status_gpa v) in
  let rec go completed = function
    | [] -> completed
    | (idx, None) :: rest ->
        incr malformed;
        Virtio_ring.fail_slot ring idx;
        go (completed + 1) rest
    | (_, Some (d : Virtio_ring.desc)) :: rest -> (
        match Queue.take_opt backlog with
        | None -> completed
        | Some frame ->
            let len = String.length frame in
            if len > d.data_len then begin
              incr dropped;
              status d 1L
            end
            else if gm.write_bytes d.data_gpa (Bytes.of_string frame) then begin
              incr received;
              status d (Int64.of_int (len lsl 8))
            end
            else begin
              incr dropped;
              status d 1L
            end;
            go (completed + 1) rest)
  in
  let completed = go 0 (Virtio_ring.pending_slots ring) in
  if completed > 0 then Virtio_ring.complete ring ~count:completed;
  (!received, !dropped, !malformed, completed > 0, Queue.length backlog)

let prop_rx_walk_matches_eager =
  QCheck2.Test.make ~count:300 ~name:"vnet rx walk = eager reference walk"
    QCheck2.Gen.(
      oneofl [ 1; 2; 4; 8 ] >>= fun size ->
      let slot =
        frequency
          [
            (5, map (fun l -> Rx_good l) (int_range 1 96));
            (2, map (fun w -> Rx_malformed w) (int_range 0 4));
            (1, return Rx_unwritable);
          ]
      in
      quad (int_range 0 40)
        (frequency [ (8, int_range 0 size); (1, return (size + 1)) ])
        (list_repeat size slot)
        (frequency
           [
             (1, return []);
             (2, list_size (int_range 1 (size + 2)) (string_size ~gen:printable (int_range 16 64)));
           ])
      >|= fun c -> (size, c))
    (fun (size, (used, posted, slots, frames)) ->
      let frames_n = 16 and rx_base = 0x1000L in
      let setup () =
        let mem = Phys_mem.create ~frames:frames_n in
        let base = Platform.identity_guest_mem mem in
        let ring = Virtio_ring.create ~mem:base ~base:rx_base ~size in
        let poisoned = ref [] in
        (* header: avail_idx, then used_idx *)
        ignore (base.write_u64 rx_base (Int64.of_int (used + posted)));
        ignore (base.write_u64 (Int64.add rx_base 8L) (Int64.of_int used));
        List.iteri
          (fun i kind ->
            let a = Virtio_ring.slot_addr ring (Int64.of_int i) in
            let data_gpa, data_len =
              match kind with
              | Rx_good l -> (Int64.of_int (0x4000 + (128 * i)), l)
              | Rx_malformed _ -> (Int64.of_int (0x4000 + (128 * i)), 96)
              | Rx_unwritable -> (Int64.of_int ((frames_n * 4096) - 8), 96)
            in
            List.iteri
              (fun k v -> ignore (base.write_u64 (Int64.add a (Int64.of_int (8 * k))) v))
              [ data_gpa; Int64.of_int data_len; 0L; 0L; Int64.of_int (0x3000 + (8 * i)) ];
            match kind with
            | Rx_malformed w -> poisoned := Int64.add a (Int64.of_int (8 * w)) :: !poisoned
            | _ -> ())
          slots;
        let gm =
          {
            base with
            Virtio_ring.read_u64 =
              (fun a -> if List.mem a !poisoned then None else base.read_u64 a);
          }
        in
        (mem, gm)
      in
      let mem_d, gm_d = setup () and mem_m, gm_m = setup () in
      let link = Link.create ~bytes_per_cycle:8.0 ~latency_cycles:10 () in
      let v = Virtio_net.create ~link ~endpoint:`A ~mem:gm_d () in
      Setups.vnet_rings v ~tx_base:0x2000L ~tx_size:4L ~rx_base ~rx_size:(Int64.of_int size);
      List.iter (fun f -> ignore (Link.send link ~from:`B ~now:0L ~payload:f)) frames;
      Virtio_net.tick v 1_000_000L;
      let irq = (Virtio_net.device v).Bus.read Virtio_net.reg_isr Instr.W64 = 1L in
      let received, dropped, malformed, m_irq, left =
        eager_rx_walk gm_m (Virtio_ring.create ~mem:gm_m ~base:rx_base ~size) frames
      in
      let ring_d = Virtio_ring.create ~mem:gm_d ~base:rx_base ~size in
      let ring_m = Virtio_ring.create ~mem:gm_m ~base:rx_base ~size in
      let same_ram =
        List.for_all
          (fun p ->
            Bytes.equal
              (Phys_mem.frame_read mem_d ~ppn:(Int64.of_int p))
              (Phys_mem.frame_read mem_m ~ppn:(Int64.of_int p)))
          (List.init frames_n Fun.id)
      in
      if not same_ram then QCheck2.Test.fail_report "guest RAM differs from the model";
      if Virtio_ring.used_idx ring_d <> Virtio_ring.used_idx ring_m then
        QCheck2.Test.fail_reportf "used_idx %Ld, model %Ld" (Virtio_ring.used_idx ring_d)
          (Virtio_ring.used_idx ring_m);
      Virtio_net.frames_received v = received
      && Virtio_net.rx_dropped v = dropped
      && Virtio_net.rx_malformed v = malformed
      && irq = m_irq
      && Virtio_net.backlog_length v = left)

(* Frame conservation through NIC + switch under a random fault plan and
   a random op schedule: everything transmitted is delivered or lands in
   a named counter — nothing disappears silently. *)
let prop_fabric_conservation =
  QCheck2.Test.make ~count:40 ~name:"nic+switch frame conservation"
    QCheck2.Gen.(
      pair (int_bound 9999) (list_size (int_range 30 120) (int_bound 99_999)))
    (fun (seed, ops) ->
      let n = 3 in
      let mac i = Int64.of_int (0xA0 + i) in
      let base = Velum_util.Fault.create ~seed:(Int64.of_int (seed + 1)) () in
      Velum_util.Fault.set_prob base Velum_util.Fault.Drop 0.05;
      Velum_util.Fault.set_prob base Velum_util.Fault.Corrupt 0.03;
      Velum_util.Fault.set_prob base Velum_util.Fault.Duplicate 0.03;
      Velum_util.Fault.set_prob base Velum_util.Fault.Delay 0.1;
      let links =
        Array.init n (fun p ->
            let l = Link.create ~bytes_per_cycle:1.0 ~latency_cycles:20 () in
            Link.set_faults l
              (Velum_util.Fault.derive base ~seed:(Int64.of_int (31 + p)));
            l)
      in
      let sw = Switch.create ~queue_cap:8 links in
      Array.iteri (fun p _ -> Switch.learn sw ~mac:(mac p) ~port:p) links;
      let mems = Array.init n (fun _ -> Phys_mem.create ~frames:4) in
      let nics =
        Array.init n (fun p ->
            Nic.create ~link:links.(p) ~endpoint:`A
              ~dma:(Platform.identity_dma mems.(p))
              ~rx_capacity:4 ())
      in
      let devs = Array.map Nic.device nics in
      let now = ref 0L in
      let tick_all () =
        Switch.tick sw !now;
        Array.iter (fun d -> d.Bus.tick !now) devs
      in
      let transmit p code =
        let dst =
          match code mod 5 with
          | 0 | 1 -> mac (code mod n) (* known unicast (maybe self) *)
          | 2 -> Switch.broadcast_mac
          | 3 -> 0x999L (* unknown unicast *)
          | _ -> mac ((p + 1) mod n)
        in
        Phys_mem.write mems.(p) 0x100L Instr.W64 dst;
        Phys_mem.write mems.(p) 0x108L Instr.W64 (mac p);
        let len = if code mod 13 = 0 then 8 (* runt *) else 48 in
        devs.(p).Bus.write Nic.reg_tx_addr Instr.W64 0x100L;
        devs.(p).Bus.write Nic.reg_tx_len Instr.W64 (Int64.of_int len);
        devs.(p).Bus.write Nic.reg_tx_cmd Instr.W64 1L
      in
      let receive p code =
        if devs.(p).Bus.read Nic.reg_rx_len Instr.W64 > 0L then begin
          let dma = if code mod 7 = 0 then 0x10_0000L (* bad *) else 0x400L in
          devs.(p).Bus.write Nic.reg_rx_dma Instr.W64 dma;
          devs.(p).Bus.write Nic.reg_rx_cmd Instr.W64 1L
        end
      in
      List.iter
        (fun code ->
          match code mod 10 with
          | 0 | 1 | 2 | 3 | 4 -> transmit (code mod n) (code / 10)
          | 5 | 6 | 7 ->
              now := Int64.add !now (Int64.of_int (1 + (code mod 500)));
              tick_all ()
          | _ -> receive (code mod n) (code / 10))
        ops;
      (* drain rounds: anything delayed on the wire either arrives or
         stays visibly in flight *)
      for _ = 1 to 5 do
        now := Int64.add !now 1_000_000L;
        tick_all ()
      done;
      let nsum f = Array.fold_left (fun a x -> a + f x) 0 nics in
      let lsum f = Array.fold_left (fun a l -> a + f l) 0 links in
      let lhs =
        nsum Nic.frames_sent + lsum Link.wire_duplicated + Switch.flood_extra sw
      in
      let rhs =
        nsum Nic.frames_received + nsum Nic.rx_dropped + nsum Nic.rx_overflow
        + nsum Nic.rx_queue_length + Switch.drops sw + lsum Link.wire_dropped
        + lsum Link.in_flight
      in
      if not (Switch.conserved sw) then
        QCheck2.Test.fail_report "switch conservation violated";
      if lhs <> rhs then
        QCheck2.Test.fail_reportf "fabric conservation violated: %d <> %d" lhs
          rhs;
      true)

(* ---------------- Platform ---------------- *)

let test_platform_deadlock_detection () =
  (* a guest that wfi's with interrupts disabled can never wake *)
  let platform = Platform.create ~frames:64 () in
  let img = Velum_isa.Asm.assemble ~origin:0x0L Velum_isa.Asm.[ wfi; halt ] in
  Platform.load_image platform img;
  Platform.boot platform ~entry:0L;
  checkb "deadlock detected" true (Platform.run platform = Platform.Deadlock)

let test_platform_timer_wakeup () =
  let platform = Platform.create ~frames:64 () in
  let open Velum_isa.Asm in
  let img =
    Velum_isa.Asm.assemble ~origin:0x0L
      [
        la r2 "handler";
        csrw Arch.Stvec r2;
        csrr r2 Arch.Time;
        addi r2 r2 50_000L;
        csrw Arch.Stimecmp r2;
        (* GIE | timer enable *)
        li r2 1L; slli r3 r2 63L; ori r3 r3 1L; csrw Arch.Sie r3;
        wfi;
        halt (* unreachable: handler halts *);
        label "handler";
        halt;
      ]
  in
  Platform.load_image platform img;
  Platform.boot platform ~entry:0L;
  checkb "halted via handler" true (Platform.run platform = Platform.Halted);
  checkb "time advanced past timer" true (Platform.cycles platform >= 50_000L)

let test_platform_budget () =
  let platform = Platform.create ~frames:64 () in
  let img =
    Velum_isa.Asm.assemble ~origin:0x0L
      Velum_isa.Asm.[ label "spin"; jmp "spin" ]
  in
  Platform.load_image platform img;
  Platform.boot platform ~entry:0L;
  checkb "budget" true (Platform.run ~budget:10_000L platform = Platform.Out_of_budget)

(* Identity DMA copies page spans; compare them with a byte-wise
   reference.  4200 bytes from 0xFF0 cross two page boundaries. *)
let test_identity_dma_straddle () =
  let mem = Phys_mem.create ~frames:4 in
  let dma = Platform.identity_dma mem in
  let pa = 0xFF0L and len = 4200 in
  let byte_pa i = Int64.add pa (Int64.of_int i) in
  let src = Bytes.init len (fun i -> Char.chr (((i * 7) + 3) land 0xFF)) in
  checkb "write" true (dma.Blockdev.dma_write pa src);
  let written =
    Bytes.init len (fun i -> Char.chr (Int64.to_int (Phys_mem.read mem (byte_pa i) Instr.W8)))
  in
  checkb "write = byte-wise" true (Bytes.equal written src);
  let pattern = Bytes.init len (fun i -> Char.chr (((i * 13) + 1) land 0xFF)) in
  Bytes.iteri
    (fun i c -> Phys_mem.write mem (byte_pa i) Instr.W8 (Int64.of_int (Char.code c)))
    pattern;
  (match dma.Blockdev.dma_read pa len with
  | Some b -> checkb "read = byte-wise" true (Bytes.equal b pattern)
  | None -> Alcotest.fail "read failed");
  let ram = Int64.of_int (4 * Arch.page_size) in
  checkb "read past RAM" true (dma.Blockdev.dma_read (Int64.sub ram 8L) 16 = None);
  checkb "write past RAM" false (dma.Blockdev.dma_write (Int64.sub ram 8L) (Bytes.make 16 'x'))

let () =
  Alcotest.run "devices"
    [
      ( "bus",
        [
          Alcotest.test_case "dispatch" `Quick test_bus_dispatch;
          Alcotest.test_case "overlap rejected" `Quick test_bus_overlap_rejected;
          Alcotest.test_case "window" `Quick test_bus_window;
        ] );
      ( "uart",
        [
          Alcotest.test_case "tx" `Quick test_uart_tx;
          Alcotest.test_case "rx" `Quick test_uart_rx;
          Alcotest.test_case "irq" `Quick test_uart_device_irq;
        ] );
      ( "blockdev",
        [
          Alcotest.test_case "read flow" `Quick test_blk_read;
          Alcotest.test_case "write flow" `Quick test_blk_write;
          Alcotest.test_case "bad range" `Quick test_blk_bad_range;
          Alcotest.test_case "bad dma" `Quick test_blk_bad_dma;
          Alcotest.test_case "unknown command" `Quick test_blk_unknown_cmd;
          Alcotest.test_case "zero count" `Quick test_blk_zero_count;
          Alcotest.test_case "transient fault retry" `Quick test_blk_transient_fault_retry;
          Alcotest.test_case "lazy backing" `Quick test_blk_lazy_backing;
          Alcotest.test_case "backing allocates on write" `Quick test_backing_allocates_on_write;
          QCheck_alcotest.to_alcotest prop_backing_model;
        ]
        @ blk_overflow_cases );
      ( "virtio_ring",
        [
          Alcotest.test_case "push/pending/complete" `Quick test_ring_push_pending;
          Alcotest.test_case "full and wrap" `Quick test_ring_full_and_wrap;
          Alcotest.test_case "bad size" `Quick test_ring_bad_size;
        ] );
      ( "virtio_blk",
        [
          Alcotest.test_case "batch" `Quick test_vblk_batch;
          Alcotest.test_case "error status" `Quick test_vblk_error_status;
          Alcotest.test_case "lazy backing" `Quick test_vblk_lazy_backing;
        ]
        @ vblk_overflow_cases );
      ( "link",
        [
          Alcotest.test_case "transfer model" `Quick test_link_transfer_model;
          Alcotest.test_case "poll" `Quick test_link_poll;
          Alcotest.test_case "directions" `Quick test_link_directions_independent;
        ] );
      ( "nic",
        [
          Alcotest.test_case "loopback" `Quick test_nic_loopback;
          Alcotest.test_case "oversized frame" `Quick test_nic_oversized_frame_dropped;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "uart rx overflow" `Quick test_uart_rx_overflow;
          Alcotest.test_case "tick monotonic" `Quick test_device_tick_monotonic;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "ring malformed slot" `Quick test_ring_malformed_slot;
          Alcotest.test_case "vnet malformed tx slot" `Quick
            test_vnet_malformed_tx_slot;
          Alcotest.test_case "vnet rx overflow" `Quick test_vnet_rx_overflow;
          QCheck_alcotest.to_alcotest prop_rx_walk_matches_eager;
          QCheck_alcotest.to_alcotest prop_fabric_conservation;
        ] );
      ( "platform",
        [
          Alcotest.test_case "deadlock detection" `Quick test_platform_deadlock_detection;
          Alcotest.test_case "timer wakeup" `Quick test_platform_timer_wakeup;
          Alcotest.test_case "budget" `Quick test_platform_budget;
          Alcotest.test_case "identity DMA straddles pages" `Quick test_identity_dma_straddle;
        ] );
    ]
