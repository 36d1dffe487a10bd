(* Unit tests for velum_machine: physical memory, page-table walking and
   construction, the TLB, the native MMU, and the CPU interpreter in
   both native and deprivileged modes. *)

open Velum_isa
open Velum_machine

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

let cost = Cost_model.default

(* ---------------- Phys_mem ---------------- *)

let test_mem_widths () =
  let mem = Phys_mem.create ~frames:2 in
  Phys_mem.write mem 0x100L Instr.W64 0x1122_3344_5566_7788L;
  check64 "w64" 0x1122_3344_5566_7788L (Phys_mem.read mem 0x100L Instr.W64);
  check64 "w32 low" 0x5566_7788L (Phys_mem.read mem 0x100L Instr.W32);
  check64 "w16" 0x7788L (Phys_mem.read mem 0x100L Instr.W16);
  check64 "w8" 0x88L (Phys_mem.read mem 0x100L Instr.W8);
  Phys_mem.write mem 0x108L Instr.W8 0xFFAAL;
  check64 "w8 truncates" 0xAAL (Phys_mem.read mem 0x108L Instr.W8)

let test_mem_bounds () =
  let mem = Phys_mem.create ~frames:1 in
  checkb "in range" true (Phys_mem.in_range mem ~pa:4088L ~bytes:8);
  checkb "spills" false (Phys_mem.in_range mem ~pa:4089L ~bytes:8);
  Alcotest.check_raises "oob read"
    (Invalid_argument "Phys_mem: access 0x1000+8 out of range") (fun () ->
      ignore (Phys_mem.read mem 0x1000L Instr.W64))

(* [pa + bytes] must not wrap: near [Int64.max_int] an access is out of
   range, classifies as [`Bad] and raises the Phys_mem error rather than
   reaching Bytes' own bounds check. *)
let test_mem_bounds_overflow () =
  let mem = Phys_mem.create ~frames:4 in
  let size = Int64.of_int (Phys_mem.size_bytes mem) in
  List.iter
    (fun (pa, bytes, inside) ->
      let what = Printf.sprintf "0x%Lx+%d" pa bytes in
      checkb ("in_range " ^ what) inside (Phys_mem.in_range mem ~pa ~bytes);
      checkb ("classify_pa " ^ what) true
        (Mmu.classify_pa mem pa ~bytes = if inside then `Ram else `Bad))
    [
      (Int64.max_int, 1, false);
      (Int64.sub Int64.max_int 2L, 8, false);
      (Int64.shift_left 1L 62, 8, false);
      (-8L, 8, false);
      (Int64.min_int, 8, false);
      (Int64.sub size 8L, 8, true);
      (Int64.sub size 7L, 8, false);
    ];
  Alcotest.check_raises "max_int read"
    (Invalid_argument "Phys_mem: access 0x7fffffffffffffff+1 out of range") (fun () ->
      ignore (Phys_mem.read mem Int64.max_int Instr.W8));
  Alcotest.check_raises "2^62 write"
    (Invalid_argument "Phys_mem: access 0x4000000000000000+8 out of range") (fun () ->
      Phys_mem.write mem (Int64.shift_left 1L 62) Instr.W64 0L);
  (* the last bytes of RAM are still reachable by narrow accesses *)
  Phys_mem.write mem (Int64.sub size 1L) Instr.W8 0x5AL;
  check64 "last byte" 0x5AL (Phys_mem.read mem (Int64.sub size 1L) Instr.W8);
  Alcotest.check_raises "spill past the end"
    (Invalid_argument "Phys_mem: access 0x3ffe+4 out of range") (fun () ->
      ignore (Phys_mem.read mem (Int64.sub size 2L) Instr.W32))

let test_mem_frames () =
  let mem = Phys_mem.create ~frames:4 in
  Phys_mem.frame_fill mem ~ppn:1L 'x';
  Phys_mem.frame_copy mem ~src_ppn:1L ~dst_ppn:2L;
  checkb "frames equal" true (Phys_mem.frame_equal mem 1L 2L);
  checkb "hash equal" true (Phys_mem.frame_hash mem ~ppn:1L = Phys_mem.frame_hash mem ~ppn:2L);
  Phys_mem.write mem (Int64.of_int (2 * 4096)) Instr.W8 1L;
  checkb "diverged" false (Phys_mem.frame_equal mem 1L 2L);
  let b = Phys_mem.frame_read mem ~ppn:1L in
  checki "frame size" 4096 (Bytes.length b);
  Phys_mem.frame_write mem ~ppn:3L b;
  checkb "write back" true (Phys_mem.frame_equal mem 1L 3L)

let test_mem_blit_between () =
  let a = Phys_mem.create ~frames:2 and b = Phys_mem.create ~frames:2 in
  Phys_mem.frame_fill a ~ppn:1L 'z';
  Phys_mem.blit_between ~src:a ~src_ppn:1L ~dst:b ~dst_ppn:0L;
  check64 "copied" (Int64.of_int (Char.code 'z')) (Phys_mem.read b 0L Instr.W8)

let prop_mem_roundtrip =
  QCheck2.Test.make ~name:"phys_mem write/read round-trips"
    QCheck2.Gen.(pair (int_range 0 500) ui64)
    (fun (word_idx, v) ->
      let mem = Phys_mem.create ~frames:1 in
      let pa = Int64.of_int (word_idx * 8) in
      Phys_mem.write mem pa Instr.W64 v;
      Phys_mem.read mem pa Instr.W64 = v)

(* [frames * page_size] and the last-word address would wrap past
   [max_int]; the count is rejected before anything is allocated. *)
let test_mem_create_overflow () =
  List.iter
    (fun frames ->
      Alcotest.check_raises (Printf.sprintf "frames=%d" frames)
        (Invalid_argument "Phys_mem.create: too many frames") (fun () ->
          ignore (Phys_mem.create ~frames)))
    [ (1 lsl 48) / Arch.page_size; (max_int / Arch.page_size) + 1; max_int ]

(* [load_bytes ~pos ~len] copies exactly that slice of the source, and
   a slice outside the source is refused before anything is written. *)
let test_mem_load_slice () =
  let mem = Phys_mem.create ~frames:2 in
  let src = Bytes.of_string "abcdefgh" in
  Phys_mem.load_bytes mem ~pa:0xFFEL ~pos:2 ~len:4 src;
  check64 "slice straddles the frames" 0x6665_6463L (Phys_mem.read mem 0xFFEL Instr.W32);
  check64 "nothing past the slice" 0L (Phys_mem.read mem 0x1002L Instr.W8);
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises (Printf.sprintf "pos=%d len=%d" pos len)
        (Invalid_argument "Phys_mem.load_bytes: range outside the source") (fun () ->
          Phys_mem.load_bytes mem ~pa:0L ~pos ~len src))
    [ (-1, 2); (7, 2); (0, 9); (2, -1); (max_int, 1) ]

(* [off + len] must not be formed: with [off = max_int] it wraps
   negative and would slip past a [> page] test. *)
let test_mem_blit_out_overflow () =
  let mem = Phys_mem.create ~frames:1 in
  let dst = Bytes.create 16 in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises (Printf.sprintf "off=%d len=%d" off len)
        (Invalid_argument "Phys_mem.blit_out: range outside the frame") (fun () ->
          Phys_mem.blit_out mem ~ppn:0L ~off dst ~pos:0 ~len))
    [ (max_int, 2); (max_int, max_int); (1, max_int); (4090, 7); (-1, 1); (0, -1) ];
  Phys_mem.blit_out mem ~ppn:0L ~off:4080 dst ~pos:0 ~len:16;
  checkb "last 16 bytes" true (Bytes.equal dst (Bytes.make 16 '\000'))

(* A frame is backed by its first mutating operation, not before; a zero
   fill or a copy of an unwritten frame backs nothing, and a backed frame
   is cleared in place. *)
let test_mem_lazy_backing () =
  let mem = Phys_mem.create ~frames:8 in
  let resident () = Phys_mem.resident_bytes mem / Arch.page_size in
  checki "fresh" 0 (resident ());
  ignore (Phys_mem.read mem 0x3000L Instr.W64);
  Phys_mem.frame_fill mem ~ppn:1L '\000';
  Phys_mem.frame_copy mem ~src_ppn:2L ~dst_ppn:3L;
  checkb "unbacked zero" true (Phys_mem.frame_is_zero mem ~ppn:3L);
  checki "reads and zero fills" 0 (resident ());
  Phys_mem.write mem 0x4000L Instr.W8 0L;
  checki "a store of zero backs" 1 (resident ());
  Phys_mem.write mem 0x5FFCL Instr.W64 (-1L);
  checki "a straddling store backs both frames" 3 (resident ());
  check64 "straddle read" (-1L) (Phys_mem.read mem 0x5FFCL Instr.W64);
  check64 "straddle tail" 0xFFFF_FFFFL (Phys_mem.read mem 0x6000L Instr.W32);
  Phys_mem.frame_fill mem ~ppn:5L '\000';
  Phys_mem.frame_copy mem ~src_ppn:7L ~dst_ppn:6L;
  checki "cleared in place" 3 (resident ());
  checkb "cleared" true (Phys_mem.frame_is_zero mem ~ppn:6L && Phys_mem.frame_is_zero mem ~ppn:5L);
  checkb "backed zero equals unbacked" true (Phys_mem.frame_equal mem 5L 7L);
  checkb "zero hash" true
    (Phys_mem.frame_hash mem ~ppn:5L = Phys_mem.frame_hash mem ~ppn:7L
    && Phys_mem.frame_hash mem ~ppn:7L
       = Velum_util.Fnv.hash_bytes (Bytes.make Arch.page_size '\000'))

(* The sparse table against a dense [Bytes] model: every operation at
   random, biased to frame edges, straddles and the end of RAM, on two
   memories so [blit_between] crosses them. *)
type mem_op =
  | Op_read of int * int64 * Instr.width
  | Op_write of int * int64 * Instr.width * int64
  | Op_load of int * int64 * string
  | Op_fill of int * int64 * char
  | Op_copy of int * int64 * int64
  | Op_frame_write of int * int64 * int * int  (* pattern step, length *)
  | Op_frame_read of int * int64
  | Op_blit_out of int * int64 * int * int * int  (* off, pos, len *)
  | Op_between of int * int64 * int * int64
  | Op_hash of int * int64
  | Op_is_zero of int * int64
  | Op_equal of int * int64 * int64

type mem_outcome = Raised | Done | Word of int64 | Flag of bool | Data of string

let page = Arch.page_size

let gen_mem_op (frames : int array) =
  let open QCheck2.Gen in
  let mem = int_range 0 (Array.length frames - 1) in
  let pa m =
    let size = frames.(m) * page in
    frequency
      [
        ( 4,
          map2
            (fun f d -> Int64.of_int ((f * page) + d))
            (int_range 0 frames.(m)) (int_range (-8) 8) );
        (2, map (fun k -> Int64.of_int (size - k)) (int_range 1 8));
        (3, map Int64.of_int (int_range 0 (size - 1)));
        ( 1,
          oneofl [ -1L; Int64.of_int size; Int64.max_int; Int64.min_int; Int64.shift_left 1L 62 ] );
      ]
  in
  let ppn m =
    frequency
      [
        (8, map Int64.of_int (int_range 0 (frames.(m) - 1)));
        (1, oneofl [ -1L; Int64.of_int frames.(m); 1_000_000L ]);
      ]
  in
  let width = oneofl [ Instr.W8; Instr.W16; Instr.W32; Instr.W64 ] in
  let byte = frequency [ (1, return '\000'); (3, char) ] in
  let small = frequency [ (6, int_range 0 32); (1, oneofl [ -1; max_int ]) ] in
  let off =
    frequency [ (3, int_range 0 page); (2, int_range (page - 32) page); (1, oneofl [ -1; max_int ]) ]
  in
  let with_mem g = mem >>= g in
  let frame = with_mem (fun m -> map (fun p -> (m, p)) (ppn m)) in
  frequency
    [
      (6, with_mem (fun m -> map2 (fun a w -> Op_read (m, a, w)) (pa m) width));
      ( 8,
        with_mem (fun m ->
            map3 (fun a w v -> Op_write (m, a, w, v)) (pa m) width (oneof [ ui64; return 0L ])) );
      ( 2,
        with_mem (fun m ->
            map2 (fun a s -> Op_load (m, a, s)) (pa m)
              (string_size ~gen:byte
                 (frequency [ (4, int_range 0 16); (1, int_range 0 (page + 100)) ]))) );
      (2, with_mem (fun m -> map2 (fun p c -> Op_fill (m, p, c)) (ppn m) byte));
      (2, with_mem (fun m -> map2 (fun a b -> Op_copy (m, a, b)) (ppn m) (ppn m)));
      ( 1,
        with_mem (fun m ->
            map3 (fun p k l -> Op_frame_write (m, p, k, l)) (ppn m) (int_range 0 3)
              (frequency [ (6, return page); (1, return (page - 1)) ])) );
      (1, with_mem (fun m -> map (fun p -> Op_frame_read (m, p)) (ppn m)));
      ( 2,
        with_mem (fun m ->
            map3 (fun p (o, q) l -> Op_blit_out (m, p, o, q, l)) (ppn m) (pair off small) small) );
      (2, map2 (fun (a, p) (b, q) -> Op_between (a, p, b, q)) frame frame);
      (1, with_mem (fun m -> map (fun p -> Op_hash (m, p)) (ppn m)));
      (1, with_mem (fun m -> map (fun p -> Op_is_zero (m, p)) (ppn m)));
      (1, with_mem (fun m -> map2 (fun a b -> Op_equal (m, a, b)) (ppn m) (ppn m)));
    ]

let prop_mem_sparse_matches_dense =
  QCheck2.Test.make ~count:300 ~name:"phys_mem sparse matches a dense model"
    QCheck2.Gen.(
      pair (int_range 1 3) (int_range 1 3) >>= fun (fa, fb) ->
      let frames = [| fa; fb |] in
      map (fun ops -> (frames, ops)) (list_size (int_range 1 60) (gen_mem_op frames)))
    (fun (frames, ops) ->
      let mems = Array.map (fun frames -> Phys_mem.create ~frames) frames in
      let dense = Array.map (fun frames -> Bytes.make (frames * page) '\000') frames in
      let backed = Array.map (fun frames -> Array.make frames false) frames in
      let seen = ref [] and expect = ref [] in
      Array.iteri
        (fun m mem ->
          ignore
            (Phys_mem.add_write_listener mem (fun ~ppn ~lo ~hi ->
                 seen := (m, ppn, lo, hi) :: !seen;
                 page)))
        mems;
      let ppn_ok m p = p >= 0L && p < Int64.of_int frames.(m) in
      let pa_ok m pa n = pa >= 0L && pa <= Int64.of_int ((frames.(m) * page) - n) in
      let touched m pa n =
        let pa = Int64.to_int pa in
        for f = pa / page to (pa + n - 1) / page do
          backed.(m).(f) <- true;
          let lo = max 0 (pa - (f * page)) and hi = min page (pa + n - (f * page)) in
          expect := (m, Int64.of_int f, lo, hi) :: !expect
        done
      in
      let whole m p = expect := (m, p, 0, page) :: !expect in
      let frame m p = Bytes.sub_string dense.(m) (Int64.to_int p * page) page in
      let run f = try f () with Invalid_argument _ -> Raised in
      let pattern k l = Bytes.init l (fun i -> Char.chr ((i * k) land 0xFF)) in
      let impl = function
        | Op_read (m, a, w) -> Word (Phys_mem.read mems.(m) a w)
        | Op_write (m, a, w, v) -> Phys_mem.write mems.(m) a w v; Done
        | Op_load (m, a, s) -> Phys_mem.load_bytes mems.(m) ~pa:a (Bytes.of_string s); Done
        | Op_fill (m, p, c) -> Phys_mem.frame_fill mems.(m) ~ppn:p c; Done
        | Op_copy (m, a, b) -> Phys_mem.frame_copy mems.(m) ~src_ppn:a ~dst_ppn:b; Done
        | Op_frame_write (m, p, k, l) -> Phys_mem.frame_write mems.(m) ~ppn:p (pattern k l); Done
        | Op_frame_read (m, p) -> Data (Bytes.to_string (Phys_mem.frame_read mems.(m) ~ppn:p))
        | Op_blit_out (m, p, off, pos, len) ->
            let dst = Bytes.make 32 '\xAA' in
            Phys_mem.blit_out mems.(m) ~ppn:p ~off dst ~pos ~len;
            Data (Bytes.to_string dst)
        | Op_between (a, p, b, q) ->
            Phys_mem.blit_between ~src:mems.(a) ~src_ppn:p ~dst:mems.(b) ~dst_ppn:q; Done
        | Op_hash (m, p) -> Word (Phys_mem.frame_hash mems.(m) ~ppn:p)
        | Op_is_zero (m, p) -> Flag (Phys_mem.frame_is_zero mems.(m) ~ppn:p)
        | Op_equal (m, a, b) -> Flag (Phys_mem.frame_equal mems.(m) a b)
      in
      let rec model = function
        | Op_read (m, a, w) ->
            let n = Instr.width_bytes w in
            if not (pa_ok m a n) then Raised
            else
              let v = ref 0L in
              for k = n - 1 downto 0 do
                v := Int64.logor (Int64.shift_left !v 8)
                       (Int64.of_int (Bytes.get_uint8 dense.(m) (Int64.to_int a + k)))
              done;
              Word !v
        | Op_write (m, a, w, v) ->
            let n = Instr.width_bytes w in
            if not (pa_ok m a n) then Raised
            else begin
              for k = 0 to n - 1 do
                Bytes.set_uint8 dense.(m) (Int64.to_int a + k)
                  (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF)
              done;
              touched m a n;
              Done
            end
        | Op_load (m, a, s) ->
            let n = String.length s in
            if not (pa_ok m a n) then Raised
            else begin
              Bytes.blit_string s 0 dense.(m) (Int64.to_int a) n;
              if n > 0 then touched m a n;
              Done
            end
        | Op_fill (m, p, c) ->
            if not (ppn_ok m p) then Raised
            else begin
              Bytes.fill dense.(m) (Int64.to_int p * page) page c;
              if c <> '\000' then backed.(m).(Int64.to_int p) <- true;
              whole m p;
              Done
            end
        | Op_copy (m, a, b) -> model (Op_between (m, a, m, b))
        | Op_frame_write (m, p, k, l) ->
            if not (ppn_ok m p) || l <> page then Raised
            else begin
              Bytes.blit (pattern k l) 0 dense.(m) (Int64.to_int p * page) page;
              backed.(m).(Int64.to_int p) <- true;
              whole m p;
              Done
            end
        | Op_frame_read (m, p) -> if ppn_ok m p then Data (frame m p) else Raised
        | Op_blit_out (m, p, off, pos, len) ->
            if not (ppn_ok m p) || off < 0 || len < 0 || off > page || len > page - off
               || pos < 0 || pos > 32 || len > 32 - pos
            then Raised
            else begin
              let dst = Bytes.make 32 '\xAA' in
              Bytes.blit_string (frame m p) off dst pos len;
              Data (Bytes.to_string dst)
            end
        | Op_between (a, p, b, q) ->
            if not (ppn_ok a p && ppn_ok b q) then Raised
            else begin
              Bytes.blit_string (frame a p) 0 dense.(b) (Int64.to_int q * page) page;
              if backed.(a).(Int64.to_int p) then backed.(b).(Int64.to_int q) <- true;
              whole b q;
              Done
            end
        | Op_hash (m, p) ->
            if ppn_ok m p then Word (Velum_util.Fnv.hash_string (frame m p)) else Raised
        | Op_is_zero (m, p) ->
            if ppn_ok m p then Flag (frame m p = String.make page '\000') else Raised
        | Op_equal (m, a, b) ->
            if ppn_ok m a && ppn_ok m b then Flag (frame m a = frame m b) else Raised
      in
      let resident m = Array.fold_left (fun n b -> if b then n + page else n) 0 backed.(m) in
      List.for_all
        (fun op ->
          let got = run (fun () -> impl op) in
          got = model op
          && !seen = !expect
          && Array.for_all Fun.id
               (Array.mapi (fun m mem -> Phys_mem.resident_bytes mem = resident m) mems))
        ops
      && Array.for_all Fun.id
           (Array.mapi
              (fun m mem ->
                List.for_all
                  (fun p -> Bytes.to_string (Phys_mem.frame_read mem ~ppn:p) = frame m p)
                  (List.init frames.(m) Int64.of_int))
              mems)
      &&
      let fresh = Phys_mem.create ~frames:2 in
      Bytes.for_all (( = ) '\000') (Phys_mem.frame_read fresh ~ppn:1L)
      && Phys_mem.read fresh 0x1FF8L Instr.W64 = 0L)

(* The int-addressed accessors are the same memory: interleaved writes
   through either form leave the same bytes, every read agrees across
   the two forms (narrow widths zero-extended), and an out-of-range
   address raises the same [Invalid_argument] — the last 8 bytes of RAM
   included. *)
let prop_mem_int_addressed =
  QCheck2.Test.make ~count:300 ~name:"read_at/write_at = read/write at every width"
    QCheck2.Gen.(
      let size = 2 * page in
      let pa =
        frequency
          [
            (4, int_range 0 (size - 1));
            (3, map (fun k -> size - k) (int_range 1 8));
            (1, oneofl [ -1; -8; size; size + 7; max_int; min_int ]);
          ]
      in
      list_size (int_range 1 80)
        (triple pa (oneofl [ Instr.W8; Instr.W16; Instr.W32; Instr.W64 ]) ui64))
    (fun ops ->
      let a = Phys_mem.create ~frames:2 and b = Phys_mem.create ~frames:2 in
      let run f = try Ok (f ()) with Invalid_argument m -> Error m in
      let zero_extended w = function
        | Ok v -> Instr.width_bytes w = 8 || Int64.shift_right_logical v (8 * Instr.width_bytes w) = 0L
        | Error _ -> true
      in
      List.for_all
        (fun (pa, w, v) ->
          let pa64 = Int64.of_int pa in
          run (fun () -> Phys_mem.write a pa64 w v) = run (fun () -> Phys_mem.write_at b pa w v)
          &&
          let r = run (fun () -> Phys_mem.read a pa64 w) in
          r = run (fun () -> Phys_mem.read_at a pa w)
          && r = run (fun () -> Phys_mem.read_at b pa w)
          && zero_extended w r)
        ops
      && List.for_all
           (fun p -> Phys_mem.frame_read a ~ppn:p = Phys_mem.frame_read b ~ppn:p)
           [ 0L; 1L ])

(* The write watch, against a model: two listeners, each with its own
   per-frame interest that the ops flip, answered as the whole frame or
   nothing.  A write to a watched frame calls {e both} listeners (no
   short cut); the frame stops being watched exactly when both answer
   [0], and a listener that did so is not called for that frame again
   until [watch]/[watch_all]. *)
type watch_op =
  | W_write of int * int  (* frame, offset *)
  | W_fill of int
  | W_interest of int * int * bool  (* listener, frame, wants it *)
  | W_watch of int
  | W_watch_all

let prop_write_watch =
  let frames = 4 in
  QCheck2.Test.make ~count:300 ~name:"write watch: silent after all-false until watch"
    QCheck2.Gen.(
      let frame = int_range 0 (frames - 1) in
      list_size (int_range 1 80)
        (frequency
           [
             (6, map2 (fun f o -> W_write (f, o)) frame (int_range 0 (page - 8)));
             (1, map (fun f -> W_fill f) frame);
             (4, map3 (fun l f b -> W_interest (l, f, b)) (int_range 0 1) frame bool);
             (1, map (fun f -> W_watch f) frame);
             (1, return W_watch_all);
           ]))
    (fun ops ->
      let mem = Phys_mem.create ~frames in
      let interest = Array.init 2 (fun _ -> Array.make frames false) in
      let calls = Array.make 2 [] in
      Array.iteri
        (fun l wants ->
          ignore
            (Phys_mem.add_write_listener mem (fun ~ppn ~lo ~hi ->
                 calls.(l) <- (Int64.to_int ppn, lo, hi) :: calls.(l);
                 if wants.(Int64.to_int ppn) then page else 0)))
        interest;
      (* model *)
      let watched = Array.make frames true in
      let expect = Array.make 2 [] in
      let notify f lo hi =
        if watched.(f) then begin
          for l = 0 to 1 do
            expect.(l) <- (f, lo, hi) :: expect.(l)
          done;
          if not (interest.(0).(f) || interest.(1).(f)) then watched.(f) <- false
        end
      in
      List.for_all
        (fun op ->
          (match op with
          | W_write (f, o) ->
              Phys_mem.write mem (Int64.of_int ((f * page) + o)) Instr.W64 1L;
              notify f o (o + 8)
          | W_fill f ->
              Phys_mem.frame_fill mem ~ppn:(Int64.of_int f) 'x';
              notify f 0 page
          | W_interest (l, f, b) -> interest.(l).(f) <- b
          | W_watch f ->
              Phys_mem.watch mem ~ppn:(Int64.of_int f);
              watched.(f) <- true
          | W_watch_all ->
              Phys_mem.watch_all mem;
              Array.fill watched 0 frames true);
          calls = expect
          && List.for_all
               (fun f -> Phys_mem.watched mem ~ppn:(Int64.of_int f) = watched.(f))
               (List.init frames Fun.id))
        ops)

(* The quiet ranges, against a model of what each listener is owed:
   listeners answer random byte ranges (some empty), and the property is
   safety — every write that overlaps the range a listener last answered
   for the frame, and every write since [watch]/[watch_all] (or the
   registration of a listener) touched the frame, reaches that listener,
   and a delivered write reaches every registered listener.  Frames 0/16
   and 1/17/33 share a slot of the 16-slot table. *)
type quiet_op =
  | Q_write of int * int * Instr.width  (* frame, offset *)
  | Q_load of int * int  (* address, length: may cross a frame boundary *)
  | Q_fill of int
  | Q_answer of int * int * int * int  (* listener, frame, lo, hi *)
  | Q_watch of int
  | Q_watch_all
  | Q_add of int
  | Q_remove of int

let prop_quiet_ranges =
  let frames = 34 and listeners = 3 in
  QCheck2.Test.make ~count:400 ~name:"write watch: quiet ranges never hide a wanted write"
    QCheck2.Gen.(
      let frame = oneofl [ 0; 1; 2; 16; 17; 33 ] in
      let listener = int_range 0 (listeners - 1) in
      let range =
        frequency
          [
            (1, return (0, 0));
            (1, return (0, page));
            (4, map2 (fun lo len -> (lo, lo + len)) (int_range 0 (page - 1)) (int_range 1 1024));
          ]
      in
      let write =
        oneofl Instr.[ W8; W16; W32; W64 ] >>= fun w ->
        map2 (fun f o -> Q_write (f, o, w)) frame (int_range 0 (page - Instr.width_bytes w))
      in
      list_size (int_range 1 80)
        (frequency
           [
             (8, write);
             (1, map2 (fun f o -> Q_load ((f * page) + o, 64)) frame (int_range (page - 96) (page - 1)));
             (1, map (fun f -> Q_fill f) frame);
             (6, map3 (fun l f (lo, hi) -> Q_answer (l, f, lo, hi)) listener frame range);
             (1, map (fun f -> Q_watch f) frame);
             (1, return Q_watch_all);
             (1, map (fun l -> Q_add l) listener);
             (1, map (fun l -> Q_remove l) listener);
           ]))
    (fun ops ->
      let mem = Phys_mem.create ~frames in
      (* what each listener answers, and the calls it got during one op *)
      let answer = Array.init listeners (fun _ -> Array.make frames (0, 0)) in
      let calls = Array.make listeners [] in
      let handle = Array.make listeners None in
      (* model: [None] — owed every write of the frame; [Some (lo, hi)] —
         owed the writes overlapping its last answer *)
      let owed = Array.init listeners (fun _ -> Array.make frames None) in
      let owe_all () = Array.iter (fun o -> Array.fill o 0 frames None) owed in
      let add l =
        if handle.(l) = None then begin
          handle.(l) <-
            Some
              (Phys_mem.add_write_listener mem (fun ~ppn ~lo ~hi ->
                   let f = Int64.to_int ppn in
                   calls.(l) <- (f, lo, hi) :: calls.(l);
                   let lo, hi = answer.(l).(f) in
                   Phys_mem.want ~lo ~hi));
          owe_all ()
        end
      in
      add 0;
      add 1;
      let registered l = handle.(l) <> None and all = List.init listeners Fun.id in
      let overlaps (lo, hi) (a, b) = hi > a && lo < b in
      (* one op's touched frames, each with the written range *)
      let segments pa len =
        List.init
          (((pa + len - 1) / page) - (pa / page) + 1)
          (fun k ->
            let f = (pa / page) + k in
            (f, max 0 (pa - (f * page)), min page (pa + len - (f * page))))
      in
      let check segs =
        List.for_all
          (fun (f, lo, hi) ->
            let got l = List.filter (fun (g, _, _) -> g = f) calls.(l) in
            let delivered = List.exists (fun l -> registered l && got l <> []) all in
            let must =
              List.exists
                (fun l ->
                  registered l
                  &&
                  match owed.(l).(f) with
                  | None -> true
                  | Some r -> overlaps (lo, hi) r)
                all
            in
            let ok =
              (delivered || not must)
              && List.for_all
                   (fun l ->
                     (not (registered l)) || got l = if delivered then [ (f, lo, hi) ] else [])
                   all
            in
            if delivered then
              for l = 0 to listeners - 1 do
                owed.(l).(f) <- Some answer.(l).(f)
              done;
            ok)
          segs
      in
      List.for_all
        (fun op ->
          Array.fill calls 0 listeners [];
          match op with
          | Q_write (f, o, w) ->
              Phys_mem.write mem (Int64.of_int ((f * page) + o)) w 0x5AL;
              check (segments ((f * page) + o) (Instr.width_bytes w))
          | Q_load (pa, len) ->
              let len = min len ((frames * page) - pa) in
              Phys_mem.load_bytes mem ~pa:(Int64.of_int pa) (Bytes.make len 'q');
              check (segments pa len)
          | Q_fill f ->
              Phys_mem.frame_fill mem ~ppn:(Int64.of_int f) 'x';
              check [ (f, 0, page) ]
          | Q_answer (l, f, lo, hi) ->
              answer.(l).(f) <- (lo, hi);
              true
          | Q_watch f ->
              Phys_mem.watch mem ~ppn:(Int64.of_int f);
              Array.iter (fun o -> o.(f) <- None) owed;
              true
          | Q_watch_all ->
              Phys_mem.watch_all mem;
              owe_all ();
              true
          | Q_add l ->
              add l;
              true
          | Q_remove l ->
              Option.iter (Phys_mem.remove_write_listener mem) handle.(l);
              handle.(l) <- None;
              true)
        ops)

(* ---------------- Page_table ---------------- *)

let make_pt_world () =
  let mem = Phys_mem.create ~frames:64 in
  let next = ref 1L in
  let alloc () =
    let p = !next in
    next := Int64.add p 1L;
    p
  in
  let acc =
    {
      Pt_build.read_pte = (fun pa -> Phys_mem.read mem pa Instr.W64);
      write_pte = (fun pa v -> Phys_mem.write mem pa Instr.W64 v);
    }
  in
  (mem, acc, alloc)

let rwxu = { Pte.r = true; w = true; x = true; u = true }

let test_pt_map_walk () =
  let _, acc, alloc = make_pt_world () in
  let root = alloc () in
  let va = 0x12_3456_7000L in
  Pt_build.map acc ~alloc ~root_ppn:root ~va (Pte.leaf ~ppn:33L rwxu);
  match Pt_build.walk acc ~root_ppn:root va with
  | Ok { pte; refs; _ } ->
      check64 "target" 33L (Pte.ppn pte);
      checki "refs" 3 refs
  | Error _ -> Alcotest.fail "walk failed"

let test_pt_walk_not_mapped () =
  let _, acc, alloc = make_pt_world () in
  let root = alloc () in
  (match Pt_build.walk acc ~root_ppn:root 0x5000L with
  | Error { fault_level = 2; bad_pte = false; _ } -> ()
  | _ -> Alcotest.fail "expected level-2 miss");
  Pt_build.map acc ~alloc ~root_ppn:root ~va:0x5000L (Pte.leaf ~ppn:5L rwxu);
  match Pt_build.walk acc ~root_ppn:root 0x6000L with
  | Error { fault_level = 0; bad_pte = false; _ } -> ()
  | _ -> Alcotest.fail "expected level-0 miss"

let test_pt_non_canonical () =
  let _, acc, alloc = make_pt_world () in
  let root = alloc () in
  match Pt_build.walk acc ~root_ppn:root 0x80_0000_0000L with
  | Error { bad_pte = true; _ } -> ()
  | _ -> Alcotest.fail "expected canonical fault"

let test_pt_unmap_update () =
  let _, acc, alloc = make_pt_world () in
  let root = alloc () in
  let va = 0x7000L in
  Pt_build.map acc ~alloc ~root_ppn:root ~va (Pte.leaf ~ppn:9L rwxu);
  checkb "update" true
    (Pt_build.update_leaf acc ~root_ppn:root ~va ~f:Pte.set_dirty);
  (match Pt_build.walk acc ~root_ppn:root va with
  | Ok { pte; _ } -> checkb "dirty set" true (Pte.dirty pte)
  | Error _ -> Alcotest.fail "walk failed");
  checkb "unmap" true (Pt_build.unmap acc ~root_ppn:root ~va);
  checkb "unmap again" false (Pt_build.unmap acc ~root_ppn:root ~va);
  match Pt_build.walk acc ~root_ppn:root va with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "still mapped"

let test_pt_iter_count () =
  let _, acc, alloc = make_pt_world () in
  let root = alloc () in
  let vas = [ 0x1000L; 0x2000L; 0x40_0000L; 0x12_3456_7000L ] in
  List.iteri
    (fun i va ->
      Pt_build.map acc ~alloc ~root_ppn:root ~va (Pte.leaf ~ppn:(Int64.of_int (100 + i)) rwxu))
    vas;
  let seen = ref [] in
  Pt_build.iter_leaves acc ~root_ppn:root ~f:(fun ~va ~pte_addr:_ _ -> seen := va :: !seen);
  Alcotest.(check (list int64)) "all leaves" (List.sort compare vas)
    (List.sort compare !seen);
  (* root; one L1 for the first GB shared by 0x1000/0x2000/0x400000;
     a leaf table for 0x1000/0x2000 and another for 0x400000; the huge
     address gets its own L1 and leaf table: 6 table pages in all *)
  checki "table pages" 6 (Pt_build.count_table_pages acc ~root_ppn:root)

let prop_pt_map_then_walk =
  QCheck2.Test.make ~count:200 ~name:"map/walk round-trips over random VAs"
    QCheck2.Gen.(list_size (int_range 1 12) (int_range 0 ((1 lsl 27) - 1)))
    (fun pages ->
      let _, acc, alloc = make_pt_world () in
      let root = alloc () in
      let vas = List.sort_uniq compare pages in
      List.iteri
        (fun i page ->
          let va = Int64.shift_left (Int64.of_int page) 12 in
          Pt_build.map acc ~alloc ~root_ppn:root ~va
            (Pte.leaf ~ppn:(Int64.of_int (200 + i)) rwxu))
        vas;
      List.for_all
        (fun page ->
          let va = Int64.shift_left (Int64.of_int page) 12 in
          match Pt_build.walk acc ~root_ppn:root va with
          | Ok { pte; _ } -> Pte.ppn pte >= 200L
          | Error _ -> false)
        vas)

let test_pt_superpage () =
  let _, acc, alloc = make_pt_world () in
  let root = alloc () in
  (* a 2 MiB leaf at level 1: base frame 512-aligned *)
  Pt_build.map ~level:1 acc ~alloc ~root_ppn:root ~va:0x20_0000L
    (Pte.leaf ~ppn:512L rwxu);
  (match Pt_build.walk acc ~root_ppn:root 0x21_2345L with
  | Ok { pte; level = 1; refs = 2; _ } ->
      check64 "pa composes superpage offset" 0x21_2345L
        (Int64.of_int (Page_table.leaf_pa ~pte:(Int64.to_int pte) ~level:1 ~va:0x21_2345L))
      (* base ppn 512 = pa 0x200000, so identity here *)
  | Ok _ -> Alcotest.fail "expected a level-1 leaf with 2 refs"
  | Error _ -> Alcotest.fail "superpage walk failed");
  (* a misaligned superpage base is malformed *)
  Pt_build.map ~level:1 acc ~alloc ~root_ppn:root ~va:0x40_0000L
    (Pte.leaf ~ppn:513L rwxu);
  (match Pt_build.walk acc ~root_ppn:root 0x40_0000L with
  | Error { bad_pte = true; _ } -> ()
  | _ -> Alcotest.fail "misaligned superpage should be malformed");
  (* iter_leaves reports the superpage once *)
  let supers = ref 0 in
  Pt_build.iter_leaves acc ~root_ppn:root ~f:(fun ~va:_ ~pte_addr:_ _ -> incr supers);
  checki "leaves seen" 2 !supers

(* The walker as it was before it read entries as immediates into a
   caller-owned record: an accessor, a result, its own bit tests.  Kept
   as the model the allocation-free walker must match. *)
module Reference_walk = struct
  open Velum_util

  type ok = { pte : int64; pte_addr : int64; level : int; refs : int }
  type fault = { fault_level : int; fault_refs : int; bad_pte : bool }

  let valid pte = Bitops.test_bit pte 0
  let leaf pte = valid pte && (Bitops.test_bit pte 1 || Bitops.test_bit pte 2 || Bitops.test_bit pte 3)
  let ppn pte = Bitops.extract pte ~lo:10 ~width:44

  let walk (acc : Pt_build.accessor) ~root_ppn va =
    if Int64.shift_right_logical va 39 <> 0L then
      Error { fault_level = 2; fault_refs = 0; bad_pte = true }
    else
      let rec go level table_ppn refs =
        let index = Int64.to_int (Bitops.extract va ~lo:(12 + (9 * level)) ~width:9) in
        let addr = Int64.add (Int64.shift_left table_ppn 12) (Int64.of_int (index * 8)) in
        let pte = acc.read_pte addr in
        let refs = refs + 1 in
        if not (valid pte) then Error { fault_level = level; fault_refs = refs; bad_pte = false }
        else if leaf pte then
          if level <= 1 then
            if level = 1 && not (Bitops.is_aligned (ppn pte) 512) then
              Error { fault_level = level; fault_refs = refs; bad_pte = true }
            else Ok { pte; pte_addr = addr; level; refs }
          else Error { fault_level = level; fault_refs = refs; bad_pte = true }
        else if level = 0 then Error { fault_level = 0; fault_refs = refs; bad_pte = true }
        else go (level - 1) (ppn pte) refs
      in
      go 2 root_ppn 0
end

(* Random three-level tables in frames 1-6 of a 16-frame memory, entries
   at indexes 0-3 only so walks keep meeting them: not present, pointers
   (to tables, to an empty frame, beyond RAM), leaves with every
   permission mix over aligned and misaligned superpage bases, and raw
   words with reserved and top bits set. *)
let gen_pt_entry =
  QCheck2.Gen.(
    let frame = oneofl [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 40L ] in
    let perms =
      map
        (fun (r, w, x, u) -> { Pte.r; w; x; u })
        (quad bool bool bool bool)
    in
    frequency
      [
        (2, return Pte.invalid);
        (4, map (fun ppn -> Pte.table ~ppn) frame);
        ( 4,
          map2
            (fun ppn p -> Pte.leaf ~ppn p)
            (oneofl [ 0L; 7L; 512L; 513L; 1024L; 0xFFF_FFFF_FE00L ])
            perms );
        (1, map (fun (hi, lo) -> Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
              (pair (int_bound 0xFFFF_FFFF) (int_bound 0xFFFF_FFFF)) );
        (1, map (fun v -> Int64.logor v Int64.min_int) (map Int64.of_int (int_bound 0x3FF)));
      ])

let gen_walk_va =
  QCheck2.Gen.(
    map
      (fun ((i2, i1, i0), (off, noncanon)) ->
        let va = (i2 lsl 30) lor (i1 lsl 21) lor (i0 lsl 12) lor off in
        Int64.logor (Int64.of_int va) (if noncanon then Int64.shift_left 1L 39 else 0L))
      (pair
         (triple (int_range 0 3) (int_range 0 3) (int_range 0 3))
         (pair (int_bound 4095) (frequency [ (9, return false); (1, return true) ]))))

let prop_walk_matches_reference =
  QCheck2.Test.make ~count:400 ~name:"walker matches the reference walk"
    QCheck2.Gen.(
      triple (int_range 1 6)
        (list_size (int_range 0 40) (triple (int_range 1 6) (int_range 0 3) gen_pt_entry))
        (list_size (int_range 1 20) gen_walk_va))
    (fun (root, entries, vas) ->
      let mem = Phys_mem.create ~frames:16 in
      List.iter
        (fun (frame, index, pte) ->
          Phys_mem.write mem (Int64.of_int ((frame * 4096) + (index * 8))) Instr.W64 pte)
        entries;
      let acc =
        {
          Pt_build.read_pte =
            (fun pa ->
              if Phys_mem.in_range mem ~pa ~bytes:8 then Phys_mem.read mem pa Instr.W64
              else Pte.invalid);
          write_pte = (fun _ _ -> ());
        }
      in
      let last = Phys_mem.size_bytes mem - 8 in
      let read pa = if pa >= 0 && pa <= last then Phys_mem.read_word mem pa else 0 in
      let w = Page_table.scratch () in
      List.for_all
        (fun va ->
          match
            ( Reference_walk.walk acc ~root_ppn:(Int64.of_int root) va,
              Page_table.walk ~read w ~root_ppn:root va )
          with
          | Ok r, true ->
              Int64.to_int r.pte = w.Page_table.pte
              && Int64.to_int r.pte_addr = w.pte_addr
              && r.level = w.level && r.refs = w.refs
          | Error f, false ->
              f.fault_level = w.Page_table.level && f.fault_refs = w.refs
              && f.bad_pte = w.bad_pte
          | _ -> false)
        vas)

let test_tlb_superpage_entry () =
  let tlb = Tlb.create ~size:4 in
  Tlb.insert tlb
    { Tlb.vpn = 512L; ppn = 1024L; perms = rwxu; dirty_ok = true; mmio = false;
      superpage = true };
  (* any vpn within the same 2 MiB region hits *)
  (match Tlb.lookup tlb ~vpn:700L with
  | Some e -> checkb "superpage hit" true e.Tlb.superpage
  | None -> Alcotest.fail "expected superpage hit");
  (* the probe serves the 4 KiB frame at the vpn's offset in the superpage *)
  checki "superpage frame" (1024 + (700 - 512))
    (Tlb.hit_frame (Tlb.probe tlb ~vpn:700L Arch.Load ~user:true));
  checkb "outside misses" true (Tlb.lookup tlb ~vpn:1200L = None);
  (* 4K entries take precedence *)
  Tlb.insert tlb
    { Tlb.vpn = 700L; ppn = 9L; perms = rwxu; dirty_ok = true; mmio = false;
      superpage = false };
  (match Tlb.lookup tlb ~vpn:700L with
  | Some e -> check64 "4k entry wins" 9L e.Tlb.ppn
  | None -> Alcotest.fail "miss");
  Tlb.flush_vpn tlb 700L;
  checkb "flush_vpn drops both granularities" true (Tlb.lookup tlb ~vpn:700L = None)

(* ---------------- Tlb ---------------- *)

let entry vpn ppn =
  { Tlb.vpn; ppn; perms = rwxu; dirty_ok = true; mmio = false; superpage = false }

let test_tlb_insert_lookup () =
  let tlb = Tlb.create ~size:2 in
  Tlb.insert tlb (entry 1L 10L);
  Tlb.insert tlb (entry 2L 20L);
  (match Tlb.lookup tlb ~vpn:1L with
  | Some e -> check64 "hit" 10L e.Tlb.ppn
  | None -> Alcotest.fail "miss");
  (* round-robin eviction: inserting a third evicts the first slot *)
  Tlb.insert tlb (entry 3L 30L);
  checkb "evicted" true (Tlb.lookup tlb ~vpn:1L = None);
  checkb "kept" true (Tlb.lookup tlb ~vpn:2L <> None)

let test_tlb_replace_same_vpn () =
  let tlb = Tlb.create ~size:4 in
  Tlb.insert tlb (entry 5L 50L);
  Tlb.insert tlb (entry 5L 51L);
  match Tlb.lookup tlb ~vpn:5L with
  | Some e -> check64 "updated" 51L e.Tlb.ppn
  | None -> Alcotest.fail "miss"

let test_tlb_flush () =
  let tlb = Tlb.create ~size:4 in
  Tlb.insert tlb (entry 1L 1L);
  Tlb.insert tlb (entry 2L 2L);
  Tlb.flush_vpn tlb 1L;
  checkb "vpn flushed" true (Tlb.lookup tlb ~vpn:1L = None);
  checkb "other kept" true (Tlb.lookup tlb ~vpn:2L <> None);
  Tlb.flush tlb;
  checkb "all flushed" true (Tlb.lookup tlb ~vpn:2L = None)

let test_tlb_stats () =
  let tlb = Tlb.create ~size:4 in
  Tlb.note_hit tlb;
  Tlb.note_hit tlb;
  Tlb.note_miss tlb;
  checki "hits" 2 (Tlb.hits tlb);
  checki "misses" 1 (Tlb.misses tlb);
  Tlb.reset_stats tlb;
  checki "reset" 0 (Tlb.hits tlb)

(* A store hits only an entry whose dirty bit is hardened, even when its
   permissions allow writing: the clean store re-walks to set D. *)
let test_tlb_probe_store_needs_dirty () =
  let tlb = Tlb.create ~size:4 in
  Tlb.insert tlb { (entry 3L 30L) with dirty_ok = false };
  checki "load hits" 30 (Tlb.hit_frame (Tlb.probe tlb ~vpn:3L Arch.Load ~user:true));
  checki "clean store misses" (-1) (Tlb.probe tlb ~vpn:3L Arch.Store ~user:false);
  Tlb.insert tlb (entry 3L 30L);
  checki "dirty store hits" 30 (Tlb.hit_frame (Tlb.probe tlb ~vpn:3L Arch.Store ~user:false));
  checki "hit rule counts nothing" 0 (Tlb.hits tlb + Tlb.misses tlb)

(* The hit rule spelled out over the entry [Tlb.lookup] observes: the
   frame and MMIO flag [Tlb.probe] must answer, or [None] for a miss. *)
let rule_hit (e : Tlb.entry option) ~vpn access ~user =
  match e with
  | Some e
    when ((not user) || e.perms.Pte.u)
         && (match access with
            | Arch.Load -> e.perms.Pte.r
            | Arch.Store -> e.perms.Pte.w && e.dirty_ok
            | Arch.Fetch -> e.perms.Pte.x) ->
      let ppn = Int64.to_int e.ppn in
      Some ((if e.superpage then ppn + (Int64.to_int vpn land 511) else ppn), e.mmio)
  | _ -> None

let probe_hit tlb ~vpn access ~user =
  let hit = Tlb.probe tlb ~vpn access ~user in
  if hit < 0 then None else Some (Tlb.hit_frame hit, Tlb.hit_mmio hit)

let every_access =
  List.concat_map
    (fun access -> [ (access, false); (access, true) ])
    [ Arch.Load; Arch.Store; Arch.Fetch ]

(* [tlb]'s probes of [vpn], for every access from either mode, follow
   the rule over the entry [model] holds for it *)
let probes_follow model tlb vpn =
  List.for_all
    (fun (access, user) ->
      probe_hit tlb ~vpn access ~user = rule_hit (model ~vpn) ~vpn access ~user)
    every_access

(* permission, dirty and MMIO mixes, so the probes meet every clause of
   the rule *)
let gen_entry_bits =
  QCheck2.Gen.(
    triple
      (oneofl
         [
           rwxu;
           { Pte.r = true; w = false; x = true; u = true };
           { Pte.r = true; w = true; x = false; u = false };
           { Pte.r = false; w = false; x = true; u = false };
         ])
      bool
      (frequency [ (9, return false); (1, return true) ]))

(* The Hashtbl-indexed TLB the open-addressed index replaced, kept
   verbatim (bar the hit/miss statistics, which it does not index) as the
   model the current one must match op for op. *)
module Reference = struct
  type entry = Tlb.entry = {
    vpn : int64;
    ppn : int64;
    perms : Pte.perms;
    dirty_ok : bool;
    mmio : bool;
    superpage : bool;
  }

  (* Vpns are small non-negative integers, so the key's own bits are a good
     hash, and [Int64.equal] avoids the polymorphic compare and hash.  The
     TLB never iterates its index, so bucket order cannot leak into
     behaviour. *)
  module Index = Hashtbl.Make (struct
    type t = int64

    let equal = Int64.equal
    let hash = Int64.to_int
  end)

  (* Two fully-associative banks with round-robin replacement: one for
     4 KiB translations keyed by vpn, one for 2 MiB translations keyed by
     vpn >> 9.  Real TLBs split similarly; determinism is what matters
     here. *)
  type bank = {
    slots : entry option array;
    index : int Index.t;
    mutable victim : int;
  }

  type t = {
    small : bank;
    large : bank;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable flushes : int;
    mutable generation : int;
        (* bumped whenever an entry leaves or changes (flush, capacity
           eviction, same-vpn replacement), and when a 4 KiB fill shadows
           a live superpage entry — never on any other fill into an empty
           slot.  A consumer that cached "lookup returns entry E" may keep
           trusting it exactly while the generation is unchanged. *)
  }

  let make_bank size =
    { slots = Array.make size None; index = Index.create size; victim = 0 }

  let create ~size =
    if size <= 0 then invalid_arg "Tlb.create: size must be positive";
    (* the superpage bank is a quarter of the 4K bank, at least 4 entries *)
    {
      small = make_bank size;
      large = make_bank (max 4 (size / 4));
      hits = 0;
      misses = 0;
      evictions = 0;
      flushes = 0;
      generation = 0;
    }

  let super_key vpn = Int64.shift_right_logical vpn (Arch.vpn_bits)

  let bank_lookup b key =
    match Index.find_opt b.index key with Some slot -> b.slots.(slot) | None -> None

  let lookup t ~vpn =
    match bank_lookup t.small vpn with
    | Some _ as hit -> hit
    | None -> bank_lookup t.large (super_key vpn)

  (* Any removal of a live entry invalidates what consumers may have
     cached about the TLB's contents, so it both counts as an eviction and
     bumps the generation. *)
  let evict_slot t b key_of slot =
    match b.slots.(slot) with
    | Some e ->
        Index.remove b.index (key_of e.vpn);
        b.slots.(slot) <- None;
        t.evictions <- t.evictions + 1;
        t.generation <- t.generation + 1
    | None -> ()

  let bank_insert t b key_of e =
    let key = key_of e.vpn in
    let slot =
      match Index.find_opt b.index key with
      | Some s -> s
      | None ->
          let s = b.victim in
          b.victim <- (b.victim + 1) mod Array.length b.slots;
          evict_slot t b key_of s;
          s
    in
    evict_slot t b key_of slot;
    b.slots.(slot) <- Some e;
    Index.replace b.index key slot

  let insert t e =
    if e.superpage then bank_insert t t.large super_key e
    else begin
      if Index.mem t.large.index (super_key e.vpn) then
        t.generation <- t.generation + 1;
      bank_insert t t.small (fun v -> v) e
    end

  let flush t =
    List.iter
      (fun b ->
        Array.fill b.slots 0 (Array.length b.slots) None;
        Index.reset b.index)
      [ t.small; t.large ];
    t.flushes <- t.flushes + 1;
    t.generation <- t.generation + 1

  let flush_vpn t vpn =
    (match Index.find_opt t.small.index vpn with
    | Some slot -> evict_slot t t.small (fun v -> v) slot
    | None -> ());
    match Index.find_opt t.large.index (super_key vpn) with
    | Some slot -> evict_slot t t.large super_key slot
    | None -> ()

  let evictions t = t.evictions
  let flushes t = t.flushes
  let generation t = t.generation
end

type tlb_op = Insert of Tlb.entry | Probe | Flush_vpn of int64 | Flush

(* vpn = a·8192 + b·512 + c·16 + d: 128 vpns, congruent in groups modulo
   every index size, over 32 superpage keys.  Both banks' indexes have
   16–32 cells, so home cells collide and deletions land mid-run. *)
let gen_vpn =
  QCheck2.Gen.(
    map
      (fun (a, b, c, d) -> Int64.of_int ((a * 8192) + (b * 512) + (c * 16) + d))
      (quad (int_range 0 3) (int_range 0 3) (int_range 0 3) (int_range 0 1)))

let tlb_probe_vpns =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b ->
          List.concat_map
            (fun c -> List.map (fun d -> Int64.of_int ((a * 8192) + (b * 512) + (c * 16) + d)) [ 0; 1 ])
            [ 0; 1; 2; 3 ])
        [ 0; 1; 2; 3 ])
    [ 0; 1; 2; 3 ]

let gen_tlb_op =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map4
            (fun vpn ppn superpage (perms, dirty_ok, mmio) ->
              Insert { Tlb.vpn; ppn = Int64.of_int ppn; perms; dirty_ok; mmio; superpage })
            gen_vpn (int_range 0 1000) (frequency [ (3, return false); (1, return true) ])
            gen_entry_bits );
        (1, return Probe);
        (3, map (fun v -> Flush_vpn v) gen_vpn);
        (1, return Flush);
      ])

let prop_tlb_matches_reference =
  QCheck2.Test.make ~count:300 ~name:"open-addressed index matches the Hashtbl reference"
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 1 80) gen_tlb_op))
    (fun (size, ops) ->
      let t = Tlb.create ~size and r = Reference.create ~size in
      List.for_all
        (fun op ->
          (match op with
          | Insert e ->
              Tlb.insert t e;
              Reference.insert r e
          | Probe -> ()
          | Flush_vpn v ->
              Tlb.flush_vpn t v;
              Reference.flush_vpn r v
          | Flush ->
              Tlb.flush t;
              Reference.flush r);
          List.for_all
            (fun vpn ->
              Tlb.lookup t ~vpn = Reference.lookup r ~vpn
              && probes_follow (Reference.lookup r) t vpn)
            tlb_probe_vpns
          && Tlb.evictions t = Reference.evictions r
          && Tlb.flushes t = Reference.flushes r
          && Tlb.generation t = Reference.generation r)
        ops)

(* The TLB as it was before full flushes tracked the live slots (every
   flush refilled each slot, index cell and version), kept verbatim (bar
   [size] and [reset_stats], unused here) as the model the O(live) flush and the recent-slot memo must match: same
   lookups, generations, counters and certificate outcomes. *)
module Full_flush = struct
  type entry = Tlb.entry = {
    vpn : int64;
    ppn : int64;
    perms : Pte.perms;
    dirty_ok : bool;
    mmio : bool;
    superpage : bool;
  }

  (* Two fully-associative banks with round-robin replacement, each with
     an open-addressed index of slot numbers. *)
  type bank = {
    slots : entry option array;
    keys : int array;  (* key of the entry in each live slot *)
    versions : int array;
        (* per slot, bumped whenever the slot's live entry leaves: while a
           slot's version is unchanged, so is the entry it held *)
    index : int array;
    mask : int;  (* index length - 1 *)
    shift : int;  (* int bits - log2 (index length) *)
    mutable victim : int;
  }

  type t = {
    small : bank;
    large : bank;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable flushes : int;
    mutable generation : int;
        (* bumped whenever an entry leaves or changes (flush, capacity
           eviction, same-vpn replacement), and when a 4 KiB fill shadows
           a live superpage entry — never on any other fill into an empty
           slot.  A consumer that cached "[lookup] returns entry E" may
           keep trusting it exactly while the generation is unchanged. *)
  }

  let make_bank size =
    let rec index_bits b = if 1 lsl b >= 4 * size then b else index_bits (b + 1) in
    let bits = index_bits 0 in
    {
      slots = Array.make size None;
      keys = Array.make size 0;
      versions = Array.make size 0;
      index = Array.make (1 lsl bits) (-1);
      mask = (1 lsl bits) - 1;
      shift = Sys.int_size - bits;
      victim = 0;
    }

  let create ~size =
    if size <= 0 then invalid_arg "Tlb.create: size must be positive";
    (* the superpage bank is a quarter of the 4K bank, at least 4 entries *)
    {
      small = make_bank size;
      large = make_bank (max 4 (size / 4));
      hits = 0;
      misses = 0;
      evictions = 0;
      flushes = 0;
      generation = 0;
    }

  (* Index position holding [key], or [-1].  The index always has empty
     cells, so the probe terminates. *)
  let rec find_pos b key i =
    let s = b.index.(i) in
    if s < 0 then -1 else if b.keys.(s) = key then i else find_pos b key ((i + 1) land b.mask)

  let home b key = (key * 0x4F1B_BCDC_BFA5_3E0B) lsr b.shift
  let find b key = find_pos b key (home b key)

  let rec add b slot i =
    if b.index.(i) < 0 then b.index.(i) <- slot else add b slot ((i + 1) land b.mask)

  (* [hole] was just emptied: walk the rest of its probe run and move back
     every member whose home cell does not lie cyclically in (hole, j], so
     each stays reachable from its home. *)
  let rec close_hole b hole j =
    let s = b.index.(j) in
    if s >= 0 then begin
      if (j - home b b.keys.(s)) land b.mask >= (j - hole) land b.mask then begin
        b.index.(hole) <- s;
        b.index.(j) <- -1;
        close_hole b j ((j + 1) land b.mask)
      end
      else close_hole b hole ((j + 1) land b.mask)
    end

  let remove_pos b pos =
    b.index.(pos) <- -1;
    close_hole b pos ((pos + 1) land b.mask)

  let bank_lookup b key =
    let pos = find b key in
    if pos < 0 then None else b.slots.(b.index.(pos))

  let lookup t ~vpn =
    let key = Int64.to_int vpn in
    match bank_lookup t.small key with
    | Some _ as hit -> hit
    | None -> bank_lookup t.large (key lsr Arch.vpn_bits)

  (* Any removal of a live entry invalidates what consumers may have
     cached about the TLB's contents, so it counts as an eviction and
     bumps both the generation and the slot's version. *)
  let evict_slot t b slot =
    match b.slots.(slot) with
    | Some _ ->
        remove_pos b (find b b.keys.(slot));
        b.slots.(slot) <- None;
        b.versions.(slot) <- b.versions.(slot) + 1;
        t.evictions <- t.evictions + 1;
        t.generation <- t.generation + 1
    | None -> ()

  let bank_insert t b key e =
    let pos = find b key in
    let slot =
      if pos >= 0 then b.index.(pos)
      else begin
        let s = b.victim in
        b.victim <- (b.victim + 1) mod Array.length b.slots;
        evict_slot t b s;
        s
      end
    in
    evict_slot t b slot;
    b.slots.(slot) <- Some e;
    b.keys.(slot) <- key;
    add b slot (home b key)

  let insert t e =
    let key = Int64.to_int e.vpn in
    if e.superpage then bank_insert t t.large (key lsr Arch.vpn_bits) e
    else begin
      (* a 4 KiB entry takes precedence over a live superpage entry for
         the same vpn: [lookup]'s answer changes although nothing left *)
      if find t.large (key lsr Arch.vpn_bits) >= 0 then t.generation <- t.generation + 1;
      bank_insert t t.small key e
    end

  let flush t =
    List.iter
      (fun b ->
        Array.fill b.slots 0 (Array.length b.slots) None;
        Array.fill b.index 0 (Array.length b.index) (-1);
        for i = 0 to Array.length b.versions - 1 do
          b.versions.(i) <- b.versions.(i) + 1
        done)
      [ t.small; t.large ];
    t.flushes <- t.flushes + 1;
    t.generation <- t.generation + 1

  let flush_key t b key =
    let pos = find b key in
    if pos >= 0 then evict_slot t b b.index.(pos)

  let flush_vpn t vpn =
    let key = Int64.to_int vpn in
    flush_key t t.small key;
    flush_key t t.large (key lsr Arch.vpn_bits)

  let cert_slot t ~vpn =
    let b = t.small in
    let pos = find b (Int64.to_int vpn) in
    if pos < 0 then -1 else b.index.(pos)

  let version t slot = if slot < 0 then 0 else t.small.versions.(slot)
  let holds t ~slot ~version = slot >= 0 && t.small.versions.(slot) = version

  let hits t = t.hits
  let misses t = t.misses
  let evictions t = t.evictions
  let flushes t = t.flushes
  let generation t = t.generation
  let note_hit t = t.hits <- t.hits + 1
  let note_miss t = t.misses <- t.misses + 1
end

type tlb_step =
  | S_insert of Tlb.entry
  | S_flush_vpn of int64
  | S_flush
  | S_lookup of int64 * Arch.access * bool  (* a translator's probe: a hit or a miss noted *)
  | S_cert of int64  (* a certificate taken on the vpn's 4 KiB slot *)

let gen_tlb_step =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map4
            (fun vpn ppn superpage (perms, dirty_ok, mmio) ->
              S_insert { Tlb.vpn; ppn = Int64.of_int ppn; perms; dirty_ok; mmio; superpage })
            gen_vpn (int_range 0 1000) (frequency [ (3, return false); (1, return true) ])
            gen_entry_bits );
        (3, map (fun v -> S_flush_vpn v) gen_vpn);
        (1, return S_flush);
        ( 4,
          map3
            (fun v access user -> S_lookup (v, access, user))
            gen_vpn (oneofl [ Arch.Load; Arch.Store; Arch.Fetch ]) bool );
        (3, map (fun v -> S_cert v) gen_vpn);
      ])

let prop_tlb_matches_full_flush =
  QCheck2.Test.make ~count:300 ~name:"O(live) flush matches the full-flush TLB"
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 1 100) gen_tlb_step))
    (fun (size, steps) ->
      let t = Tlb.create ~size and r = Full_flush.create ~size in
      let certs = ref [] in
      List.for_all
        (fun step ->
          let certs_agree =
            match step with
            | S_insert e ->
                Tlb.insert t e;
                Full_flush.insert r e;
                true
            | S_flush_vpn v ->
                Tlb.flush_vpn t v;
                Full_flush.flush_vpn r v;
                true
            | S_flush ->
                Tlb.flush t;
                Full_flush.flush r;
                true
            | S_lookup (vpn, access, user) ->
                let hit = probe_hit t ~vpn access ~user in
                if hit = None then Tlb.note_miss t else Tlb.note_hit t;
                let expected = rule_hit (Full_flush.lookup r ~vpn) ~vpn access ~user in
                if expected = None then Full_flush.note_miss r else Full_flush.note_hit r;
                hit = expected
            | S_cert vpn ->
                let slot = Tlb.cert_slot t ~vpn and rslot = Full_flush.cert_slot r ~vpn in
                certs :=
                  (slot, Tlb.version t slot, rslot, Full_flush.version r rslot) :: !certs;
                slot = rslot
          in
          certs_agree
          && List.for_all
               (fun vpn ->
                 Tlb.lookup t ~vpn = Full_flush.lookup r ~vpn
                 && probes_follow (Full_flush.lookup r) t vpn)
               tlb_probe_vpns
          && Tlb.generation t = Full_flush.generation r
          && Tlb.hits t = Full_flush.hits r
          && Tlb.misses t = Full_flush.misses r
          && Tlb.evictions t = Full_flush.evictions r
          && Tlb.flushes t = Full_flush.flushes r
          && List.for_all
               (fun (slot, version, rslot, rversion) ->
                 Tlb.holds t ~slot ~version
                 = Full_flush.holds r ~slot:rslot ~version:rversion)
               !certs)
        steps)

(* ---------------- TLB certificates ----------------

   The micro-TLB skips a fetch, load or store translation while a
   certificate says the TLB still holds the entry it would hit: the TLB
   generation (fast path) or the slot and version of the page's 4 KiB
   entry.  Drive a small TLB through random inserts past capacity,
   same-vpn replacements, shootdowns, full flushes and superpage
   entries, fill the micro-TLB exactly as the engine does, and after
   every step hold each entry it would serve to what the translators
   would answer from the TLB alone. *)

type cert_op =
  | C_insert of Tlb.entry
  | C_flush_vpn of int64
  | C_flush
  | C_access of Arch.access * bool * int64 * bool  (* user, vpn, lax translator *)

(* The pa a translator would serve from RAM as a zero-cycle TLB hit
   (the hit rule, and no MMIO), or [None] when it would walk.
   [~lax:true] serves any entry as RAM, whatever its permissions, dirty
   bit and MMIO flag: a caller that fills the micro-TLB after a
   translation the rule did not make. *)
let tlb_hit_pa ?(lax = false) tlb ~access ~user vpn =
  let e = Tlb.lookup tlb ~vpn in
  let e =
    if lax then Option.map (fun e -> { e with Tlb.perms = rwxu; dirty_ok = true; mmio = false }) e
    else e
  in
  match rule_hit e ~vpn access ~user with
  | Some (frame, false) -> Some ((frame lsl Arch.page_shift) lor 8)
  | _ -> None

(* 32 vpns under 4 superpage keys, so fills, shadowing 4 KiB entries
   and superpages keep meeting on the same pages *)
let cert_vpns = List.filter (fun v -> Int64.compare v 8192L < 0) tlb_probe_vpns
let gen_cert_vpn = QCheck2.Gen.oneofl cert_vpns

let gen_cert_op =
  QCheck2.Gen.(
    let entry superpage =
      map3
        (fun vpn ppn (perms, dirty_ok, mmio) ->
          C_insert
            {
              Tlb.vpn;
              ppn = (if superpage then Int64.of_int (512 * ppn) else Int64.of_int ppn);
              perms;
              dirty_ok;
              mmio;
              superpage;
            })
        gen_cert_vpn (int_range 1 40) gen_entry_bits
    in
    frequency
      [
        (5, entry false);
        (2, entry true);
        (2, map (fun v -> C_flush_vpn v) gen_cert_vpn);
        (1, return C_flush);
        ( 10,
          map
            (fun (a, u, v, lax) -> C_access (a, u, v, lax))
            (quad (oneofl [ Arch.Load; Arch.Store; Arch.Fetch ]) bool gen_cert_vpn bool) );
      ])

let prop_tlb_certificates =
  QCheck2.Test.make ~count:500
    ~name:"micro-TLB and fetch-window certificates never outlive their entry"
    QCheck2.Gen.(pair (int_range 1 16) (list_size (int_range 1 100) gen_cert_op))
    (fun (size, ops) ->
      let tlb = Tlb.create ~size in
      let d = Dtlb.create ~tlb in
      let walks = ref 0 in
      (* a translation that missed: walk and fill a fresh 4 KiB entry *)
      let walk vpn =
        incr walks;
        Tlb.insert tlb
          {
            Tlb.vpn;
            ppn = Int64.of_int (1000 + !walks);
            perms = rwxu;
            dirty_ok = true;
            mmio = false;
            superpage = false;
          }
      in
      (* a strict translator walks past an entry that does not permit
         the access; a lax one serves it, and then only the micro-TLB's
         own check keeps it out *)
      let translate ~lax ~access ~user vpn =
        match tlb_hit_pa ~lax tlb ~access ~user vpn with
        | Some pa -> pa
        | None -> (
            walk vpn;
            match tlb_hit_pa tlb ~access ~user vpn with
            | Some pa -> pa
            | None -> assert false)
      in
      let step = function
        | C_insert e -> Tlb.insert tlb e
        | C_flush_vpn v -> Tlb.flush_vpn tlb v
        | C_flush -> Tlb.flush tlb
        | C_access (access, user, vpn, lax) ->
            if Dtlb.lookup d ~access ~user (Int64.to_int vpn) < 0 then begin
              ignore (translate ~lax ~access ~user vpn);
              Dtlb.fill d ~access ~user ~va:(Int64.logor (Int64.shift_left vpn Arch.page_shift) 8L)
            end
      in
      let dtlb_sound () =
        List.for_all
          (fun vpn ->
            List.for_all
              (fun (access, user) ->
                let ppn = Dtlb.lookup d ~access ~user (Int64.to_int vpn) in
                ppn < 0
                || tlb_hit_pa tlb ~access ~user vpn = Some ((ppn lsl Arch.page_shift) lor 8))
              every_access
            && probes_follow (Tlb.lookup tlb) tlb vpn)
          cert_vpns
      in
      List.for_all
        (fun op ->
          step op;
          dtlb_sound ())
        ops)

(* ---------------- CPU harness ---------------- *)

(* A bare one-frame machine with identity translation: assemble a
   program at 0, run it, inspect state. *)
let make_cpu ?(frames = 16) ?(env = `Native) () =
  let mem = Phys_mem.create ~frames in
  let state = Cpu.create_state () in
  let ext = ref false in
  let clock = ref 0L in
  let ctx =
    {
      Cpu.translate =
        (fun ~access:_ ~user:_ va ->
          if Bus.is_mmio va then Cpu.xl_make ~pa:(Int64.to_int va) ~mmio:true ~cycles:0
          else if Phys_mem.in_range mem ~pa:va ~bytes:1 then
            Cpu.xl_make ~pa:(Int64.to_int va) ~mmio:false ~cycles:0
          else Cpu.xl_access);
      mem;
      flush_tlb = (fun () -> ());
      now = (fun () -> !clock);
      ext_irq = (fun () -> !ext);
      cost;
      (* the interpreter never consults it *)
      dtlb = Dtlb.create ~tlb:(Tlb.create ~size:4);
      env =
        (match env with
        | `Native ->
            Cpu.Native
              {
                mmio_read = (fun _ _ -> Some 0xAAL);
                mmio_write = (fun _ _ _ -> true);
                port_in = (fun p -> if p = 0x10 then Some 0x7FL else None);
                port_out = (fun p _ -> p = 0x10);
              }
        | `Deprivileged -> Cpu.Deprivileged);
    }
  in
  (mem, state, ctx, ext, clock)

let load_program mem prog =
  let img = Asm.assemble prog in
  Phys_mem.load_bytes mem ~pa:0L img.Asm.code

let run_steps state ctx n =
  (* budget generous; n is just a safety bound on loop iterations *)
  ignore n;
  Cpu.run state ctx ~budget:100_000

open Asm

let test_cpu_alu () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [
      li r1 7L; li r2 3L;
      add r3 r1 r2; sub r4 r1 r2; mul r5 r1 r2;
      div r6 r1 r2; rem r7 r1 r2;
      and_ r8 r1 r2; or_ r9 r1 r2; xor r10 r1 r2;
      slt r11 r2 r1; halt;
    ];
  ignore (run_steps state ctx 20);
  check64 "add" 10L (Cpu.get_reg state 3);
  check64 "sub" 4L (Cpu.get_reg state 4);
  check64 "mul" 21L (Cpu.get_reg state 5);
  check64 "div" 2L (Cpu.get_reg state 6);
  check64 "rem" 1L (Cpu.get_reg state 7);
  check64 "and" 3L (Cpu.get_reg state 8);
  check64 "or" 7L (Cpu.get_reg state 9);
  check64 "xor" 4L (Cpu.get_reg state 10);
  check64 "slt" 1L (Cpu.get_reg state 11)

let test_cpu_div_edge_cases () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [
      li r1 5L; li r2 0L; div r3 r1 r2; rem r4 r1 r2;
      li r5 Int64.min_int; li r6 (-1L); div r7 r5 r6; rem r8 r5 r6; halt;
    ];
  ignore (run_steps state ctx 20);
  check64 "div by zero" (-1L) (Cpu.get_reg state 3);
  check64 "rem by zero" 5L (Cpu.get_reg state 4);
  check64 "min/-1 div" Int64.min_int (Cpu.get_reg state 7);
  check64 "min/-1 rem" 0L (Cpu.get_reg state 8)

let test_cpu_shifts () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [
      li r1 (-8L);
      slli r2 r1 1L;
      srli r3 r1 60L;
      Insn (Instr.Alui (Instr.Sra, 4, 1, 1L));
      li r5 1L;
      li r6 65L;
      sll r7 r5 r6 (* shift amount masked to 1 *);
      Insn (Instr.Alui (Instr.Sltu, 8, 1, 1L)) (* unsigned: -8 > 1 → 0 *);
      halt;
    ];
  ignore (run_steps state ctx 20);
  check64 "sll" (-16L) (Cpu.get_reg state 2);
  check64 "srl fills zero" 0xFL (Cpu.get_reg state 3);
  check64 "sra keeps sign" (-4L) (Cpu.get_reg state 4);
  check64 "shift masked" 2L (Cpu.get_reg state 7);
  check64 "sltu" 0L (Cpu.get_reg state 8)

let test_cpu_branches () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [
      li r1 1L; li r2 2L;
      blt r1 r2 "taken";
      li r3 99L (* skipped *);
      label "taken";
      bge r1 r2 "nottaken";
      li r4 42L;
      label "nottaken";
      halt;
    ];
  ignore (run_steps state ctx 20);
  check64 "skipped" 0L (Cpu.get_reg state 3);
  check64 "fellthrough" 42L (Cpu.get_reg state 4)

let test_cpu_jal_link () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem [ call "f"; halt; label "f"; li r3 5L; ret ];
  ignore (run_steps state ctx 20);
  check64 "function ran" 5L (Cpu.get_reg state 3);
  checkb "halted" true state.Cpu.halted

let test_cpu_memory_widths () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [
      li r1 0x1234_5678L;
      li r2 0x8000L;
      sd r1 r2 0L;
      ld r3 r2 0L;
      lb r4 r2 0L;
      Insn (Instr.Load { rd = 5; base = 2; off = 0L; width = Instr.W16 });
      Insn (Instr.Load { rd = 6; base = 2; off = 0L; width = Instr.W32 });
      halt;
    ];
  ignore (run_steps state ctx 20);
  check64 "w64" 0x1234_5678L (Cpu.get_reg state 3);
  check64 "w8 zero-extends" 0x78L (Cpu.get_reg state 4);
  check64 "w16" 0x5678L (Cpu.get_reg state 5);
  check64 "w32" 0x1234_5678L (Cpu.get_reg state 6)

let test_cpu_misaligned_trap () =
  let mem, state, ctx, _, _ = make_cpu () in
  (* stvec = 0 → trap loops to pc 0; detect via scause *)
  load_program mem [ la r2 "handler"; csrw Arch.Stvec r2; li r1 0x8001L; ld r3 r1 0L;
                     label "handler"; halt ];
  ignore (run_steps state ctx 20);
  check64 "cause" (Arch.cause_code Arch.Misaligned_load) (Cpu.get_csr state Arch.Scause);
  check64 "tval" 0x8001L (Cpu.get_csr state Arch.Stval)

let test_cpu_r0_hardwired () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem [ Insn (Instr.Alui (Instr.Add, 0, 0, 77L)); halt ];
  ignore (run_steps state ctx 10);
  check64 "r0 still zero" 0L (Cpu.get_reg state 0)

let test_cpu_trap_and_sret () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [
      la r2 "handler";
      csrw Arch.Stvec r2;
      (* drop to user mode at "user" *)
      la r2 "user";
      csrw Arch.Sepc r2;
      li r2 0L;
      csrw Arch.Sie r2 (* SPP=0 → user *);
      sret;
      label "handler";
      (* expect a syscall from user mode *)
      csrr r3 Arch.Scause;
      csrr r4 Arch.Sepc;
      halt;
      label "user";
      nop;
      ecall;
    ];
  ignore (run_steps state ctx 50);
  check64 "cause syscall" (Arch.cause_code Arch.Syscall) (Cpu.get_reg state 3);
  (* sepc points at the ecall itself *)
  let img = Asm.assemble
      [ la r2 "handler"; csrw Arch.Stvec r2; la r2 "user"; csrw Arch.Sepc r2;
        li r2 0L; csrw Arch.Sie r2; sret; label "handler"; csrr r3 Arch.Scause;
        csrr r4 Arch.Sepc; halt; label "user"; nop; ecall ] in
  check64 "sepc" (Int64.add (Asm.symbol img "user") 8L) (Cpu.get_reg state 4);
  checkb "back in supervisor" true (state.Cpu.mode = Arch.Supervisor)

let test_cpu_illegal_in_user () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [
      la r2 "handler"; csrw Arch.Stvec r2;
      la r2 "user"; csrw Arch.Sepc r2;
      li r2 0L; csrw Arch.Sie r2; sret;
      label "handler"; csrr r3 Arch.Scause; halt;
      label "user"; halt (* privileged in user mode *);
    ];
  ignore (run_steps state ctx 50);
  check64 "illegal" (Arch.cause_code Arch.Illegal_instruction) (Cpu.get_reg state 3)

let test_cpu_csr_readonly () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [ la r2 "handler"; csrw Arch.Stvec r2; csrw Arch.Time r1;
      label "handler"; csrr r3 Arch.Scause; halt ];
  ignore (run_steps state ctx 20);
  check64 "illegal write" (Arch.cause_code Arch.Illegal_instruction) (Cpu.get_reg state 3)

let test_cpu_timer_interrupt () =
  let mem, state, ctx, _, clock = make_cpu () in
  clock := 0L;
  load_program mem
    [
      la r2 "handler"; csrw Arch.Stvec r2;
      (* arm timer at t=1 and enable GIE+timer *)
      li r2 1L; csrw Arch.Stimecmp r2;
      li r2 0L; Insn (Instr.Alui (Instr.Add, 2, 0, 1L));
      (* sie = GIE | timer-enable *)
      li r2 1L; slli r3 r2 63L; ori r3 r3 1L; csrw Arch.Sie r3;
      label "spin"; jmp "spin";
      label "handler"; csrr r4 Arch.Scause; halt;
    ];
  clock := 100L;
  ignore (run_steps state ctx 50);
  check64 "timer cause" (Arch.cause_code Arch.Timer_interrupt) (Cpu.get_reg state 4)

let test_cpu_external_priority () =
  let mem, state, ctx, ext, clock = make_cpu () in
  load_program mem
    [
      la r2 "handler"; csrw Arch.Stvec r2;
      li r2 1L; csrw Arch.Stimecmp r2;
      li r2 1L; slli r3 r2 63L; ori r3 r3 3L (* GIE | timer | ext *); csrw Arch.Sie r3;
      label "spin"; jmp "spin";
      label "handler"; csrr r4 Arch.Scause; halt;
    ];
  ext := true;
  clock := 100L;
  ignore (run_steps state ctx 50);
  check64 "external wins" (Arch.cause_code Arch.External_interrupt) (Cpu.get_reg state 4)

let test_cpu_gie_masks () =
  let mem, state, ctx, ext, _ = make_cpu () in
  load_program mem [ li r1 1L; li r1 2L; li r1 3L; halt ];
  ext := true;
  (* GIE off: no delivery despite pending external *)
  ignore (run_steps state ctx 20);
  checkb "halted normally" true state.Cpu.halted;
  check64 "no trap" 0L (Cpu.get_csr state Arch.Scause)

let test_cpu_wfi_waits () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem [ wfi; halt ];
  let _, stop = Cpu.run state ctx ~budget:10_000 in
  checkb "waiting" true (stop = Cpu.Waiting);
  checkb "flag" true state.Cpu.waiting

let test_cpu_mmio_native () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [ li r2 0x4000_0000L; ld r3 r2 0L; sd r3 r2 8L; halt ];
  ignore (run_steps state ctx 20);
  check64 "mmio read" 0xAAL (Cpu.get_reg state 3)

let test_cpu_port_native () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem [ inp r3 0x10; outp 0x10 r3; halt ];
  ignore (run_steps state ctx 20);
  check64 "port in" 0x7FL (Cpu.get_reg state 3);
  checkb "halted" true state.Cpu.halted

let test_cpu_lui_li64 () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [ Insn (Instr.Lui (2, 0xDEADL)); li r3 0xDEAD_BEEF_1234_5678L; halt ];
  ignore (run_steps state ctx 10);
  check64 "lui shifts 32" (Int64.shift_left 0xDEADL 32) (Cpu.get_reg state 2);
  check64 "li 64-bit expansion" 0xDEAD_BEEF_1234_5678L (Cpu.get_reg state 3)

let test_cpu_hcall_native_illegal () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [ la r2 "handler"; csrw Arch.Stvec r2; hcall; label "handler";
      csrr r3 Arch.Scause; halt ];
  ignore (run_steps state ctx 20);
  check64 "hcall illegal on bare metal" (Arch.cause_code Arch.Illegal_instruction)
    (Cpu.get_reg state 3)

let test_cpu_instret () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem [ nop; nop; nop; halt ];
  ignore (run_steps state ctx 10);
  (* the halt itself stops the hart before retiring *)
  check64 "instret" 3L state.Cpu.instret

let test_cpu_waiting_resumes_on_irq () =
  let mem, state, ctx, _, clock = make_cpu () in
  load_program mem
    [
      la r2 "handler"; csrw Arch.Stvec r2;
      li r2 500L; csrw Arch.Stimecmp r2;
      li r2 1L; slli r3 r2 63L; ori r3 r3 1L; csrw Arch.Sie r3;
      wfi;
      label "after"; jmp "after";
      label "handler"; halt;
    ];
  (* first run parks in wfi *)
  let _, stop = Cpu.run state ctx ~budget:100_000 in
  checkb "waiting" true (stop = Cpu.Waiting);
  (* time passes; the pending timer resumes and vectors to the handler *)
  clock := 1_000L;
  let _, stop = Cpu.run state ctx ~budget:100_000 in
  checkb "halted via handler" true (stop = Cpu.Halted)

let test_cpu_vmid_reads_zero_native () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem [ csrr r3 Arch.Vmid; halt ];
  ignore (run_steps state ctx 10);
  check64 "bare metal vmid" 0L (Cpu.get_reg state 3)

(* ---------------- Deprivileged exits ---------------- *)

let run_until_exit state ctx =
  match Cpu.run state ctx ~budget:100_000 with
  | _, Cpu.Exit e -> e
  | _, _ -> Alcotest.fail "expected a VM exit"

let test_exit_privileged () =
  let mem, state, ctx, _, _ = make_cpu ~env:`Deprivileged () in
  load_program mem [ csrr r1 Arch.Time ];
  (match run_until_exit state ctx with
  | Cpu.X_privileged (Instr.Csrr (1, Arch.Time)) -> ()
  | e -> Alcotest.fail (Format.asprintf "unexpected exit %a" Cpu.pp_vmexit e));
  check64 "pc not advanced" 0L (Cpu.pc state)

let test_exit_ecall () =
  let mem, state, ctx, _, _ = make_cpu ~env:`Deprivileged () in
  load_program mem [ ecall ];
  match run_until_exit state ctx with
  | Cpu.X_trap { cause = Arch.Syscall; _ } -> ()
  | e -> Alcotest.fail (Format.asprintf "unexpected exit %a" Cpu.pp_vmexit e)

let test_exit_hypercall () =
  let mem, state, ctx, _, _ = make_cpu ~env:`Deprivileged () in
  load_program mem [ hcall ];
  checkb "hypercall exit" true (run_until_exit state ctx = Cpu.X_hypercall)

let test_exit_mmio () =
  let mem, state, ctx, _, _ = make_cpu ~env:`Deprivileged () in
  load_program mem [ li r2 0x4000_0000L; ld r7 r2 16L ];
  (match run_until_exit state ctx with
  | Cpu.X_mmio_load { rd = 7; pa = 0x4000_0010L; width = Instr.W64 } -> ()
  | e -> Alcotest.fail (Format.asprintf "unexpected exit %a" Cpu.pp_vmexit e));
  (* after the VMM emulates, it advances the pc and resumes *)
  Cpu.set_reg state 7 0x55L;
  Cpu.advance_pc state;
  let mem2 = mem in
  ignore mem2;
  load_program mem [ li r2 0x4000_0000L; ld r7 r2 16L; li r3 9L; sd r3 r2 24L ];
  match run_until_exit state ctx with
  | Cpu.X_mmio_store { pa = 0x4000_0018L; value = 9L; width = Instr.W64 } -> ()
  | e -> Alcotest.fail (Format.asprintf "unexpected exit %a" Cpu.pp_vmexit e)

let test_exit_page_fault () =
  let mem = Phys_mem.create ~frames:4 in
  let state = Cpu.create_state () in
  let ctx =
    {
      Cpu.translate = (fun ~access:_ ~user:_ _ -> Cpu.xl_page);
      mem;
      flush_tlb = (fun () -> ());
      now = (fun () -> 0L);
      ext_irq = (fun () -> false);
      cost;
      dtlb = Dtlb.create ~tlb:(Tlb.create ~size:4);
      env = Cpu.Deprivileged;
    }
  in
  match Cpu.run state ctx ~budget:1000 with
  | _, Cpu.Exit (Cpu.X_page_fault { access = Arch.Fetch; va = 0L }) -> ()
  | _ -> Alcotest.fail "expected fetch page-fault exit"

let test_exit_halted_budget () =
  let mem, state, ctx, _, _ = make_cpu ~env:`Deprivileged () in
  load_program mem [ label "spin"; jmp "spin" ];
  let cycles, stop = Cpu.run state ctx ~budget:500 in
  checkb "budget stop" true (stop = Cpu.Budget);
  checkb "cycles counted" true (cycles >= 500)

let test_cpu_jalr_misaligned_target () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem
    [ la r2 "handler"; csrw Arch.Stvec r2; li r3 0x1001L; jalr r0 r3 0L;
      label "handler"; csrr r4 Arch.Scause; halt ];
  ignore (run_steps state ctx 20);
  check64 "misaligned fetch" (Arch.cause_code Arch.Misaligned_fetch) (Cpu.get_reg state 4)

(* ---------------- Register file ---------------- *)

(* The [Bytes] register file against a boxed [int64 array] reference
   (slots 0-15 the registers, 16 the PC): random writes through
   [set_reg]/[set_pc] read back through [get_reg]/[pc], and r0 stays
   zero. *)
type reg_op = R_set of int * int64 | R_pc of int64

let prop_register_file =
  QCheck2.Test.make ~count:300 ~name:"register file = int64 array reference"
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (frequency
           [
             (6, map2 (fun r v -> R_set (r, v)) (int_range 0 15) ui64);
             (2, map (fun v -> R_pc v) ui64);
           ]))
    (fun ops ->
      let s = Cpu.create_state ~pc:0x1000L () in
      let model = Array.make 17 0L in
      model.(16) <- 0x1000L;
      let agrees s m =
        List.for_all (fun r -> Cpu.get_reg s r = m.(r)) (List.init 16 Fun.id)
        && Cpu.pc s = m.(16)
        && Cpu.get_reg s 0 = 0L
      in
      List.for_all
        (fun op ->
          (match op with
          | R_set (r, v) ->
              Cpu.set_reg s r v;
              if r <> 0 then model.(r) <- v
          | R_pc v ->
              Cpu.set_pc s v;
              model.(16) <- v);
          agrees s model)
        ops)

(* A translation packs the address, the MMIO flag and the walk cycles
   into one int; anything that would not fit is refused, never
   truncated. *)
let test_xlate_packing () =
  List.iter
    (fun (pa, mmio, cycles) ->
      let x = Cpu.xl_make ~pa ~mmio ~cycles in
      checkb "non-negative" true (x >= 0);
      checki "pa" pa (Cpu.xl_pa x);
      checkb "mmio" mmio (Cpu.xl_mmio x);
      checki "cycles" cycles (Cpu.xl_cycles x))
    [ (0, false, 0); (0x4000_0008, true, 0); ((1 lsl 48) - 1, true, 8191); (0xA008, false, 304) ];
  checki "zero-cycle RAM translation is its address" 0x1234
    (Cpu.xl_make ~pa:0x1234 ~mmio:false ~cycles:0);
  List.iter
    (fun (pa, cycles, msg) ->
      Alcotest.check_raises (Printf.sprintf "pa=%d cycles=%d" pa cycles) (Invalid_argument msg)
        (fun () -> ignore (Cpu.xl_make ~pa ~mmio:false ~cycles)))
    [
      (1 lsl 48, 0, "Cpu.xl_make: address outside [0, 2^48)");
      (-1, 0, "Cpu.xl_make: address outside [0, 2^48)");
      (0, 8192, "Cpu.xl_make: walk cycles do not fit");
      (0, -1, "Cpu.xl_make: walk cycles do not fit");
    ]

let test_register_index_checked () =
  let s = Cpu.create_state () in
  List.iter
    (fun r ->
      Alcotest.check_raises (Printf.sprintf "get r%d" r)
        (Invalid_argument "Cpu: register index out of range") (fun () ->
          ignore (Cpu.get_reg s r));
      Alcotest.check_raises (Printf.sprintf "set r%d" r)
        (Invalid_argument "Cpu: register index out of range") (fun () -> Cpu.set_reg s r 1L))
    [ -1; 16; 17 ]

(* The block engine's write listener answers from its one cache lookup
   ([Trans_cache.invalidate_range]): a store beside a decoded block keeps
   the block and the frame's watch; a store into the block drops it, and
   with no block left in the frame the listener answers [0], so the
   frame's later writes skip it. *)
let test_engine_listener_watch () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem [ li r1 1L; li r2 2L; li r3 3L; halt ];
  let engine = Engine.block () in
  ignore (engine.Engine.step_n state ctx ~fuel:1000);
  let cache = Option.get engine.Engine.cache in
  let key = Trans_cache.key ~ppn:0L ~off:0 ~user:false ~paging:false in
  let b =
    match Trans_cache.find cache key with
    | Some b -> b
    | None -> Alcotest.fail "no block decoded at frame 0, offset 0"
  in
  let span_hi = b.Trans_cache.start_off + (Arch.instr_bytes * Array.length b.Trans_cache.insns) in
  checkb "block spans below the data word" true (span_hi <= 0x800);
  checki "one block in the frame" 1 (Trans_cache.entries cache);
  Phys_mem.write mem 0x800L Instr.W64 7L;
  checkb "store beside the block keeps it" true b.Trans_cache.valid;
  checkb "frame still watched" true (Phys_mem.watched mem ~ppn:0L);
  Phys_mem.write mem 8L Instr.W64 0L;
  checkb "store into the block drops it" false b.Trans_cache.valid;
  checki "no block left" 0 (Trans_cache.entries cache);
  checkb "frame no longer watched" false (Phys_mem.watched mem ~ppn:0L);
  checki "listener answer for an empty frame" 0
    (Trans_cache.invalidate_range cache ~ppn:0L ~lo:0 ~hi:8)

(* The quiet range follows the blocks: with block A decoded at offset 0,
   stores at 0x800 reach the listener once and are quiet after that;
   decoding block B at 0x900 widens the frame's span, so a store into B
   must reach the listener and drop B even though the quiet range it
   last answered ended below 0x800. *)
let test_quiet_range_follows_blocks () =
  let mem, state, ctx, _, _ = make_cpu () in
  load_program mem [ li r1 1L; li r2 2L; halt ];
  let engine = Engine.block () in
  ignore (engine.Engine.step_n state ctx ~fuel:1000);
  let cache = Option.get engine.Engine.cache in
  let block off =
    match Trans_cache.find cache (Trans_cache.key ~ppn:0L ~off ~user:false ~paging:false) with
    | Some b -> b
    | None -> Alcotest.failf "no block decoded at offset 0x%x" off
  in
  let a = block 0 in
  Phys_mem.write mem 0x800L Instr.W64 7L;
  let d = Phys_mem.deliveries mem and q = Phys_mem.quiet_skips mem in
  Phys_mem.write mem 0x800L Instr.W64 8L;
  Phys_mem.write mem 0x808L Instr.W32 9L;
  checki "stores at 0x800 deliver nothing" d (Phys_mem.deliveries mem);
  checki "stores at 0x800 are quiet" (q + 2) (Phys_mem.quiet_skips mem);
  checkb "block A survives" true a.Trans_cache.valid;
  Phys_mem.load_bytes mem ~pa:0x900L (Asm.assemble [ li r3 3L; li r4 4L; halt ]).Asm.code;
  state.Cpu.halted <- false;
  Cpu.set_pc state 0x900L;
  ignore (engine.Engine.step_n state ctx ~fuel:1000);
  let b = block 0x900 in
  Phys_mem.write mem 0x908L Instr.W64 0L;
  checkb "store into block B drops it" false b.Trans_cache.valid;
  checkb "block A survives the store into B" true a.Trans_cache.valid

(* ---------------- Trace-tier ALU ---------------- *)

(* The trace tier evaluates ALU ops and branches with its own inline
   primitives; run one-op traces through [Trace_ir.exec] and hold them
   to the reference [Cpu.eval_alu]/[eval_branch]. *)
let run_trace insns ~a ~b =
  let prog =
    match Trace_ir.build ~cost ~segments:[ { Trace_ir.seg_insns = insns; seg_off = 0 } ] with
    | Some p -> p
    | None -> Alcotest.fail "one-op trace not lowerable"
  in
  let s = Cpu.create_state () in
  Cpu.set_reg s 1 a;
  Cpu.set_reg s 2 b;
  let _, _, ctx, _, _ = make_cpu ~env:`Deprivileged () in
  match
    Trace_ir.exec prog ~start:0 ~s ~ctx ~user:false ~page_base:0L ~frame:0 ~fuel_left:1000
      ~xl:0
  with
  | Trace_ir.Fall _ -> s
  | _ -> Alcotest.fail "one-op trace did not fall out"

let all_alu_ops =
  [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And; Instr.Or; Instr.Xor;
    Instr.Sll; Instr.Srl; Instr.Sra; Instr.Slt; Instr.Sltu ]

let all_branch_ops =
  [ Instr.Beq; Instr.Bne; Instr.Blt; Instr.Bge; Instr.Bltu; Instr.Bgeu ]

(* zero divisors, [min_int / -1], shift amounts of 64 and beyond *)
let special_operands =
  [ 0L; 1L; -1L; 2L; 7L; 63L; 64L; 65L; 127L; -64L; Int64.min_int; Int64.max_int ]

(* [rd = r3]; [rd = r0], whose write is dropped with nothing else
   moving; and [rd = rs1 = rs2] *)
let trace_agrees op a b imm =
  let jr = Instr.Jalr (0, 0, 0x100L) in
  let ref_imm = Cpu.eval_alu op a (Cpu.alui_imm op imm) in
  let s = run_trace [| Instr.Alu (op, 3, 1, 2); jr |] ~a ~b in
  let si = run_trace [| Instr.Alui (op, 3, 1, imm); jr |] ~a ~b in
  let untouched s =
    Cpu.get_reg s 0 = 0L && Cpu.get_reg s 1 = a && Cpu.get_reg s 2 = b && Cpu.get_reg s 3 = 0L
  in
  let same = run_trace [| Instr.Alu (op, 1, 1, 1); jr |] ~a ~b in
  let samei = run_trace [| Instr.Alui (op, 1, 1, imm); jr |] ~a ~b in
  Cpu.get_reg s 3 = Cpu.eval_alu op a b
  && Cpu.get_reg si 3 = ref_imm
  && untouched (run_trace [| Instr.Alu (op, 0, 1, 2); jr |] ~a ~b)
  && untouched (run_trace [| Instr.Alui (op, 0, 1, imm); jr |] ~a ~b)
  && Cpu.get_reg same 1 = Cpu.eval_alu op a a
  && Cpu.get_reg samei 1 = ref_imm

let branch_agrees op a b =
  let taken rs2 = Cpu.pc (run_trace [| Instr.Branch (op, 1, rs2, 64L) |] ~a ~b) in
  let pc = taken 2 and pc_same = taken 1 in
  (pc = 64L) = Cpu.eval_branch op a b
  && (pc = 64L || pc = 8L)
  && (pc_same = 64L) = Cpu.eval_branch op a a

let prop_trace_alu =
  let operand =
    QCheck2.Gen.(frequency [ (1, oneofl special_operands); (2, ui64) ])
  in
  QCheck2.Test.make ~count:1000 ~name:"trace ALU and branches = Cpu.eval_alu/eval_branch"
    QCheck2.Gen.(
      tup5 (oneofl all_alu_ops) (oneofl all_branch_ops) operand operand
        (map Int64.of_int (int_range (-0x8000_0000) 0x7FFF_FFFF)))
    (fun (op, bop, a, b, imm) -> trace_agrees op a b imm && branch_agrees bop a b)

let test_trace_alu_edges () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun op ->
              checkb
                (Format.asprintf "%a 0x%Lx 0x%Lx" Instr.pp (Instr.Alu (op, 3, 1, 2)) a b)
                true (trace_agrees op a b b))
            all_alu_ops;
          List.iter
            (fun op -> checkb (Printf.sprintf "branch 0x%Lx 0x%Lx" a b) true (branch_agrees op a b))
            all_branch_ops)
        special_operands)
    special_operands

(* Fuel admission inside a looping two-segment trace holding every
   decodable non-memory op kind, a load and a store (micro-TLB hits),
   closed by a taken branch and a [jal] back to the start.  For every
   fuel value over about ten laps, the trace run must stop where the
   reference interpreter's [Cpu.run ~budget:fuel] stops: the same
   registers, PC, instret, stored word and cycles. *)
let test_trace_fuel () =
  let alu = List.mapi (fun k op -> Instr.Alu (op, 3 + (k mod 9), 1 + (k mod 11), 2)) all_alu_ops in
  let alui =
    [ Instr.Add; Instr.And; Instr.Or; Instr.Xor; Instr.Sll; Instr.Srl; Instr.Sra; Instr.Slt;
      Instr.Sltu ]
    |> List.mapi (fun k op ->
           Instr.Alui (op, 4 + (k mod 8), 3 + (k mod 10), Int64.of_int ((37 * k) - 100)))
  in
  let seg_a =
    [ Instr.Nop; Instr.Lui (5, 0x1234L) ] @ alu
    @ [ Instr.Load { rd = 6; base = 15; off = 0L; width = Instr.W64 };
        Instr.Store { src = 7; base = 15; off = 8L; width = Instr.W64 } ]
  in
  let seg_a = Array.of_list (seg_a @ [ Instr.Branch (Instr.Beq, 0, 0, 0x200L) ]) in
  let a_len = Array.length seg_a in
  (* segment A at 0 branches to segment B at A's last op + 0x200, whose
     [jal] returns to 0 *)
  let b_off = (8 * (a_len - 1)) + 0x200 in
  let seg_b =
    Array.of_list (alui @ [ Instr.Jal (0, Int64.of_int (-(b_off + (8 * List.length alui)))) ])
  in
  let prog =
    match
      Trace_ir.build ~cost
        ~segments:
          [
            { Trace_ir.seg_insns = seg_a; seg_off = 0 };
            { Trace_ir.seg_insns = seg_b; seg_off = b_off };
          ]
    with
    | Some p -> p
    | None -> Alcotest.fail "fuel trace not lowerable"
  in
  let init (s : Cpu.state) =
    List.iteri (fun r v -> Cpu.set_reg s (r + 1) v)
      [ 7L; -3L; 0x55L; Int64.min_int; 1L; 99L; -1L; 64L; 0x7FFF_FFFFL; 5L; 13L ];
    Cpu.set_reg s 15 0x1000L
  in
  let laps = ref 0 in
  for fuel = 1 to 600 do
    (* the reference: the interpreter over the same code in memory *)
    let mem, ref_s, ctx, _, _ = make_cpu ~env:`Deprivileged () in
    let load off =
      Array.iteri (fun k i ->
          Phys_mem.write mem (Int64.of_int (off + (8 * k))) Instr.W64 (Instr.encode i))
    in
    load 0 seg_a;
    load b_off seg_b;
    init ref_s;
    let ref_cycles, _ = Cpu.run ref_s ctx ~budget:fuel in
    (* the trace, its load and store served by the micro-TLB *)
    let tmem = Phys_mem.create ~frames:2 in
    let tlb = Tlb.create ~size:4 in
    Tlb.insert tlb
      { Tlb.vpn = 1L; ppn = 1L; perms = rwxu; dirty_ok = true; mmio = false; superpage = false };
    let dtlb = Dtlb.create ~tlb in
    Dtlb.fill dtlb ~access:Arch.Load ~user:true ~va:0x1000L;
    Dtlb.fill dtlb ~access:Arch.Store ~user:true ~va:0x1000L;
    let s = Cpu.create_state () in
    init s;
    let cycles =
      match
        Trace_ir.exec prog ~start:0 ~s
          ~ctx:{ ctx with Cpu.mem = tmem; dtlb }
          ~user:true ~page_base:0L ~frame:0 ~fuel_left:fuel ~xl:0
      with
      | Trace_ir.Fall { cycles; early = false } -> cycles
      | _ -> Alcotest.fail "the trace left other than by fuel"
    in
    let what = Printf.sprintf "fuel %d" fuel in
    Alcotest.(check int) (what ^ " cycles") ref_cycles cycles;
    check64 (what ^ " instret") ref_s.Cpu.instret s.Cpu.instret;
    check64 (what ^ " pc") (Cpu.pc ref_s) (Cpu.pc s);
    for r = 0 to Arch.num_regs - 1 do
      check64 (Printf.sprintf "%s r%d" what r) (Cpu.get_reg ref_s r) (Cpu.get_reg s r)
    done;
    check64 (what ^ " stored word") (Phys_mem.read mem 0x1008L Instr.W64)
      (Phys_mem.read tmem 0x1008L Instr.W64);
    if Int64.to_int s.Cpu.instret > a_len + Array.length seg_b then incr laps
  done;
  checkb "fuel ran out on later laps too" true (!laps > 0)

(* ---------------- Native MMU ---------------- *)

let make_mmu_world () =
  let mem = Phys_mem.create ~frames:64 in
  let tlb = Tlb.create ~size:8 in
  let satp = ref 0L in
  let mmu = Mmu.create ~mem ~tlb ~cost ~get_satp:(fun () -> !satp) in
  let next = ref 1L in
  let alloc () =
    let p = !next in
    next := Int64.add p 1L;
    p
  in
  let acc =
    {
      Pt_build.read_pte = (fun pa -> Phys_mem.read mem pa Instr.W64);
      write_pte = (fun pa v -> Phys_mem.write mem pa Instr.W64 v);
    }
  in
  (mem, tlb, satp, mmu, acc, alloc)

let test_mmu_bare () =
  let _, _, _, mmu, _, _ = make_mmu_world () in
  (match Mmu.translate mmu ~access:Arch.Load ~user:false 0x123L with
  | x when x >= 0 && Cpu.xl_pa x = 0x123 && not (Cpu.xl_mmio x) -> ()
  | _ -> Alcotest.fail "identity expected");
  (match Mmu.translate mmu ~access:Arch.Load ~user:false 0x4000_0008L with
  | x when x >= 0 && Cpu.xl_mmio x -> ()
  | _ -> Alcotest.fail "mmio expected");
  match Mmu.translate mmu ~access:Arch.Load ~user:false 0x9000_0000L with
  | x when x = Cpu.xl_access -> ()
  | _ -> Alcotest.fail "access fault expected"

let test_mmu_walk_and_tlb () =
  let _, tlb, satp, mmu, acc, alloc = make_mmu_world () in
  let root = alloc () in
  Pt_build.map acc ~alloc ~root_ppn:root ~va:0x4000L
    (Pte.leaf ~ppn:10L { Pte.r = true; w = true; x = false; u = false });
  satp := Arch.satp_make ~root_ppn:root;
  (* first access walks *)
  (match Mmu.translate mmu ~access:Arch.Load ~user:false 0x4008L with
  | x when x >= 0 ->
      checki "translated" 0xA008 (Cpu.xl_pa x);
      checkb "walk charged" true (Cpu.xl_cycles x > 0)
  | _ -> Alcotest.fail "walk failed");
  checki "one walk" 1 (Mmu.walk_count mmu);
  (* second access hits the TLB *)
  (match Mmu.translate mmu ~access:Arch.Load ~user:false 0x4010L with
  | x when x >= 0 && Cpu.xl_cycles x = 0 -> ()
  | _ -> Alcotest.fail "expected TLB hit");
  checki "still one walk" 1 (Mmu.walk_count mmu);
  checki "tlb hit" 1 (Tlb.hits tlb)

let test_mmu_ad_bits () =
  let _, _, satp, mmu, acc, alloc = make_mmu_world () in
  let root = alloc () in
  Pt_build.map acc ~alloc ~root_ppn:root ~va:0x4000L
    (Pte.leaf ~ppn:10L { Pte.r = true; w = true; x = false; u = false });
  satp := Arch.satp_make ~root_ppn:root;
  ignore (Mmu.translate mmu ~access:Arch.Load ~user:false 0x4000L);
  (match Pt_build.walk acc ~root_ppn:root 0x4000L with
  | Ok { pte; _ } ->
      checkb "A set" true (Pte.accessed pte);
      checkb "D clear" false (Pte.dirty pte)
  | Error _ -> Alcotest.fail "walk");
  (* store through a load-installed entry re-walks to set D *)
  ignore (Mmu.translate mmu ~access:Arch.Store ~user:false 0x4000L);
  (match Pt_build.walk acc ~root_ppn:root 0x4000L with
  | Ok { pte; _ } -> checkb "D set" true (Pte.dirty pte)
  | Error _ -> Alcotest.fail "walk");
  checki "two walks" 2 (Mmu.walk_count mmu)

let test_mmu_permissions () =
  let _, _, satp, mmu, acc, alloc = make_mmu_world () in
  let root = alloc () in
  Pt_build.map acc ~alloc ~root_ppn:root ~va:0x4000L
    (Pte.leaf ~ppn:10L { Pte.r = true; w = false; x = false; u = true });
  satp := Arch.satp_make ~root_ppn:root;
  (match Mmu.translate mmu ~access:Arch.Store ~user:true 0x4000L with
  | x when x = Cpu.xl_page -> ()
  | _ -> Alcotest.fail "store should fault");
  (match Mmu.translate mmu ~access:Arch.Fetch ~user:true 0x4000L with
  | x when x = Cpu.xl_page -> ()
  | _ -> Alcotest.fail "fetch should fault");
  match Mmu.translate mmu ~access:Arch.Load ~user:true 0x4000L with
  | x when x >= 0 -> ()
  | _ -> Alcotest.fail "load should succeed"

let test_mmu_flush () =
  let _, tlb, satp, mmu, acc, alloc = make_mmu_world () in
  let root = alloc () in
  Pt_build.map acc ~alloc ~root_ppn:root ~va:0x4000L (Pte.leaf ~ppn:10L rwxu);
  satp := Arch.satp_make ~root_ppn:root;
  ignore (Mmu.translate mmu ~access:Arch.Load ~user:false 0x4000L);
  Mmu.flush mmu;
  checkb "tlb empty" true (Tlb.lookup tlb ~vpn:4L = None);
  ignore (Mmu.translate mmu ~access:Arch.Load ~user:false 0x4000L);
  checki "re-walked" 2 (Mmu.walk_count mmu)

(* One 2 MiB entry serves every page of its superpage: a hit on another
   page than the one walked lands where a fresh walk of it lands. *)
let test_mmu_superpage_hit_pa () =
  let _, tlb, satp, mmu, acc, alloc = make_mmu_world () in
  let root = alloc () in
  Pt_build.map ~level:1 acc ~alloc ~root_ppn:root ~va:0x20_0000L (Pte.leaf ~ppn:0L rwxu);
  satp := Arch.satp_make ~root_ppn:root;
  let load va = Mmu.translate mmu ~access:Arch.Load ~user:false va in
  checkb "walked" true (Cpu.xl_cycles (load 0x20_3010L) > 0);
  let hit = load 0x20_5008L in
  checki "served by the superpage entry" 1 (Tlb.hits tlb);
  Mmu.flush mmu;
  let walked = load 0x20_5008L in
  checkb "re-walked" true (Cpu.xl_cycles walked > 0);
  checki "hit pa = walk pa" (Cpu.xl_pa walked) (Cpu.xl_pa hit);
  checki "pa" 0x5008 (Cpu.xl_pa hit)

let test_mmu_write_protected_store_faults () =
  let _, _, satp, mmu, acc, alloc = make_mmu_world () in
  let root = alloc () in
  Pt_build.map acc ~alloc ~root_ppn:root ~va:0x4000L
    (Pte.leaf ~ppn:10L { Pte.r = true; w = false; x = false; u = false });
  satp := Arch.satp_make ~root_ppn:root;
  (match Mmu.translate mmu ~access:Arch.Load ~user:false 0x4000L with
  | x when x >= 0 -> ()
  | _ -> Alcotest.fail "read-only load should pass");
  match Mmu.translate mmu ~access:Arch.Store ~user:false 0x4000L with
  | x when x = Cpu.xl_page -> ()
  | _ -> Alcotest.fail "store to read-only page must fault"

(* ---------------- Cost model ---------------- *)

let test_cost_model_shape () =
  checkb "exit >> trap" true (cost.Cost_model.vmexit > 5 * cost.Cost_model.trap_enter);
  checkb "hypercall << exit" true (cost.Cost_model.hypercall * 3 < cost.Cost_model.vmexit);
  checki "1d refs" 3 Cost_model.walk_refs_1d;
  checki "2d refs" 15 Cost_model.walk_refs_2d;
  checkb "2d >> 1d" true
    (Cost_model.fill_cycles cost ~refs:Cost_model.walk_refs_2d
    > 4 * Cost_model.fill_cycles cost ~refs:Cost_model.walk_refs_1d)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "machine"
    [
      ( "phys_mem",
        [
          Alcotest.test_case "widths" `Quick test_mem_widths;
          Alcotest.test_case "bounds" `Quick test_mem_bounds;
          Alcotest.test_case "bounds near max_int" `Quick test_mem_bounds_overflow;
          Alcotest.test_case "frames" `Quick test_mem_frames;
          Alcotest.test_case "blit between" `Quick test_mem_blit_between;
          Alcotest.test_case "create overflow" `Quick test_mem_create_overflow;
          Alcotest.test_case "blit_out overflow" `Quick test_mem_blit_out_overflow;
          Alcotest.test_case "lazy backing" `Quick test_mem_lazy_backing;
          Alcotest.test_case "load slice" `Quick test_mem_load_slice;
          Alcotest.test_case "engine listener keeps the watch exact" `Quick
            test_engine_listener_watch;
          Alcotest.test_case "quiet range follows the blocks" `Quick
            test_quiet_range_follows_blocks;
        ]
        @ qsuite
            [
              prop_mem_roundtrip; prop_mem_sparse_matches_dense; prop_mem_int_addressed;
              prop_write_watch; prop_quiet_ranges;
            ] );
      ( "page_table",
        [
          Alcotest.test_case "map/walk" `Quick test_pt_map_walk;
          Alcotest.test_case "not mapped" `Quick test_pt_walk_not_mapped;
          Alcotest.test_case "non-canonical" `Quick test_pt_non_canonical;
          Alcotest.test_case "unmap/update" `Quick test_pt_unmap_update;
          Alcotest.test_case "iter/count" `Quick test_pt_iter_count;
          Alcotest.test_case "superpages" `Quick test_pt_superpage;
        ]
        @ qsuite [ prop_pt_map_then_walk; prop_walk_matches_reference ] );
      ( "tlb",
        [
          Alcotest.test_case "insert/lookup/evict" `Quick test_tlb_insert_lookup;
          Alcotest.test_case "same vpn replace" `Quick test_tlb_replace_same_vpn;
          Alcotest.test_case "flush" `Quick test_tlb_flush;
          Alcotest.test_case "stats" `Quick test_tlb_stats;
          Alcotest.test_case "superpage entries" `Quick test_tlb_superpage_entry;
          Alcotest.test_case "stores need the dirty bit" `Quick test_tlb_probe_store_needs_dirty;
        ]
        @ qsuite
            [ prop_tlb_matches_reference; prop_tlb_matches_full_flush; prop_tlb_certificates ] );
      ( "cpu",
        [
          Alcotest.test_case "alu" `Quick test_cpu_alu;
          Alcotest.test_case "div edges" `Quick test_cpu_div_edge_cases;
          Alcotest.test_case "shifts" `Quick test_cpu_shifts;
          Alcotest.test_case "branches" `Quick test_cpu_branches;
          Alcotest.test_case "jal link" `Quick test_cpu_jal_link;
          Alcotest.test_case "memory widths" `Quick test_cpu_memory_widths;
          Alcotest.test_case "misaligned trap" `Quick test_cpu_misaligned_trap;
          Alcotest.test_case "r0 hardwired" `Quick test_cpu_r0_hardwired;
          Alcotest.test_case "trap and sret" `Quick test_cpu_trap_and_sret;
          Alcotest.test_case "illegal in user" `Quick test_cpu_illegal_in_user;
          Alcotest.test_case "read-only csr" `Quick test_cpu_csr_readonly;
          Alcotest.test_case "timer interrupt" `Quick test_cpu_timer_interrupt;
          Alcotest.test_case "external priority" `Quick test_cpu_external_priority;
          Alcotest.test_case "gie masks" `Quick test_cpu_gie_masks;
          Alcotest.test_case "wfi waits" `Quick test_cpu_wfi_waits;
          Alcotest.test_case "mmio native" `Quick test_cpu_mmio_native;
          Alcotest.test_case "port native" `Quick test_cpu_port_native;
          Alcotest.test_case "lui and 64-bit li" `Quick test_cpu_lui_li64;
          Alcotest.test_case "hcall illegal natively" `Quick test_cpu_hcall_native_illegal;
          Alcotest.test_case "instret" `Quick test_cpu_instret;
          Alcotest.test_case "waiting resumes" `Quick test_cpu_waiting_resumes_on_irq;
          Alcotest.test_case "vmid native" `Quick test_cpu_vmid_reads_zero_native;
          Alcotest.test_case "jalr misaligned" `Quick test_cpu_jalr_misaligned_target;
          Alcotest.test_case "register index checked" `Quick test_register_index_checked;
          Alcotest.test_case "translation packing" `Quick test_xlate_packing;
          Alcotest.test_case "trace ALU edge operands" `Quick test_trace_alu_edges;
          Alcotest.test_case "trace fuel admission = interpreter" `Quick test_trace_fuel;
        ]
        @ qsuite [ prop_register_file; prop_trace_alu ] );
      ( "exits",
        [
          Alcotest.test_case "privileged" `Quick test_exit_privileged;
          Alcotest.test_case "ecall" `Quick test_exit_ecall;
          Alcotest.test_case "hypercall" `Quick test_exit_hypercall;
          Alcotest.test_case "mmio" `Quick test_exit_mmio;
          Alcotest.test_case "page fault" `Quick test_exit_page_fault;
          Alcotest.test_case "budget" `Quick test_exit_halted_budget;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "bare mode" `Quick test_mmu_bare;
          Alcotest.test_case "walk and tlb" `Quick test_mmu_walk_and_tlb;
          Alcotest.test_case "a/d bits" `Quick test_mmu_ad_bits;
          Alcotest.test_case "permissions" `Quick test_mmu_permissions;
          Alcotest.test_case "flush" `Quick test_mmu_flush;
          Alcotest.test_case "write-protected store" `Quick
            test_mmu_write_protected_store_faults;
          Alcotest.test_case "superpage hit composes the walk's pa" `Quick
            test_mmu_superpage_hit_pa;
        ] );
      ( "cost_model",
        [ Alcotest.test_case "relative magnitudes" `Quick test_cost_model_shape ] );
    ]
