open Velum_isa

type t = {
  data : Bytes.t;
  frames : int;
  last_word : int64;  (* highest address any access of up to 8 bytes fits at *)
  mutable listeners : (int * (ppn:int64 -> lo:int -> hi:int -> unit)) list;
  mutable next_listener : int;
}

let page = Arch.page_size

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  {
    data = Bytes.make (frames * page) '\000';
    frames;
    last_word = Int64.of_int ((frames * page) - 8);
    listeners = [];
    next_listener = 0;
  }

let add_write_listener t f =
  let id = t.next_listener in
  t.next_listener <- id + 1;
  t.listeners <- (id, f) :: t.listeners;
  id

let remove_write_listener t id =
  t.listeners <- List.filter (fun (i, _) -> i <> id) t.listeners

let listener_count t = List.length t.listeners

(* Notify every listener of each frame the byte range [pa, pa+bytes)
   touches, with the per-frame byte subrange [lo, hi) that was written
   (so listeners caching derived views of code can invalidate
   precisely).  The empty-listener case must stay free: this sits on the
   store fast path. *)
let notify_range t pa bytes =
  match t.listeners with
  | [] -> ()
  | listeners ->
      let first = Int64.shift_right_logical pa Arch.page_shift in
      let last =
        Int64.shift_right_logical (Int64.add pa (Int64.of_int (bytes - 1))) Arch.page_shift
      in
      let start_off = Int64.to_int (Int64.logand pa (Int64.of_int (page - 1))) in
      let ppn = ref first in
      while Int64.compare !ppn last <= 0 do
        let frame = !ppn in
        let lo = if Int64.equal frame first then start_off else 0 in
        let hi =
          if Int64.equal frame last then
            start_off + bytes - (Int64.to_int (Int64.sub frame first) * page)
          else page
        in
        List.iter (fun (_, f) -> f ~ppn:frame ~lo ~hi) listeners;
        ppn := Int64.add !ppn 1L
      done

let frames t = t.frames
let size_bytes t = t.frames * page

(* Compared as [pa <= size - bytes]: [pa + bytes] would wrap for [pa]
   near [Int64.max_int]. *)
let in_range t ~pa ~bytes =
  pa >= 0L && pa <= Int64.of_int (size_bytes t - bytes)

let check t pa bytes =
  if not (in_range t ~pa ~bytes) then
    invalid_arg (Printf.sprintf "Phys_mem: access 0x%Lx+%d out of range" pa bytes)

(* The CPU's loads and stores are at most 8 bytes, so one compare against
   [last_word] clears almost all of them; only an access in the last 7
   bytes of RAM, or out of range, takes the exact check. *)
let check_word t pa bytes = if not (pa >= 0L && pa <= t.last_word) then check t pa bytes

let read t pa w =
  check_word t pa (Instr.width_bytes w);
  let off = Int64.to_int pa in
  match w with
  | Instr.W8 -> Int64.of_int (Char.code (Bytes.get t.data off))
  | Instr.W16 -> Int64.of_int (Bytes.get_uint16_le t.data off)
  | Instr.W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data off)) 0xFFFF_FFFFL
  | Instr.W64 -> Bytes.get_int64_le t.data off

let write t pa w v =
  let bytes = Instr.width_bytes w in
  check_word t pa bytes;
  let off = Int64.to_int pa in
  (match w with
  | Instr.W8 -> Bytes.set t.data off (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | Instr.W16 -> Bytes.set_uint16_le t.data off (Int64.to_int (Int64.logand v 0xFFFFL))
  | Instr.W32 -> Bytes.set_int32_le t.data off (Int64.to_int32 v)
  | Instr.W64 -> Bytes.set_int64_le t.data off v);
  notify_range t pa bytes

let load_bytes t ~pa b =
  check t pa (Bytes.length b);
  Bytes.blit b 0 t.data (Int64.to_int pa) (Bytes.length b);
  if Bytes.length b > 0 then notify_range t pa (Bytes.length b)

let frame_off t ppn =
  let i = Int64.to_int ppn in
  if i < 0 || i >= t.frames then
    invalid_arg (Printf.sprintf "Phys_mem: frame %Ld out of range" ppn);
  i * page

let notify_frame t ppn =
  match t.listeners with
  | [] -> ()
  | listeners -> List.iter (fun (_, f) -> f ~ppn ~lo:0 ~hi:page) listeners

let frame_copy t ~src_ppn ~dst_ppn =
  Bytes.blit t.data (frame_off t src_ppn) t.data (frame_off t dst_ppn) page;
  notify_frame t dst_ppn

let frame_fill t ~ppn c =
  Bytes.fill t.data (frame_off t ppn) page c;
  notify_frame t ppn

let frame_read t ~ppn = Bytes.sub t.data (frame_off t ppn) page

let blit_out t ~ppn ~off dst ~pos ~len =
  if off < 0 || len < 0 || off + len > page then
    invalid_arg "Phys_mem.blit_out: range outside the frame";
  Bytes.blit t.data (frame_off t ppn + off) dst pos len

let frame_write t ~ppn b =
  if Bytes.length b <> page then invalid_arg "Phys_mem.frame_write: bad length";
  Bytes.blit b 0 t.data (frame_off t ppn) page;
  notify_frame t ppn

let frame_hash t ~ppn = Velum_util.Fnv.hash_bytes ~pos:(frame_off t ppn) ~len:page t.data

let frame_is_zero t ~ppn =
  let off = frame_off t ppn in
  let rec go i = i >= page || (Bytes.get t.data (off + i) = '\000' && go (i + 1)) in
  go 0

let frame_equal t a b =
  Velum_util.Fnv.equal_range t.data (frame_off t a) t.data (frame_off t b) page

let blit_between ~src ~src_ppn ~dst ~dst_ppn =
  Bytes.blit src.data (frame_off src src_ppn) dst.data (frame_off dst dst_ppn) page;
  notify_frame dst dst_ppn
