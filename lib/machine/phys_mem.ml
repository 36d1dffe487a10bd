open Velum_isa

(* Frame [i] is [pages.(i)]: the shared [zero] page until the frame's
   first mutating operation gives it a page of its own.  A frame never
   gives its page back, so zero-filling a backed frame fills in place. *)
type t = {
  pages : Bytes.t array;
  frames : int;
  last_word : int64;  (* highest address any access of up to 8 bytes fits at *)
  mutable listeners : (int * (ppn:int64 -> lo:int -> hi:int -> unit)) list;
  mutable next_listener : int;
}

let page = Arch.page_size
let mask = page - 1

(* Read by every memory of every domain; only [owned] hands out a page
   to write, and it never hands out this one. *)
let zero = Bytes.make page '\000'
let zero_hash = Velum_util.Fnv.hash_bytes zero

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  if frames > max_int / page then invalid_arg "Phys_mem.create: too many frames";
  {
    pages = Array.make frames zero;
    frames;
    last_word = Int64.of_int ((frames * page) - 8);
    listeners = [];
    next_listener = 0;
  }

(* The page of frame [i], given its own on first use. *)
let owned t i =
  let p = t.pages.(i) in
  if p != zero then p
  else begin
    let p = Bytes.make page '\000' in
    t.pages.(i) <- p;
    p
  end

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

let resident_bytes t =
  Array.fold_left (fun n p -> if p != zero then n + page else n) 0 t.pages

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

(* An access that straddles two frames, one byte at a time (little-endian).
   The CPU traps misaligned accesses, so only VMM-side accesses get here. *)
let read_straddle t off bytes =
  let v = ref 0L in
  for k = bytes - 1 downto 0 do
    let a = off + k in
    let b = Bytes.get t.pages.(a lsr Arch.page_shift) (a land mask) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code b))
  done;
  !v

let write_straddle t off bytes v =
  for k = 0 to bytes - 1 do
    let a = off + k in
    let b = Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF in
    Bytes.set (owned t (a lsr Arch.page_shift)) (a land mask) (Char.chr b)
  done

let read t pa w =
  let bytes = Instr.width_bytes w in
  check_word t pa bytes;
  let off = Int64.to_int pa in
  let p = t.pages.(off lsr Arch.page_shift) and o = off land mask in
  if o > page - bytes then read_straddle t off bytes
  else
    match w with
    | Instr.W8 -> Int64.of_int (Char.code (Bytes.get p o))
    | Instr.W16 -> Int64.of_int (Bytes.get_uint16_le p o)
    | Instr.W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le p o)) 0xFFFF_FFFFL
    | Instr.W64 -> Bytes.get_int64_le p o

let write t pa w v =
  let bytes = Instr.width_bytes w in
  check_word t pa bytes;
  let off = Int64.to_int pa in
  let o = off land mask in
  (if o > page - bytes then write_straddle t off bytes v
   else
     let p = owned t (off lsr Arch.page_shift) in
     match w with
     | Instr.W8 -> Bytes.set p o (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
     | Instr.W16 -> Bytes.set_uint16_le p o (Int64.to_int (Int64.logand v 0xFFFFL))
     | Instr.W32 -> Bytes.set_int32_le p o (Int64.to_int32 v)
     | Instr.W64 -> Bytes.set_int64_le p o v);
  notify_range t pa bytes

let load_bytes t ~pa b =
  let len = Bytes.length b in
  check t pa len;
  let off = Int64.to_int pa in
  let pos = ref 0 in
  while !pos < len do
    let a = off + !pos in
    let n = min (len - !pos) (page - (a land mask)) in
    Bytes.blit b !pos (owned t (a lsr Arch.page_shift)) (a land mask) n;
    pos := !pos + n
  done;
  if len > 0 then notify_range t pa len

let frame_index t ppn =
  let i = Int64.to_int ppn in
  if i < 0 || i >= t.frames then
    invalid_arg (Printf.sprintf "Phys_mem: frame %Ld out of range" ppn);
  i

let notify_frame t ppn =
  match t.listeners with
  | [] -> ()
  | listeners -> List.iter (fun (_, f) -> f ~ppn ~lo:0 ~hi:page) listeners

(* Copy [src] into frame [i]: a zero source leaves an unbacked frame
   unbacked and zero-fills a backed one in place. *)
let set_frame t i src =
  if src == zero then begin
    let p = t.pages.(i) in
    if p != zero then Bytes.fill p 0 page '\000'
  end
  else Bytes.blit src 0 (owned t i) 0 page

let frame_copy t ~src_ppn ~dst_ppn =
  set_frame t (frame_index t dst_ppn) t.pages.(frame_index t src_ppn);
  notify_frame t dst_ppn

let frame_fill t ~ppn c =
  let i = frame_index t ppn in
  if c = '\000' then set_frame t i zero else Bytes.fill (owned t i) 0 page c;
  notify_frame t ppn

let frame_read t ~ppn = Bytes.copy t.pages.(frame_index t ppn)

let blit_out t ~ppn ~off dst ~pos ~len =
  if off < 0 || len < 0 || off > page - len then
    invalid_arg "Phys_mem.blit_out: range outside the frame";
  Bytes.blit t.pages.(frame_index t ppn) off dst pos len

let frame_write t ~ppn b =
  if Bytes.length b <> page then invalid_arg "Phys_mem.frame_write: bad length";
  Bytes.blit b 0 (owned t (frame_index t ppn)) 0 page;
  notify_frame t ppn

let frame_hash t ~ppn =
  let p = t.pages.(frame_index t ppn) in
  if p == zero then zero_hash else Velum_util.Fnv.hash_bytes p

let rec zero_from p i =
  i >= page || (Int64.equal (Bytes.get_int64_le p i) 0L && zero_from p (i + 8))

let frame_is_zero t ~ppn =
  let p = t.pages.(frame_index t ppn) in
  p == zero || zero_from p 0

let frame_equal t a b =
  let pa = t.pages.(frame_index t a) and pb = t.pages.(frame_index t b) in
  pa == pb || Velum_util.Fnv.equal_range pa 0 pb 0 page

let blit_between ~src ~src_ppn ~dst ~dst_ppn =
  set_frame dst (frame_index dst dst_ppn) src.pages.(frame_index src src_ppn);
  notify_frame dst dst_ppn
