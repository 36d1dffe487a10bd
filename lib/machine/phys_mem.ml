open Velum_isa

(* Frame [i] is [pages.(i)]: the shared [zero] page until the frame's
   first mutating operation gives it a page of its own.  A frame never
   gives its page back, so zero-filling a backed frame fills in place. *)
type t = {
  pages : Bytes.t array;
  frames : int;
  last_word : int;  (* highest address any access of up to 8 bytes fits at *)
  watched : Bytes.t;
      (* one byte per frame: nonzero while some listener still wants the
         frame's writes *)
  quiet : int array;
      (* [quiet_slots] entries, direct-mapped by frame number: [(i lsl
         range_bits) lor r] says no listener wants watched frame [i]'s
         writes outside the range [r] (packed as [want]); -1 is empty *)
  mutable listeners : (int * (ppn:int64 -> lo:int -> hi:int -> int)) list;
  mutable next_listener : int;
  mutable deliveries : int;
  mutable quiet_skips : int;
}

let page = Arch.page_size
let mask = page - 1

(* Read by every memory of every domain; only [owned] hands out a page
   to write, and it never hands out this one. *)
let zero = Bytes.make page '\000'
let zero_hash = Velum_util.Fnv.hash_bytes zero

(* Translations pack a physical address into 48 bits (see [Cpu.xl_make]),
   so RAM stays below 2^48 bytes. *)
let frame_limit = (1 lsl 48) / page

(* A byte range [lo, hi) of a frame packs into [range_bits] bits as
   [(lo lsl 13) lor hi]; 0 is the empty range.  A frame number (below
   2^36) above them still fits an [int], and no frame reads as -1's. *)
let range_bits = 26
let field = (1 lsl 13) - 1
let[@inline] lo_of r = (r lsr 13) land field
let[@inline] hi_of r = r land field

let want ~lo ~hi =
  let lo = max lo 0 and hi = min hi page in
  if hi <= lo then 0 else (lo lsl 13) lor hi

let union a b =
  if a = 0 then b
  else if b = 0 then a
  else (min (lo_of a) (lo_of b) lsl 13) lor max (hi_of a) (hi_of b)

let quiet_slots = 16
let slot i = i land (quiet_slots - 1)

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  if frames >= frame_limit then invalid_arg "Phys_mem.create: too many frames";
  {
    pages = Array.make frames zero;
    frames;
    last_word = (frames * page) - 8;
    watched = Bytes.make frames '\001';
    quiet = Array.make quiet_slots (-1);
    listeners = [];
    next_listener = 0;
    deliveries = 0;
    quiet_skips = 0;
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

(* Forget frame [i]'s quiet range, if its slot holds one. *)
let unquiet t i =
  let s = slot i in
  if t.quiet.(s) lsr range_bits = i then t.quiet.(s) <- -1

let watch t ~ppn =
  let i = Int64.to_int ppn in
  if i >= 0 && i < t.frames then begin
    Bytes.unsafe_set t.watched i '\001';
    unquiet t i
  end

let watch_all t =
  Bytes.fill t.watched 0 t.frames '\001';
  Array.fill t.quiet 0 quiet_slots (-1)

let watched t ~ppn =
  let i = Int64.to_int ppn in
  i >= 0 && i < t.frames && Bytes.get t.watched i <> '\000'

let add_write_listener t f =
  let id = t.next_listener in
  t.next_listener <- id + 1;
  t.listeners <- (id, f) :: t.listeners;
  watch_all t;
  id

let remove_write_listener t id =
  t.listeners <- List.filter (fun (i, _) -> i <> id) t.listeners

let listener_count t = List.length t.listeners
let deliveries t = t.deliveries
let quiet_skips t = t.quiet_skips

(* The union of every listener's answer to one write: all of them run. *)
let rec ask ppn lo hi acc = function
  | [] -> acc
  | (_, f) :: rest -> ask ppn lo hi (union acc (f ~ppn ~lo ~hi)) rest

(* Report the written subrange [lo, hi) of frame [i] to every listener
   when the frame is watched and the write is not quiet: a write that
   misses the range its slot records for the frame returns after two
   compares.  The union of the answers becomes the frame's quiet range;
   when it is empty, stop watching the frame. *)
let notify_frame_range t i ~lo ~hi =
  if Bytes.unsafe_get t.watched i <> '\000' then begin
    let s = slot i in
    let e = Array.unsafe_get t.quiet s in
    if e lsr range_bits = i && (hi <= lo_of e || lo >= hi_of e) then
      t.quiet_skips <- t.quiet_skips + 1
    else begin
      t.deliveries <- t.deliveries + 1;
      match ask (Int64.of_int i) lo hi 0 t.listeners with
      | 0 ->
          Bytes.unsafe_set t.watched i '\000';
          unquiet t i
      | r -> Array.unsafe_set t.quiet s ((i lsl range_bits) lor r)
    end
  end

(* Notify each frame the byte range [pa, pa+bytes) touches, with the
   per-frame byte subrange that was written (so listeners caching
   derived views of code can invalidate precisely).  This sits on the
   store fast path: with no listeners it is one match, a write to an
   unwatched frame costs one byte load, and a quiet one two compares
   more. *)
let notify_range t pa bytes =
  match t.listeners with
  | [] -> ()
  | _ ->
      let first = pa lsr Arch.page_shift and last = (pa + bytes - 1) lsr Arch.page_shift in
      for i = first to last do
        let lo = if i = first then pa land mask else 0 in
        let hi = if i = last then ((pa + bytes - 1) land mask) + 1 else page in
        notify_frame_range t i ~lo ~hi
      done

let frames t = t.frames
let size_bytes t = t.frames * page

let resident_bytes t =
  Array.fold_left (fun n p -> if p != zero then n + page else n) 0 t.pages

(* Compared as [pa <= size - bytes]: [pa + bytes] would wrap for [pa]
   near [Int64.max_int]. *)
let in_range t ~pa ~bytes =
  pa >= 0L && pa <= Int64.of_int (size_bytes t - bytes)

let out_of_range pa bytes =
  invalid_arg (Printf.sprintf "Phys_mem: access 0x%Lx+%d out of range" pa bytes)

let check t pa bytes = if not (in_range t ~pa ~bytes) then out_of_range pa bytes

(* The CPU's loads and stores are at most 8 bytes, so one compare against
   [last_word] clears almost all of them; only an access in the last 7
   bytes of RAM, or out of range, takes the exact check. *)
let check_word t pa bytes =
  if not (pa >= 0 && pa <= t.last_word) then check t (Int64.of_int pa) bytes

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

let[@inline] read_at t pa w =
  let bytes = Instr.width_bytes w in
  check_word t pa bytes;
  let p = t.pages.(pa lsr Arch.page_shift) and o = pa land mask in
  if o > page - bytes then read_straddle t pa bytes
  else
    match w with
    | Instr.W8 -> Int64.of_int (Char.code (Bytes.get p o))
    | Instr.W16 -> Int64.of_int (Bytes.get_uint16_le p o)
    | Instr.W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le p o)) 0xFFFF_FFFFL
    | Instr.W64 -> Bytes.get_int64_le p o

(* The unchecked primitive, so the word is never boxed: [check_word] has
   already bounded [pa], and [o] leaves 8 bytes in the page. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let read_word t pa =
  check_word t pa 8;
  let o = pa land mask in
  if o > page - 8 then Int64.to_int (read_straddle t pa 8)
  else Int64.to_int (get64u t.pages.(pa lsr Arch.page_shift) o)

let[@inline] write_at t pa w v =
  let bytes = Instr.width_bytes w in
  check_word t pa bytes;
  let o = pa land mask in
  (if o > page - bytes then write_straddle t pa bytes v
   else
     let p = owned t (pa lsr Arch.page_shift) in
     match w with
     | Instr.W8 -> Bytes.set p o (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
     | Instr.W16 -> Bytes.set_uint16_le p o (Int64.to_int (Int64.logand v 0xFFFFL))
     | Instr.W32 -> Bytes.set_int32_le p o (Int64.to_int32 v)
     | Instr.W64 -> Bytes.set_int64_le p o v);
  notify_range t pa bytes

(* An [int64] address that is not an [int] (at or above 2^62, as an
   unsigned value) is out of range; checking it here keeps [to_int] from
   wrapping it onto a valid one. *)
let[@inline] int_pa t pa w =
  let i = Int64.to_int pa in
  if Int64.of_int i <> pa then check t pa (Instr.width_bytes w);
  i

let read t pa w = read_at t (int_pa t pa w) w
let write t pa w v = write_at t (int_pa t pa w) w v

let load_bytes t ~pa ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Phys_mem.load_bytes: range outside the source";
  check t pa len;
  let off = Int64.to_int pa in
  let done_ = ref 0 in
  while !done_ < len do
    let a = off + !done_ in
    let n = min (len - !done_) (page - (a land mask)) in
    Bytes.blit b (pos + !done_) (owned t (a lsr Arch.page_shift)) (a land mask) n;
    done_ := !done_ + n
  done;
  if len > 0 then notify_range t off len

let frame_index t ppn =
  let i = Int64.to_int ppn in
  if i < 0 || i >= t.frames then
    invalid_arg (Printf.sprintf "Phys_mem: frame %Ld out of range" ppn);
  i

let notify_frame t ppn =
  match t.listeners with
  | [] -> ()
  | _ -> notify_frame_range t (Int64.to_int ppn) ~lo:0 ~hi:page

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
