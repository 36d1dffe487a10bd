let extent_bytes = 65536

(* Extent [i] holds the [extent_bytes] bytes from [i * extent_bytes]
   (fewer in a short last extent) and stays [Bytes.empty], read as
   zeros, until its first write. *)
type t = { len : int; extents : Bytes.t array }

let create ~bytes =
  if bytes < 0 then invalid_arg "Backing.create: negative size";
  { len = bytes; extents = Array.make ((bytes + extent_bytes - 1) / extent_bytes) Bytes.empty }

let length t = t.len
let resident_bytes t = Array.fold_left (fun acc e -> acc + Bytes.length e) 0 t.extents

let resident_digest t =
  let module Fnv = Velum_util.Fnv in
  let h = ref Fnv.offset_basis in
  Array.iteri
    (fun i e ->
      if Bytes.length e > 0 then h := Fnv.combine (Fnv.combine !h (Int64.of_int i)) (Fnv.hash_bytes e))
    t.extents;
  !h

let copy t = { t with extents = Array.map Bytes.copy t.extents }

(* Overflow-free: [off + len] is never formed. *)
let in_range t ~off ~len = off >= 0 && len >= 0 && off <= t.len - len

let check t ~off ~len what = if not (in_range t ~off ~len) then invalid_arg what

let check_buf blen ~pos ~len what =
  if pos < 0 || len < 0 || pos > blen - len then invalid_arg what

(* [walk ~off ~len f] calls [f i eoff p n] for each extent [i] that
   [off .. off+len-1] touches: [n] bytes at [eoff] within the extent,
   which are bytes [p .. p+n-1] of the range.  The caller has checked
   the range. *)
let walk ~off ~len f =
  let p = ref 0 in
  while !p < len do
    let o = off + !p in
    let eoff = o mod extent_bytes in
    let n = min (len - !p) (extent_bytes - eoff) in
    f (o / extent_bytes) eoff !p n;
    p := !p + n
  done

let writable t i =
  let e = t.extents.(i) in
  if Bytes.length e > 0 then e
  else begin
    let e = Bytes.make (min extent_bytes (t.len - (i * extent_bytes))) '\000' in
    t.extents.(i) <- e;
    e
  end

let sub t ~off ~len =
  check t ~off ~len "Backing.sub: out of range";
  let r = Bytes.create len in
  walk ~off ~len (fun i eoff p n ->
      let e = t.extents.(i) in
      if Bytes.length e = 0 then Bytes.fill r p n '\000' else Bytes.blit e eoff r p n);
  r

let sub_string t ~off ~len = Bytes.unsafe_to_string (sub t ~off ~len)

(* Read by every unwritten extent's view; nothing writes it.  Made on
   first use, as a [lazy] would be, but published through an [Atomic]:
   domains verifying against one device at once may each make one, and
   any of them serves, where forcing one [lazy] from two domains raises
   [CamlinternalLazy.Undefined].  (Made at start-up instead, its 64 KiB
   move every program's heap, and with it the benchmark's
   [peak_rss_mb].) *)
let zero_extent = Atomic.make Bytes.empty

let view t i =
  let e = t.extents.(i) in
  if Bytes.length e > 0 then e
  else
    let z = Atomic.get zero_extent in
    if Bytes.length z > 0 then z
    else begin
      let z = Bytes.make extent_bytes '\000' in
      Atomic.set zero_extent z;
      z
    end

(* One or two spans for a range of at most [extent_bytes], so a loop
   rather than [walk]: no closure per call. *)
let equal_by t ~off ~len eq =
  check t ~off ~len "Backing.equal_by: out of range";
  let p = ref 0 and ok = ref true in
  while !ok && !p < len do
    let o = off + !p in
    let eoff = o mod extent_bytes in
    let n = min (len - !p) (extent_bytes - eoff) in
    ok := eq (view t (o / extent_bytes)) eoff !p n;
    p := !p + n
  done;
  !ok

let equal_range t ~off b ~pos ~len =
  check_buf (Bytes.length b) ~pos ~len "Backing.equal_range: buffer out of range";
  equal_by t ~off ~len (fun e eoff p n -> Velum_util.Fnv.equal_range e eoff b (pos + p) n)

let blit_from t ~off src ~pos ~len =
  check t ~off ~len "Backing.blit_from: out of range";
  check_buf (Bytes.length src) ~pos ~len "Backing.blit_from: buffer out of range";
  walk ~off ~len (fun i eoff p n -> Bytes.blit src (pos + p) (writable t i) eoff n)

let copy_within t ~src ~dst ~len =
  check t ~off:src ~len "Backing.copy_within: source out of range";
  check t ~off:dst ~len "Backing.copy_within: destination out of range";
  if len > 0 && src < dst + len && dst < src + len then
    invalid_arg "Backing.copy_within: overlapping ranges";
  walk ~off:src ~len (fun i eoff p n ->
      let e = view t i in
      walk ~off:(dst + p) ~len:n (fun j doff q m -> Bytes.blit e (eoff + q) (writable t j) doff m))

let blit_from_string t ~off s =
  let len = String.length s in
  check t ~off ~len "Backing.blit_from_string: out of range";
  walk ~off ~len (fun i eoff p n -> Bytes.blit_string s p (writable t i) eoff n)
