open Velum_devices
module Fault = Velum_util.Fault
module Fnv = Velum_util.Fnv
module Rng = Velum_util.Rng

let sb_magic = 0x56454C53544F5232L (* "VELSTOR2" *)
let chunk_magic = 0x56454C43484E4B32L (* "VELCHNK2" *)
let manifest_magic = 0x56454C4D4E465332L (* "VELMNFS2" *)
let catalog_magic = 0x56454C43544C4732L (* "VELCTLG2" *)
let reftable_magic = 0x56454C5245465432L (* "VELREFT2" *)
let sb_bytes = 72
let chunk_header = 24
let chunk_payload = 4096
let data_start_sector = 2
let data_start = data_start_sector * Blockdev.sector_bytes

(* Tables keyed by content hash: FNV digests are well mixed in their
   low bits. *)
module Keytbl = Velum_util.Keytbl

(* A chunk the in-memory index knows about: where the newest clean copy
   of this content lives in the active space. *)
type chunk = { c_off : int; c_len : int }

(* One committed generation of one stream: an ordered list of chunk
   references that reassembles the full snapshot image. *)
type manifest = {
  m_stream : string;
  m_gen : int;
  m_entries : Bytes.t;
      (* the manifest record's entry span: [entry_bytes] per chunk, its
         content hash, absolute off and len *)
  m_image_len : int;
  m_root : int64; (* FNV fold of the entries' payload hashes, in order *)
  m_rows : Bytes.t;
      (* the references the manifest holds, as refcount rows: each
         distinct hash of its entries with its number of entries *)
  m_off : int; (* absolute device offset of this manifest record *)
  m_len : int;
}

type t = {
  blk : Blockdev.t;
  space_bytes : int;
  mutable faults : Fault.t;
  mutable seq : int; (* global commit sequence (superblock flips) *)
  mutable space : int; (* active log space, 0 or 1 *)
  mutable head : int; (* append offset relative to the space start *)
  index : chunk Keytbl.I64.t;
  streams : (string, manifest) Hashtbl.t; (* newest manifest per stream *)
  mutable catalogs : manifest list list; (* newest-first, at most 2 *)
  mutable refs : Bytes.t;
      (* the refcount table's rows: references the distinct manifests
         of [catalogs] hold on each content hash, in hash order *)
  mutable commits : int;
  mutable torn : int;
  mutable bytes_written : int;
  mutable logical_bytes : int;
  mutable gc_runs : int;
  mutable torn_gc : int;
  mutable ref_rebuilds : int;
  mutable hint_misses : int;
  mutable scratch : Bytes.t; (* refcount merges build their rows here *)
}

let device t = t.blk
let set_faults t f = t.faults <- f
let generation t = t.seq
let commits t = t.commits
let torn_commits t = t.torn
let bytes_written t = t.bytes_written
let logical_bytes t = t.logical_bytes
let gc_runs t = t.gc_runs
let torn_gc t = t.torn_gc
let ref_rebuilds t = t.ref_rebuilds
let hint_misses t = t.hint_misses
let chunk_bytes = chunk_payload

type source = {
  length : int;
  blit : pos:int -> Bytes.t -> off:int -> len:int -> unit;
  equal : pos:int -> Bytes.t -> off:int -> len:int -> bool;
  clean : (int * (int -> bool)) option;
}

let of_bytes b =
  {
    length = Bytes.length b;
    blit = (fun ~pos dst ~off ~len -> Bytes.blit b pos dst off len);
    equal = (fun ~pos other ~off ~len -> Fnv.equal_range b pos other off len);
    clean = None;
  }

(* --- in-memory tables in the on-device record layouts --- *)

(* Bounds-checked primitives, compiled inline: no call, and a word
   consumed at once is never boxed.  Native order is the records'
   little-endian order on the little-endian hosts [Fnv] requires. *)
external put_i64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external get_i64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

(* Unchecked, for the sort and merge loops below: each bounds its
   indices by the buffers' lengths, and a check per access would double
   their cost. *)
external put_i64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get_i64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Manifest entries, as a manifest record stores them. *)
let entry_bytes = 24
let[@inline] ent_count e = Bytes.length e / entry_bytes
let[@inline] ent_hash e i = get_i64 e (entry_bytes * i)
let[@inline] ent_off e i = Int64.to_int (get_i64 e ((entry_bytes * i) + 8))
let[@inline] ent_len e i = Int64.to_int (get_i64 e ((entry_bytes * i) + 16))

let set_entry e i h ~off ~len =
  let p = entry_bytes * i in
  put_i64 e p h;
  put_i64 e (p + 8) (Int64.of_int off);
  put_i64 e (p + 16) (Int64.of_int len)

(* Refcount rows, as the refcount table record stores them: content
   hash, count.  The same layout carries a commit's signed deltas. *)
let row_bytes = 16
let[@inline] row_count r = Bytes.length r / row_bytes
let[@inline] row_hash r i = get_i64 r (row_bytes * i)
let[@inline] row_value r i = Int64.to_int (get_i64 r ((row_bytes * i) + 8))

let merkle_root e =
  let h = ref Fnv.offset_basis in
  for i = 0 to ent_count e - 1 do
    h := Fnv.combine !h (ent_hash e i)
  done;
  !h

let chunks_live t = row_count t.refs

let refcount t h =
  let lo = ref 0 and hi = ref (row_count t.refs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if row_hash t.refs mid < h then lo := mid + 1 else hi := mid
  done;
  if !lo < row_count t.refs && Int64.equal (row_hash t.refs !lo) h then row_value t.refs !lo
  else 0

let stream_generation ?(id = "") t =
  match Hashtbl.find_opt t.streams id with Some m -> m.m_gen | None -> 0

let commit_cycles ~bytes = Int64.of_int ((2 * 2_000) + (2 * bytes))

let fleet_sectors_for ~streams ~image_bytes =
  let nchunks = max 1 ((image_bytes + chunk_payload - 1) / chunk_payload) in
  let d = nchunks * (chunk_header + chunk_payload) in
  let manifest = 128 + (24 * nchunks) in
  let catalog = 32 + (streams * 96) in
  let reftable = 32 + (16 * 2 * streams * nchunks) in
  let space =
    (streams * ((2 * d) + (4 * manifest)))
    + (4 * (catalog + reftable))
    + 65536
  in
  let space_sectors =
    (space + Blockdev.sector_bytes - 1) / Blockdev.sector_bytes
  in
  data_start_sector + (2 * space_sectors)

let sectors_for ~image_bytes = fleet_sectors_for ~streams:1 ~image_bytes

(* --- on-device records --- *)

let space_off t s = data_start + (s * t.space_bytes)
let sb_off slot = slot * Blockdev.sector_bytes

let superblock ~seq ~space ~head ~cat_off ~cat_len ~ref_off ~ref_len =
  let b = Bytes.create sb_bytes in
  put_i64 b 0 sb_magic;
  put_i64 b 8 (Int64.of_int seq);
  put_i64 b 16 (Int64.of_int space);
  put_i64 b 24 (Int64.of_int head);
  put_i64 b 32 (Int64.of_int cat_off);
  put_i64 b 40 (Int64.of_int cat_len);
  put_i64 b 48 (Int64.of_int ref_off);
  put_i64 b 56 (Int64.of_int ref_len);
  put_i64 b 64 (Fnv.hash_bytes ~pos:0 ~len:64 b);
  b

(* One record of a write stream: bytes built in memory, or a chunk
   record — a header made from its hash and length, then a payload read
   when the stream is written: copied on the device from the record at
   [from] (GC), or read from the image [src] being committed at [pos]. *)
type piece =
  | Raw of Bytes.t
  | Moved of { hash : int64; from : int; len : int }
  | Fresh of { hash : int64; src : source; pos : int; len : int }

let piece_len = function
  | Raw b -> Bytes.length b
  | Moved { len; _ } | Fresh { len; _ } -> chunk_header + len

let manifest_len m = 48 + String.length m.m_stream + Bytes.length m.m_entries + 8

let manifest_bytes m =
  let nlen = String.length m.m_stream in
  let total = manifest_len m in
  let b = Bytes.create total in
  put_i64 b 0 manifest_magic;
  put_i64 b 8 (Int64.of_int nlen);
  put_i64 b 16 (Int64.of_int (ent_count m.m_entries));
  put_i64 b 24 (Int64.of_int m.m_image_len);
  put_i64 b 32 m.m_root;
  put_i64 b 40 (Int64.of_int m.m_gen);
  Bytes.blit_string m.m_stream 0 b 48 nlen;
  Bytes.blit m.m_entries 0 b (48 + nlen) (Bytes.length m.m_entries);
  put_i64 b (total - 8) (Fnv.hash_bytes ~pos:0 ~len:(total - 8) b);
  b

(* Catalog: the stream directory — name, per-stream generation, and the
   absolute location of each stream's newest manifest.  Serialized in
   stream-name order for byte determinism. *)
let catalog_bytes ms =
  let ms = List.sort (fun a b -> compare a.m_stream b.m_stream) ms in
  let body =
    List.fold_left (fun acc m -> acc + 8 + String.length m.m_stream + 24) 0 ms
  in
  let total = 16 + body + 8 in
  let b = Bytes.create total in
  put_i64 b 0 catalog_magic;
  put_i64 b 8 (Int64.of_int (List.length ms));
  let p = ref 16 in
  List.iter
    (fun m ->
      let nlen = String.length m.m_stream in
      put_i64 b !p (Int64.of_int nlen);
      Bytes.blit_string m.m_stream 0 b (!p + 8) nlen;
      put_i64 b (!p + 8 + nlen) (Int64.of_int m.m_gen);
      put_i64 b (!p + 16 + nlen) (Int64.of_int m.m_off);
      put_i64 b (!p + 24 + nlen) (Int64.of_int m.m_len);
      p := !p + 32 + nlen)
    ms;
  put_i64 b (total - 8) (Fnv.hash_bytes ~pos:0 ~len:(total - 8) b);
  b

let reftable_bytes rows =
  let total = 16 + Bytes.length rows + 8 in
  let b = Bytes.create total in
  put_i64 b 0 reftable_magic;
  put_i64 b 8 (Int64.of_int (row_count rows));
  Bytes.blit rows 0 b 16 (Bytes.length rows);
  put_i64 b (total - 8) (Fnv.hash_bytes ~pos:0 ~len:(total - 8) b);
  b

(* [keys] (8-byte content hashes) in signed order: a bottom-up merge
   sort into a second buffer and back, so no hash is boxed. *)
let sort_keys keys =
  let n = Bytes.length keys / 8 in
  let a = ref keys and b = ref (Bytes.create (8 * n)) in
  let w = ref 1 in
  while !w < n do
    let src = !a and dst = !b in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !w) and hi = min n (!lo + (2 * !w)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !j >= hi || (!i < mid && get_i64u src (8 * !i) <= get_i64u src (8 * !j)) then begin
          put_i64u dst (8 * k) (get_i64u src (8 * !i));
          incr i
        end
        else begin
          put_i64u dst (8 * k) (get_i64u src (8 * !j));
          incr j
        end
      done;
      lo := hi
    done;
    a := dst;
    b := src;
    w := 2 * !w
  done;
  !a

(* The refcount rows of entries [e]: each distinct hash with the number
   of entries that hold it. *)
let rows_of_entries e =
  let keys = Bytes.create (8 * ent_count e) in
  for i = 0 to ent_count e - 1 do
    put_i64 keys (8 * i) (ent_hash e i)
  done;
  let keys = sort_keys keys in
  let n = Bytes.length keys / 8 in
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || not (Int64.equal (get_i64u keys (8 * i)) (get_i64u keys (8 * (i - 1)))) then
      incr distinct
  done;
  let rows = Bytes.create (row_bytes * !distinct) in
  let k = ref (-1) and c = ref 0 in
  for i = 0 to n - 1 do
    let h = get_i64u keys (8 * i) in
    if !k >= 0 && Int64.equal h (get_i64u rows (row_bytes * !k)) then incr c
    else begin
      if !k >= 0 then put_i64u rows ((row_bytes * !k) + 8) (Int64.of_int !c);
      incr k;
      put_i64u rows (row_bytes * !k) h;
      c := 1
    end
  done;
  if !k >= 0 then put_i64u rows ((row_bytes * !k) + 8) (Int64.of_int !c);
  rows

(* Row [k] of [out] is [(h, n)] if [n] is kept: above 0, or below it
   too when [signed].  The next free row. *)
let[@inline] emit out k ~signed h n =
  if n > 0 || (signed && n < 0) then begin
    put_i64u out (row_bytes * k) h;
    put_i64u out ((row_bytes * k) + 8) (Int64.of_int n);
    k + 1
  end
  else k

(* [rows] with [sign] times the value of each hash-ordered row of
   [changes] added; a row that ends at 0 drops out, and so does one
   below 0 unless [signed].  One pass into [out], which holds a row per
   row of both, then a trimmed copy. *)
let merge_in out ~sign ~signed rows changes =
  let nr = row_count rows and nc = row_count changes in
  let[@inline] hash r i = get_i64u r (row_bytes * i) in
  let[@inline] value r i = Int64.to_int (get_i64u r ((row_bytes * i) + 8)) in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < nr || !j < nc do
    if !j >= nc || (!i < nr && hash rows !i < hash changes !j) then begin
      k := emit out !k ~signed (hash rows !i) (value rows !i);
      incr i
    end
    else if !i >= nr || hash rows !i > hash changes !j then begin
      k := emit out !k ~signed (hash changes !j) (sign * value changes !j);
      incr j
    end
    else begin
      k := emit out !k ~signed (hash rows !i) (value rows !i + (sign * value changes !j));
      incr i;
      incr j
    end
  done;
  Bytes.sub out 0 (row_bytes * !k)

let merge_rows rows changes =
  let out = Bytes.create (row_bytes * (row_count rows + row_count changes)) in
  merge_in out ~sign:1 ~signed:false rows changes

(* [merge_in] through the store's scratch buffer, grown on demand: a
   commit's merges allocate only their trimmed results. *)
let merge t ~sign ~signed rows changes =
  let need = row_bytes * (row_count rows + row_count changes) in
  if Bytes.length t.scratch < need then t.scratch <- Bytes.create (2 * need);
  merge_in t.scratch ~sign ~signed rows changes

(* References held on each content hash by the distinct manifests of the
   (at most two) recoverable catalogs, as rows.  Identity is the
   manifest's device offset; counts are per entry occurrence. *)
let refs_of_catalogs t catalogs =
  let seen = ref [] in
  List.fold_left
    (List.fold_left (fun rows m ->
         if List.mem m.m_off !seen then rows
         else begin
           seen := m.m_off :: !seen;
           merge t ~sign:1 ~signed:false rows m.m_rows
         end))
    Bytes.empty catalogs

(* --- commit planning --- *)

type plan = {
  p_gen : int;
  p_new : (int * piece) list; (* absolute off, [Fresh] chunk record *)
  p_shared : int;
  p_misses : int; (* hinted chunks the verify refused *)
  p_rotted : int; (* refused verifies whose stored payload rotted *)
  p_manifest : manifest;
  p_catalog : manifest list;
  p_refs : Bytes.t; (* the refcount table's rows once committed *)
  p_cat_off : int;
  p_cat_b : Bytes.t;
  p_ref_off : int;
  p_ref_b : Bytes.t;
  p_data_len : int; (* bytes this commit appends into the space *)
  p_rot_len : int; (* chunk+manifest+catalog span (store.csum rot region) *)
  p_total : int; (* p_data_len + sb_bytes *)
}

(* The stream's current manifest entries and the source's clean test,
   when the source proves chunks unchanged since that generation; chunk
   [i] then reuses entry [i]'s hash if the lengths agree. *)
let hint_for t ~id src =
  match (src.clean, Hashtbl.find_opt t.streams id) with
  | Some (gen, clean), Some m when m.m_gen = gen -> (m.m_entries, clean)
  | _ -> (Bytes.empty, fun _ -> false)

(* Refcount change of a commit whose catalog adds manifest [m], as
   hash-ordered nonzero [(hash, delta)] rows: the window of recoverable
   catalogs becomes the newest one plus [m], so [m]'s entries gain a
   reference and the manifests only the older catalog held lose theirs.
   A merge of the manifests' own rows, each sorted once when its
   manifest was made. *)
let refs_delta t m =
  match t.catalogs with
  | [ newest; older ] ->
      List.fold_left
        (fun delta o ->
          if List.exists (fun n -> n.m_off = o.m_off) newest then delta
          else merge t ~sign:(-1) ~signed:true delta o.m_rows)
        m.m_rows older
  | _ -> m.m_rows

let plan_commit t ~id src =
  let len = src.length in
  let nchunks = max 0 ((len + chunk_payload - 1) / chunk_payload) in
  let base = space_off t t.space in
  let cursor = ref t.head in
  let pending = Keytbl.I64.create 16 in
  (* hash -> image offset, length and absolute off of the first new chunk
     with that content *)
  let news = ref [] and shared = ref 0 and misses = ref 0 and rotted = ref 0 in
  let prev, clean = hint_for t ~id src in
  let buf = Bytes.create chunk_payload in
  (* The absolute off of a copy of the chunk's [plen] bytes already in
     this commit or the store, or -1 — after a byte-compare verify:
     content-hash equality is not content equality, and a rotted stored
     copy must not be re-referenced.  The chunk is [buf]'s first [plen]
     bytes, or with [in_place] the source's bytes from [pos], compared
     where they lie.  A refused stored copy whose payload no longer
     hashes to its record's hash is rot; a collision or a lying hint
     leaves it intact. *)
  let lookup ~in_place ~pos h plen =
    match Keytbl.I64.find_opt pending h with
    | Some (ppos, plen', off)
      when plen' >= plen
           &&
           (* a pending copy is the source's own bytes: rare for a clean
              chunk, which then takes the buffer after all *)
           (if in_place then src.blit ~pos buf ~off:0 ~len:plen;
            src.equal ~pos:ppos buf ~off:0 ~len:plen) ->
        off
    | _ -> (
        match Keytbl.I64.find_opt t.index h with
        | Some c when c.c_len = plen ->
            let at = c.c_off + chunk_header in
            if
              if in_place then
                Blockdev.pequal_by t.blk ~off:at ~len:plen (fun e eoff p n ->
                    src.equal ~pos:(pos + p) e ~off:eoff ~len:n)
              else Blockdev.pequal t.blk ~off:at buf ~pos:0 ~len:plen
            then c.c_off
            else begin
              if Fnv.hash_bytes (Blockdev.pread t.blk ~off:at ~len:plen) <> h then incr rotted;
              -1
            end
        | _ -> -1)
  in
  let entries = Bytes.create (entry_bytes * nchunks) in
  for i = 0 to nchunks - 1 do
    let pos = i * chunk_payload in
    let plen = min chunk_payload (len - pos) in
    let h = ref 0L and off = ref (-1) in
    if i < ent_count prev && ent_len prev i = plen && clean i then begin
      (* A clean chunk skips only the hash: the lookup and its verify run
         as for any other chunk, in place, so [buf] is filled only when
         the verify refuses. *)
      h := ent_hash prev i;
      off := lookup ~in_place:true ~pos !h plen;
      if !off < 0 then begin
        incr misses;
        src.blit ~pos buf ~off:0 ~len:plen;
        let h' = Fnv.hash_bytes ~pos:0 ~len:plen buf in
        if not (Int64.equal h' !h) then off := lookup ~in_place:false ~pos h' plen;
        h := h'
      end
    end
    else begin
      src.blit ~pos buf ~off:0 ~len:plen;
      h := Fnv.hash_bytes ~pos:0 ~len:plen buf;
      off := lookup ~in_place:false ~pos !h plen
    end;
    if !off >= 0 then incr shared
    else begin
      off := base + !cursor;
      let piece = Fresh { hash = !h; src; pos; len = plen } in
      news := (!off, piece) :: !news;
      if not (Keytbl.I64.mem pending !h) then Keytbl.I64.replace pending !h (pos, plen, !off);
      cursor := !cursor + piece_len piece
    end;
    set_entry entries i !h ~off:!off ~len:plen
  done;
  let p_gen = stream_generation ~id t + 1 in
  let m_off = base + !cursor in
  let m0 =
    {
      m_stream = id;
      m_gen = p_gen;
      m_entries = entries;
      m_image_len = len;
      m_root = merkle_root entries;
      m_rows = rows_of_entries entries;
      m_off;
      m_len = 0;
    }
  in
  let m = { m0 with m_len = manifest_len m0 } in
  cursor := !cursor + m.m_len;
  let catalog =
    m
    :: Hashtbl.fold
         (fun name m' acc -> if name = id then acc else m' :: acc)
         t.streams []
  in
  let p_cat_off = base + !cursor in
  let p_cat_b = catalog_bytes catalog in
  cursor := !cursor + Bytes.length p_cat_b;
  let p_refs = merge t ~sign:1 ~signed:false t.refs (refs_delta t m) in
  let p_ref_off = base + !cursor in
  let p_ref_b = reftable_bytes p_refs in
  cursor := !cursor + Bytes.length p_ref_b;
  let p_data_len = !cursor - t.head in
  {
    p_gen;
    p_new = List.rev !news;
    p_shared = !shared;
    p_misses = !misses;
    p_rotted = !rotted;
    p_manifest = m;
    p_catalog = catalog;
    p_refs;
    p_cat_off;
    p_cat_b;
    p_ref_off;
    p_ref_b;
    p_data_len;
    p_rot_len = p_ref_off - (base + t.head);
    p_total = p_data_len + sb_bytes;
  }

let commit_bytes ?(id = "") t src = (plan_commit t ~id src).p_total

(* --- the write stream, cut at an arbitrary byte offset on a crash --- *)

let stream_writes t writes ~cut =
  let rec_b = Bytes.create (chunk_header + chunk_payload) in
  let header hash len =
    put_i64 rec_b 0 chunk_magic;
    put_i64 rec_b 8 hash;
    put_i64 rec_b 16 (Int64.of_int len)
  in
  (* the first [n] bytes of [piece], at [off] *)
  let write off piece n =
    match piece with
    | Raw b -> Blockdev.pwrite t.blk ~off b ~pos:0 ~len:n
    | Moved { hash; from; len } ->
        header hash len;
        Blockdev.pwrite t.blk ~off rec_b ~pos:0 ~len:(min n chunk_header);
        if n > chunk_header then
          Blockdev.pcopy t.blk ~src:(from + chunk_header) ~dst:(off + chunk_header)
            ~len:(n - chunk_header)
    | Fresh { hash; src; pos; len } ->
        header hash len;
        src.blit ~pos rec_b ~off:chunk_header ~len;
        Blockdev.pwrite t.blk ~off rec_b ~pos:0 ~len:n
  in
  match cut with
  | None -> List.iter (fun (off, piece) -> write off piece (piece_len piece)) writes
  | Some cut ->
      (* Power fails after [cut] bytes: the prefix lands, the rest never
         reaches the device. *)
      let budget = ref cut in
      List.iter
        (fun (off, piece) ->
          let n = min !budget (piece_len piece) in
          if n > 0 then write off piece n;
          budget := !budget - n)
        writes

let rot_bit t ~off ~len =
  let rng = Fault.rng t.faults in
  let off = off + Rng.int rng len in
  let b = Blockdev.pread t.blk ~off ~len:1 in
  Bytes.set b 0
    (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl Rng.int rng 8)));
  Blockdev.pwrite t.blk ~off b ~pos:0 ~len:1

type outcome =
  | Committed of { gen : int; bytes : int; chunks_new : int; chunks_shared : int }
  | Torn of int

type gc_outcome =
  | Gc_committed of { bytes : int; live_chunks : int; reclaimed : int }
  | Gc_torn of int

(* --- GC compaction: copy live chunks into the other space, flip --- *)

type gc_plan = {
  g_writes : (int * piece) list;
  g_manifests : (string * manifest) list;
  g_refs : Bytes.t;
  g_head : int;
  g_live : int;
  g_total : int;
}

let plan_gc t =
  let target = 1 - t.space in
  let base = space_off t target in
  let streams =
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.streams []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let reloc = Keytbl.Int.create 64 in
  (* old absolute off -> new absolute off *)
  let cursor = ref 0 in
  let writes = ref [] in
  List.iter
    (fun (_, m) ->
      let e = m.m_entries in
      for i = 0 to ent_count e - 1 do
        let off = ent_off e i in
        if not (Keytbl.Int.mem reloc off) then begin
          (* Copy the payload raw: a rotted payload keeps its original
             hash in the record so recovery still detects the rot after
             compaction.  The header comes from the entry, so a rotted
             header comes out whole. *)
          let piece = Moved { hash = ent_hash e i; from = off; len = ent_len e i } in
          Keytbl.Int.replace reloc off (base + !cursor);
          writes := (base + !cursor, piece) :: !writes;
          cursor := !cursor + piece_len piece
        end
      done)
    streams;
  let live = Keytbl.Int.length reloc in
  let manifests =
    List.map
      (fun (name, m) ->
        let entries = Bytes.copy m.m_entries in
        for i = 0 to ent_count entries - 1 do
          set_entry entries i (ent_hash entries i)
            ~off:(Keytbl.Int.find reloc (ent_off entries i))
            ~len:(ent_len entries i)
        done;
        let m' = { m with m_entries = entries; m_off = base + !cursor } in
        let b = manifest_bytes m' in
        let m' = { m' with m_len = Bytes.length b } in
        writes := (m'.m_off, Raw b) :: !writes;
        cursor := !cursor + Bytes.length b;
        (name, m'))
      streams
  in
  let cat_b = catalog_bytes (List.map snd manifests) in
  let cat_off = base + !cursor in
  writes := (cat_off, Raw cat_b) :: !writes;
  cursor := !cursor + Bytes.length cat_b;
  let refs = refs_of_catalogs t [ List.map snd manifests ] in
  let ref_b = reftable_bytes refs in
  let ref_off = base + !cursor in
  writes := (ref_off, Raw ref_b) :: !writes;
  cursor := !cursor + Bytes.length ref_b;
  let seq = t.seq + 1 in
  let sb =
    superblock ~seq ~space:target ~head:!cursor ~cat_off ~cat_len:(Bytes.length cat_b)
      ~ref_off ~ref_len:(Bytes.length ref_b)
  in
  writes := (sb_off (seq mod 2), Raw sb) :: !writes;
  {
    g_writes = List.rev !writes;
    g_manifests = manifests;
    g_refs = refs;
    g_head = !cursor;
    g_live = live;
    g_total = !cursor + sb_bytes;
  }

let gc_bytes t = (plan_gc t).g_total

let gc ?crash_at t =
  let p = plan_gc t in
  let cut =
    match crash_at with
    | Some n -> Some (max 0 (min n (p.g_total - 1)))
    | None ->
        if Fault.fire t.faults Fault.Store_gc ~now:(Int64.of_int t.commits) then
          Some (Rng.int (Fault.rng t.faults) p.g_total)
        else None
  in
  stream_writes t p.g_writes ~cut;
  match cut with
  | Some cut ->
      (* The pre-GC space and its superblocks were never touched, so the
         store's in-memory view — and a remount — still see the old truth. *)
      t.torn_gc <- t.torn_gc + 1;
      t.bytes_written <- t.bytes_written + cut;
      Gc_torn cut
  | None ->
      let reclaimed = max 0 (t.head - p.g_head) in
      t.seq <- t.seq + 1;
      t.space <- 1 - t.space;
      t.head <- p.g_head;
      Keytbl.I64.reset t.index;
      List.iter
        (fun (_, m) ->
          let e = m.m_entries in
          for i = 0 to ent_count e - 1 do
            Keytbl.I64.replace t.index (ent_hash e i) { c_off = ent_off e i; c_len = ent_len e i }
          done)
        p.g_manifests;
      t.refs <- p.g_refs;
      Hashtbl.reset t.streams;
      List.iter (fun (name, m) -> Hashtbl.replace t.streams name m) p.g_manifests;
      t.catalogs <- [ List.map snd p.g_manifests ];
      t.gc_runs <- t.gc_runs + 1;
      t.bytes_written <- t.bytes_written + p.g_total;
      Gc_committed { bytes = p.g_total; live_chunks = p.g_live; reclaimed }

(* --- commit --- *)

let do_commit ?crash_at t ~id ~plan:p =
  let seq = t.seq + 1 in
  let sb =
    superblock ~seq ~space:t.space ~head:(t.head + p.p_data_len)
      ~cat_off:p.p_cat_off ~cat_len:(Bytes.length p.p_cat_b) ~ref_off:p.p_ref_off
      ~ref_len:(Bytes.length p.p_ref_b)
  in
  let writes =
    p.p_new
    @ [
        (p.p_manifest.m_off, Raw (manifest_bytes p.p_manifest));
        (p.p_cat_off, Raw p.p_cat_b);
        (p.p_ref_off, Raw p.p_ref_b);
        (sb_off (seq mod 2), Raw sb);
      ]
  in
  let cut =
    match crash_at with
    | Some n -> Some (max 0 (min n (p.p_total - 1)))
    | None ->
        (* [now] for window-style plans is the commit ordinal, so a plan
           can also say "power fails during commit 3". *)
        if Fault.fire t.faults Fault.Store_torn ~now:(Int64.of_int t.commits)
        then Some (Rng.int (Fault.rng t.faults) p.p_total)
        else None
  in
  stream_writes t writes ~cut;
  t.hint_misses <- t.hint_misses + p.p_misses;
  for _ = 1 to p.p_rotted do
    Fault.observe t.faults Fault.Store_csum
  done;
  match cut with
  | Some cut ->
      (* The in-memory generation is deliberately not advanced — a real
         crash loses it anyway; [mount] re-derives the truth from the
         device. *)
      t.torn <- t.torn + 1;
      t.bytes_written <- t.bytes_written + cut;
      Torn cut
  | None ->
      t.bytes_written <- t.bytes_written + p.p_total;
      t.logical_bytes <- t.logical_bytes + p.p_manifest.m_image_len;
      let start = space_off t t.space + t.head in
      (if Fault.fire t.faults Fault.Store_csum ~now:(Int64.of_int t.commits)
       then
         (* Latent rot: flip one bit of this commit's chunk/manifest/
            catalog records so the next scan must detect it and fall back
            a generation.  Confined to the new records: rotting a chunk
            shared with older generations would (correctly, but uselessly
            for the model) take them all down at once. *)
         rot_bit t ~off:start ~len:p.p_rot_len);
      (if Fault.fire t.faults Fault.Store_ref ~now:(Int64.of_int t.commits)
       then
         (* A lost refcount update: rot the just-written refcount table;
            the next mount must spot the mismatch and rebuild from the
            live manifests. *)
         rot_bit t ~off:p.p_ref_off ~len:(Bytes.length p.p_ref_b));
      t.seq <- seq;
      t.head <- t.head + p.p_data_len;
      List.iter
        (function
          | off, Fresh { hash; len; _ } -> Keytbl.I64.replace t.index hash { c_off = off; c_len = len }
          | _ -> ())
        p.p_new;
      t.refs <- p.p_refs;
      Hashtbl.replace t.streams id p.p_manifest;
      let prev = match t.catalogs with c :: _ -> [ c ] | [] -> [] in
      t.catalogs <- p.p_catalog :: prev;
      t.commits <- t.commits + 1;
      Committed
        {
          gen = p.p_gen;
          bytes = p.p_total;
          chunks_new = List.length p.p_new;
          chunks_shared = p.p_shared;
        }

let commit ?crash_at ?(id = "") t src =
  let p = plan_commit t ~id src in
  if t.head + p.p_data_len <= t.space_bytes then
    do_commit ?crash_at t ~id ~plan:p
  else
    (* The active space is full: compact live chunks into the other
       space first.  A power cut during that compaction loses nothing —
       the commit is reported torn and the pre-GC state still rules. *)
    match gc t with
    | Gc_torn cut ->
        t.torn <- t.torn + 1;
        Torn cut
    | Gc_committed _ ->
        let p = plan_commit t ~id src in
        if t.head + p.p_data_len > t.space_bytes then
          invalid_arg "Store.commit: image does not fit a space even after GC";
        do_commit ?crash_at t ~id ~plan:p

(* --- recovery scan --- *)

(* A candidate: one superblock slot whose structure — superblock,
   catalog, every manifest — validates end to end.  Chunk payloads are
   only re-read when a stream is actually reconstructed. *)
type cand = {
  k_seq : int;
  k_space : int;
  k_head : int;
  k_streams : (string * manifest) list;
  k_ref_off : int;
  k_ref_len : int;
}

exception Bad of Fault.site

let capacity t = Blockdev.capacity_bytes t.blk

let parse_manifest t ~stream ~gen ~off ~len =
  if len < 56 || off < data_start || off + len > capacity t then
    raise (Bad Fault.Store_torn);
  let b = Blockdev.pread t.blk ~off ~len in
  if get_i64 b 0 <> manifest_magic then raise (Bad Fault.Store_torn);
  let nlen = Int64.to_int (get_i64 b 8) in
  let n = Int64.to_int (get_i64 b 16) in
  let image_len = Int64.to_int (get_i64 b 24) in
  if
    nlen < 0 || n < 0 || image_len < 0
    || 48 + nlen + (24 * n) + 8 <> len
    || Int64.to_int (get_i64 b 40) <> gen
  then raise (Bad Fault.Store_torn);
  if get_i64 b (len - 8) <> Fnv.hash_bytes ~pos:0 ~len:(len - 8) b then
    raise (Bad Fault.Store_csum);
  if Bytes.sub_string b 48 nlen <> stream then raise (Bad Fault.Store_torn);
  let entries = Bytes.sub b (48 + nlen) (entry_bytes * n) in
  for i = 0 to n - 1 do
    let coff = ent_off entries i and clen = ent_len entries i in
    if
      coff < data_start || clen <= 0 || clen > chunk_payload
      || coff + chunk_header + clen > capacity t
    then raise (Bad Fault.Store_torn)
  done;
  {
    m_stream = stream;
    m_gen = gen;
    m_entries = entries;
    m_image_len = image_len;
    m_root = get_i64 b 32;
    m_rows = rows_of_entries entries;
    m_off = off;
    m_len = len;
  }

let parse_catalog t ~off ~len =
  if len < 24 || off < data_start || off + len > capacity t then
    raise (Bad Fault.Store_torn);
  let b = Blockdev.pread t.blk ~off ~len in
  if get_i64 b 0 <> catalog_magic then raise (Bad Fault.Store_torn);
  if get_i64 b (len - 8) <> Fnv.hash_bytes ~pos:0 ~len:(len - 8) b then
    raise (Bad Fault.Store_csum);
  let n = Int64.to_int (get_i64 b 8) in
  if n < 0 || n > len then raise (Bad Fault.Store_torn);
  let p = ref 16 in
  List.init n (fun _ ->
      if !p + 8 > len - 8 then raise (Bad Fault.Store_torn);
      let nlen = Int64.to_int (get_i64 b !p) in
      if nlen < 0 || !p + 32 + nlen > len - 8 then raise (Bad Fault.Store_torn);
      let name = Bytes.sub_string b (!p + 8) nlen in
      let gen = Int64.to_int (get_i64 b (!p + 8 + nlen)) in
      let m_off = Int64.to_int (get_i64 b (!p + 16 + nlen)) in
      let m_len = Int64.to_int (get_i64 b (!p + 24 + nlen)) in
      p := !p + 32 + nlen;
      (name, gen, m_off, m_len))

let read_cand t slot =
  let sb = Blockdev.pread t.blk ~off:(sb_off slot) ~len:sb_bytes in
  if get_i64 sb 0 <> sb_magic then None (* never written; not a fault *)
  else if get_i64 sb 64 <> Fnv.hash_bytes ~pos:0 ~len:64 sb then begin
    Fault.observe t.faults Fault.Store_torn;
    None
  end
  else begin
    let seq = Int64.to_int (get_i64 sb 8) in
    let space = Int64.to_int (get_i64 sb 16) in
    let head = Int64.to_int (get_i64 sb 24) in
    let cat_off = Int64.to_int (get_i64 sb 32) in
    let cat_len = Int64.to_int (get_i64 sb 40) in
    let ref_off = Int64.to_int (get_i64 sb 48) in
    let ref_len = Int64.to_int (get_i64 sb 56) in
    if seq <= 0 || space < 0 || space > 1 || head < 0 || head > t.space_bytes
    then begin
      Fault.observe t.faults Fault.Store_torn;
      None
    end
    else
      try
        let streams =
          parse_catalog t ~off:cat_off ~len:cat_len
          |> List.map (fun (name, gen, m_off, m_len) ->
                 (name, parse_manifest t ~stream:name ~gen ~off:m_off ~len:m_len))
        in
        Some
          { k_seq = seq; k_space = space; k_head = head; k_streams = streams;
            k_ref_off = ref_off; k_ref_len = ref_len }
      with Bad site ->
        Fault.observe t.faults site;
        None
  end

let candidates t =
  List.filter_map (read_cand t) [ 0; 1 ]
  |> List.sort (fun a b -> compare b.k_seq a.k_seq)

(* Reassemble one stream's image from its manifest, re-validating every
   chunk record, and the Merkle root over the payload bytes read. *)
let reconstruct t m =
  let image = Bytes.create m.m_image_len in
  let pos = ref 0 in
  let root = ref Fnv.offset_basis in
  let torn = ref false in
  let ok = ref true in
  let e = m.m_entries in
  (try
     for i = 0 to ent_count e - 1 do
       let h = ent_hash e i and off = ent_off e i and len = ent_len e i in
       let hdr = Blockdev.pread t.blk ~off ~len:chunk_header in
       if
         get_i64 hdr 0 <> chunk_magic
         || get_i64 hdr 8 <> h
         || get_i64 hdr 16 <> Int64.of_int len
       then begin
         torn := true;
         raise Exit
       end;
       if !pos + len > m.m_image_len then begin
         torn := true;
         raise Exit
       end;
       let payload = Blockdev.pread t.blk ~off:(off + chunk_header) ~len in
       let ph = Fnv.hash_bytes payload in
       if ph <> h then raise Exit;
       root := Fnv.combine !root ph;
       Bytes.blit payload 0 image !pos len;
       pos := !pos + len
     done
   with Exit | Invalid_argument _ -> ok := false);
  if !ok && !pos = m.m_image_len && Int64.equal !root m.m_root then
    Some image
  else begin
    Fault.observe t.faults
      (if !torn then Fault.Store_torn else Fault.Store_csum);
    None
  end

let recover ?(id = "") t =
  let rec go = function
    | [] -> None
    | c :: rest -> (
        match List.assoc_opt id c.k_streams with
        | None -> go rest (* stream absent from this generation; not a fault *)
        | Some m -> (
            match reconstruct t m with
            | Some image -> Some (image, m.m_gen)
            | None -> go rest))
  in
  go (candidates t)

(* --- construction --- *)

let of_blk ?(faults = Fault.none ()) blk =
  let nsectors = Blockdev.sectors blk in
  if nsectors < data_start_sector + 2 then
    invalid_arg "Store: device too small for two superblocks and data";
  let space_bytes = (nsectors - data_start_sector) / 2 * Blockdev.sector_bytes in
  {
    blk;
    space_bytes;
    faults;
    seq = 0;
    space = 0;
    head = 0;
    index = Keytbl.I64.create 1024;
    streams = Hashtbl.create 4;
    catalogs = [];
    refs = Bytes.empty;
    commits = 0;
    torn = 0;
    bytes_written = 0;
    logical_bytes = 0;
    gc_runs = 0;
    torn_gc = 0;
    ref_rebuilds = 0;
    hint_misses = 0;
    scratch = Bytes.empty;
  }

let host_dma =
  (* The store is a host-side controller path: no guest DMA ever runs
     through it. *)
  { Blockdev.dma_read = (fun _ _ -> None); dma_write = (fun _ _ -> false) }

let create ?(sectors = 8192) ?faults () =
  of_blk ?faults (Blockdev.create ~sectors host_dma)

(* Check the stored refcount table against the truth recomputed from the
   live manifests, as rows.  Tolerates a superset (a torn commit can
   retire a catalog whose references the last-written table still
   counts), but a missing or under-counted reference means the table was
   lost or rotted. *)
let reftable_covers t ~off ~len rows =
  try
    if len < 24 || off < data_start || off + len > capacity t then raise Exit;
    let b = Blockdev.pread t.blk ~off ~len in
    if get_i64 b 0 <> reftable_magic then raise Exit;
    if get_i64 b (len - 8) <> Fnv.hash_bytes ~pos:0 ~len:(len - 8) b then
      raise Exit;
    let n = Int64.to_int (get_i64 b 8) in
    if n < 0 || 16 + (16 * n) + 8 <> len then raise Exit;
    let stored = Keytbl.I64.create (2 * n) in
    for i = 0 to n - 1 do
      Keytbl.I64.replace stored (get_i64 b (16 + (16 * i)))
        (Int64.to_int (get_i64 b (24 + (16 * i))))
    done;
    for i = 0 to row_count rows - 1 do
      let r = row_value rows i in
      if r > 0 && Option.value ~default:0 (Keytbl.I64.find_opt stored (row_hash rows i)) < r then
        raise Exit
    done;
    true
  with Exit | Invalid_argument _ -> false

let mount ?faults blk =
  let t = of_blk ?faults blk in
  (match candidates t with
  | [] -> ()
  | newest :: older ->
      t.seq <- newest.k_seq;
      t.space <- newest.k_space;
      t.head <- newest.k_head;
      Hashtbl.reset t.streams;
      List.iter (fun (n, m) -> Hashtbl.replace t.streams n m) newest.k_streams;
      (* Only same-space catalogs feed the index and refcounts: after a
         GC flip the older slot still describes the other space, whose
         chunks the active log can no longer share. *)
      let cats =
        List.map snd newest.k_streams
        :: (older
           |> List.filter (fun c -> c.k_space = newest.k_space)
           |> List.map (fun c -> List.map snd c.k_streams))
      in
      t.catalogs <- cats;
      List.iter
        (List.iter (fun m ->
             let e = m.m_entries in
             for i = 0 to ent_count e - 1 do
               let h = ent_hash e i in
               if not (Keytbl.I64.mem t.index h) then
                 Keytbl.I64.replace t.index h { c_off = ent_off e i; c_len = ent_len e i }
             done))
        cats;
      t.refs <- refs_of_catalogs t cats;
      if not (reftable_covers t ~off:newest.k_ref_off ~len:newest.k_ref_len t.refs)
      then begin
        Fault.observe t.faults Fault.Store_ref;
        t.ref_rebuilds <- t.ref_rebuilds + 1
      end);
  t

let clone t = mount (Blockdev.copy t.blk)

type cut = Cut_commit of source | Cut_gc

type probe = {
  torn : bool;
  recovered : (Bytes.t * int) option;
  generation : int;
  hint_misses : int;
}

let crash_probe t cut ~at =
  let cut_store = clone t in
  let torn =
    match cut with
    | Cut_commit src -> (
        match commit ~crash_at:at cut_store src with
        | Torn _ -> true
        | Committed _ -> false)
    | Cut_gc -> (
        match gc ~crash_at:at cut_store with
        | Gc_torn _ -> true
        | Gc_committed _ -> false)
  in
  (* power cycle: remount the raw device, discarding memory state *)
  let rebooted = mount (device cut_store) in
  let recovered = recover rebooted in
  { torn; recovered; generation = generation rebooted;
    hint_misses = hint_misses cut_store }
