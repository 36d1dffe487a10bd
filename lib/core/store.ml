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

(* A chunk the in-memory index knows about: where the newest clean copy
   of this content lives in the active space, and how many references
   the live manifests hold on it. *)
type chunk = { c_off : int; c_len : int; mutable refs : int }

(* One committed generation of one stream: an ordered list of chunk
   references that reassembles the full snapshot image. *)
type manifest = {
  m_stream : string;
  m_gen : int;
  m_entries : (int64 * int * int) array; (* content hash, absolute off, len *)
  m_image_len : int;
  m_image_csum : int64;
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
  index : (int64, chunk) Hashtbl.t;
  streams : (string, manifest) Hashtbl.t; (* newest manifest per stream *)
  mutable catalogs : manifest list list; (* newest-first, at most 2 *)
  mutable commits : int;
  mutable torn : int;
  mutable bytes_written : int;
  mutable logical_bytes : int;
  mutable gc_runs : int;
  mutable torn_gc : int;
  mutable ref_rebuilds : int;
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

let chunks_live t =
  Hashtbl.fold (fun _ c n -> if c.refs > 0 then n + 1 else n) t.index 0

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

let put_i64 b off v = Bytes.set_int64_le b off v
let get_i64 b off = Bytes.get_int64_le b off
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

let chunk_record ~hash payload_src ~pos ~len =
  let b = Bytes.create (chunk_header + len) in
  put_i64 b 0 chunk_magic;
  put_i64 b 8 hash;
  put_i64 b 16 (Int64.of_int len);
  Bytes.blit payload_src pos b chunk_header len;
  b

let manifest_bytes m =
  let nlen = String.length m.m_stream in
  let n = Array.length m.m_entries in
  let total = 48 + nlen + (24 * n) + 8 in
  let b = Bytes.create total in
  put_i64 b 0 manifest_magic;
  put_i64 b 8 (Int64.of_int nlen);
  put_i64 b 16 (Int64.of_int n);
  put_i64 b 24 (Int64.of_int m.m_image_len);
  put_i64 b 32 m.m_image_csum;
  put_i64 b 40 (Int64.of_int m.m_gen);
  Bytes.blit_string m.m_stream 0 b 48 nlen;
  Array.iteri
    (fun i (h, off, len) ->
      let p = 48 + nlen + (24 * i) in
      put_i64 b p h;
      put_i64 b (p + 8) (Int64.of_int off);
      put_i64 b (p + 16) (Int64.of_int len))
    m.m_entries;
  put_i64 b (total - 8) (Fnv.hash_bytes ~pos:0 ~len:(total - 8) b);
  b

let manifest_len m = 48 + String.length m.m_stream + (24 * Array.length m.m_entries) + 8

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

let reftable_bytes refs =
  let entries =
    Hashtbl.fold (fun h n acc -> if n > 0 then (h, n) :: acc else acc) refs []
    |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  in
  let n = List.length entries in
  let total = 16 + (16 * n) + 8 in
  let b = Bytes.create total in
  put_i64 b 0 reftable_magic;
  put_i64 b 8 (Int64.of_int n);
  List.iteri
    (fun i (h, r) ->
      put_i64 b (16 + (16 * i)) h;
      put_i64 b (24 + (16 * i)) (Int64.of_int r))
    entries;
  put_i64 b (total - 8) (Fnv.hash_bytes ~pos:0 ~len:(total - 8) b);
  b

(* References held on each content hash by the distinct manifests of the
   (at most two) recoverable catalogs.  Identity is the manifest's device
   offset; counts are per entry occurrence. *)
let refs_of_catalogs catalogs =
  let refs = Hashtbl.create 64 in
  let seen = Hashtbl.create 16 in
  List.iter
    (List.iter (fun m ->
         if not (Hashtbl.mem seen m.m_off) then begin
           Hashtbl.replace seen m.m_off ();
           Array.iter
             (fun (h, _, _) ->
               Hashtbl.replace refs h
                 (1 + Option.value ~default:0 (Hashtbl.find_opt refs h)))
             m.m_entries
         end))
    catalogs;
  refs

let set_refs t refs =
  Hashtbl.iter
    (fun h c ->
      c.refs <- Option.value ~default:0 (Hashtbl.find_opt refs h))
    t.index

(* --- commit planning --- *)

type plan = {
  p_gen : int;
  p_new : (int * Bytes.t) list; (* absolute off, chunk record (reversed) *)
  p_new_meta : (int64 * int * int) list; (* hash, absolute off, payload len *)
  p_shared : int;
  p_manifest : manifest;
  p_catalog : manifest list;
  p_refs : (int64, int) Hashtbl.t;
  p_cat_off : int;
  p_cat_b : Bytes.t;
  p_ref_off : int;
  p_ref_b : Bytes.t;
  p_data_len : int; (* bytes this commit appends into the space *)
  p_rot_len : int; (* chunk+manifest+catalog span (store.csum rot region) *)
  p_total : int; (* p_data_len + sb_bytes *)
}

let plan_commit t ~id image =
  let len = Bytes.length image in
  let nchunks = (len + chunk_payload - 1) / chunk_payload in
  let base = space_off t t.space in
  let cursor = ref t.head in
  let pending = Hashtbl.create 16 in
  (* hash -> image pos of the first new chunk with that content *)
  let news = ref [] and news_meta = ref [] and shared = ref 0 in
  let entries =
    Array.init (max 0 nchunks) (fun i ->
        let pos = i * chunk_payload in
        let plen = min chunk_payload (len - pos) in
        let h = Fnv.hash_bytes ~pos ~len:plen image in
        let dedup =
          match Hashtbl.find_opt pending h with
          | Some (ppos, off) when Fnv.equal_range image ppos image pos plen ->
              Some (off, plen)
          | _ -> (
              match Hashtbl.find_opt t.index h with
              | Some c when c.c_len = plen ->
                  (* Verify before sharing: content-hash equality is not
                     content equality, and a rotted stored copy must not
                     be re-referenced. *)
                  let stored =
                    Blockdev.pread t.blk ~off:(c.c_off + chunk_header) ~len:plen
                  in
                  if Fnv.equal_range stored 0 image pos plen then
                    Some (c.c_off, plen)
                  else None
              | _ -> None)
        in
        match dedup with
        | Some (off, plen) ->
            incr shared;
            (h, off, plen)
        | None ->
            let off = base + !cursor in
            let rec_b = chunk_record ~hash:h image ~pos ~len:plen in
            news := (off, rec_b) :: !news;
            news_meta := (h, off, plen) :: !news_meta;
            if not (Hashtbl.mem pending h) then
              Hashtbl.replace pending h (pos, off);
            cursor := !cursor + Bytes.length rec_b;
            (h, off, plen))
  in
  let p_gen = stream_generation ~id t + 1 in
  let m_off = base + !cursor in
  let m0 =
    {
      m_stream = id;
      m_gen = p_gen;
      m_entries = entries;
      m_image_len = len;
      m_image_csum = Fnv.hash_bytes image;
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
  let prev = match t.catalogs with c :: _ -> [ c ] | [] -> [] in
  let p_refs = refs_of_catalogs (catalog :: prev) in
  let p_ref_off = base + !cursor in
  let p_ref_b = reftable_bytes p_refs in
  cursor := !cursor + Bytes.length p_ref_b;
  let p_data_len = !cursor - t.head in
  {
    p_gen;
    p_new = List.rev !news;
    p_new_meta = List.rev !news_meta;
    p_shared = !shared;
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

let commit_bytes ?(id = "") t image = (plan_commit t ~id image).p_total

(* --- the write stream, cut at an arbitrary byte offset on a crash --- *)

let stream_writes t writes ~cut =
  match cut with
  | None ->
      List.iter
        (fun (off, b) -> Blockdev.pwrite t.blk ~off b ~pos:0 ~len:(Bytes.length b))
        writes
  | Some cut ->
      (* Power fails after [cut] bytes: the prefix lands, the rest never
         reaches the device. *)
      let budget = ref cut in
      List.iter
        (fun (off, b) ->
          let n = min !budget (Bytes.length b) in
          if n > 0 then Blockdev.pwrite t.blk ~off b ~pos:0 ~len:n;
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
  g_writes : (int * Bytes.t) list;
  g_manifests : (string * manifest) list;
  g_refs : (int64, int) Hashtbl.t;
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
  let reloc = Hashtbl.create 64 in
  (* old absolute off -> new absolute off *)
  let cursor = ref 0 in
  let writes = ref [] in
  List.iter
    (fun (_, m) ->
      Array.iter
        (fun (h, off, len) ->
          if not (Hashtbl.mem reloc off) then begin
            let payload = Blockdev.pread t.blk ~off:(off + chunk_header) ~len in
            (* Copy raw: a rotted payload keeps its original hash in the
               record so recovery still detects the rot after compaction. *)
            let rec_b = chunk_record ~hash:h payload ~pos:0 ~len in
            Hashtbl.replace reloc off (base + !cursor);
            writes := (base + !cursor, rec_b) :: !writes;
            cursor := !cursor + Bytes.length rec_b
          end)
        m.m_entries)
    streams;
  let live = Hashtbl.length reloc in
  let manifests =
    List.map
      (fun (name, m) ->
        let entries =
          Array.map (fun (h, off, len) -> (h, Hashtbl.find reloc off, len)) m.m_entries
        in
        let m' = { m with m_entries = entries; m_off = base + !cursor } in
        let b = manifest_bytes m' in
        let m' = { m' with m_len = Bytes.length b } in
        writes := (m'.m_off, b) :: !writes;
        cursor := !cursor + Bytes.length b;
        (name, m'))
      streams
  in
  let cat_b = catalog_bytes (List.map snd manifests) in
  let cat_off = base + !cursor in
  writes := (cat_off, cat_b) :: !writes;
  cursor := !cursor + Bytes.length cat_b;
  let refs = refs_of_catalogs [ List.map snd manifests ] in
  let ref_b = reftable_bytes refs in
  let ref_off = base + !cursor in
  writes := (ref_off, ref_b) :: !writes;
  cursor := !cursor + Bytes.length ref_b;
  let seq = t.seq + 1 in
  let sb =
    superblock ~seq ~space:target ~head:!cursor ~cat_off ~cat_len:(Bytes.length cat_b)
      ~ref_off ~ref_len:(Bytes.length ref_b)
  in
  writes := (sb_off (seq mod 2), sb) :: !writes;
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
      Hashtbl.reset t.index;
      List.iter
        (fun (_, m) ->
          Array.iter
            (fun (h, off, len) ->
              Hashtbl.replace t.index h { c_off = off; c_len = len; refs = 0 })
            m.m_entries)
        p.g_manifests;
      set_refs t p.g_refs;
      Hashtbl.reset t.streams;
      List.iter (fun (name, m) -> Hashtbl.replace t.streams name m) p.g_manifests;
      t.catalogs <- [ List.map snd p.g_manifests ];
      t.gc_runs <- t.gc_runs + 1;
      t.bytes_written <- t.bytes_written + p.g_total;
      Gc_committed { bytes = p.g_total; live_chunks = p.g_live; reclaimed }

(* --- commit --- *)

let do_commit ?crash_at t ~id ~plan:p image =
  let seq = t.seq + 1 in
  let sb =
    superblock ~seq ~space:t.space ~head:(t.head + p.p_data_len)
      ~cat_off:p.p_cat_off ~cat_len:(Bytes.length p.p_cat_b) ~ref_off:p.p_ref_off
      ~ref_len:(Bytes.length p.p_ref_b)
  in
  let writes =
    p.p_new
    @ [
        (p.p_manifest.m_off, manifest_bytes p.p_manifest);
        (p.p_cat_off, p.p_cat_b);
        (p.p_ref_off, p.p_ref_b);
        (sb_off (seq mod 2), sb);
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
      t.logical_bytes <- t.logical_bytes + Bytes.length image;
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
        (fun (h, off, len) ->
          let refs =
            match Hashtbl.find_opt t.index h with Some c -> c.refs | None -> 0
          in
          Hashtbl.replace t.index h { c_off = off; c_len = len; refs })
        p.p_new_meta;
      set_refs t p.p_refs;
      Hashtbl.replace t.streams id p.p_manifest;
      let prev = match t.catalogs with c :: _ -> [ c ] | [] -> [] in
      t.catalogs <- p.p_catalog :: prev;
      t.commits <- t.commits + 1;
      Committed
        {
          gen = p.p_gen;
          bytes = p.p_total;
          chunks_new = List.length p.p_new_meta;
          chunks_shared = p.p_shared;
        }

let commit ?crash_at ?(id = "") t image =
  let p = plan_commit t ~id image in
  if t.head + p.p_data_len <= t.space_bytes then
    do_commit ?crash_at t ~id ~plan:p image
  else
    (* The active space is full: compact live chunks into the other
       space first.  A power cut during that compaction loses nothing —
       the commit is reported torn and the pre-GC state still rules. *)
    match gc t with
    | Gc_torn cut ->
        t.torn <- t.torn + 1;
        Torn cut
    | Gc_committed _ ->
        let p = plan_commit t ~id image in
        if t.head + p.p_data_len > t.space_bytes then
          invalid_arg "Store.commit: image does not fit a space even after GC";
        do_commit ?crash_at t ~id ~plan:p image

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
  let entries =
    Array.init n (fun i ->
        let p = 48 + nlen + (24 * i) in
        let h = get_i64 b p in
        let coff = Int64.to_int (get_i64 b (p + 8)) in
        let clen = Int64.to_int (get_i64 b (p + 16)) in
        if
          coff < data_start || clen <= 0 || clen > chunk_payload
          || coff + chunk_header + clen > capacity t
        then raise (Bad Fault.Store_torn);
        (h, coff, clen))
  in
  {
    m_stream = stream;
    m_gen = gen;
    m_entries = entries;
    m_image_len = image_len;
    m_image_csum = get_i64 b 32;
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
   chunk record and the whole-image checksum. *)
let reconstruct t m =
  let image = Bytes.create m.m_image_len in
  let pos = ref 0 in
  let torn = ref false in
  let ok = ref true in
  (try
     Array.iter
       (fun (h, off, len) ->
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
         if Fnv.hash_bytes payload <> h then raise Exit;
         Bytes.blit payload 0 image !pos len;
         pos := !pos + len)
       m.m_entries
   with Exit | Invalid_argument _ -> ok := false);
  if !ok && !pos = m.m_image_len && Fnv.hash_bytes image = m.m_image_csum then
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
    index = Hashtbl.create 64;
    streams = Hashtbl.create 4;
    catalogs = [];
    commits = 0;
    torn = 0;
    bytes_written = 0;
    logical_bytes = 0;
    gc_runs = 0;
    torn_gc = 0;
    ref_rebuilds = 0;
  }

let host_dma =
  (* The store is a host-side controller path: no guest DMA ever runs
     through it. *)
  { Blockdev.dma_read = (fun _ _ -> None); dma_write = (fun _ _ -> false) }

let create ?(sectors = 8192) ?faults () =
  of_blk ?faults (Blockdev.create ~sectors host_dma)

(* Check the stored refcount table against the truth recomputed from the
   live manifests.  Tolerates a superset (a torn commit can retire a
   catalog whose references the last-written table still counts), but a
   missing or under-counted reference means the table was lost or rotted. *)
let reftable_covers t ~off ~len refs =
  try
    if len < 24 || off < data_start || off + len > capacity t then raise Exit;
    let b = Blockdev.pread t.blk ~off ~len in
    if get_i64 b 0 <> reftable_magic then raise Exit;
    if get_i64 b (len - 8) <> Fnv.hash_bytes ~pos:0 ~len:(len - 8) b then
      raise Exit;
    let n = Int64.to_int (get_i64 b 8) in
    if n < 0 || 16 + (16 * n) + 8 <> len then raise Exit;
    let stored = Hashtbl.create 64 in
    for i = 0 to n - 1 do
      Hashtbl.replace stored (get_i64 b (16 + (16 * i)))
        (Int64.to_int (get_i64 b (24 + (16 * i))))
    done;
    Hashtbl.iter
      (fun h r ->
        if r > 0 && Option.value ~default:0 (Hashtbl.find_opt stored h) < r then
          raise Exit)
      refs;
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
             Array.iter
               (fun (h, off, len) ->
                 if not (Hashtbl.mem t.index h) then
                   Hashtbl.replace t.index h { c_off = off; c_len = len; refs = 0 })
               m.m_entries))
        cats;
      let refs = refs_of_catalogs cats in
      set_refs t refs;
      if not (reftable_covers t ~off:newest.k_ref_off ~len:newest.k_ref_len refs)
      then begin
        Fault.observe t.faults Fault.Store_ref;
        t.ref_rebuilds <- t.ref_rebuilds + 1
      end);
  t

let clone t =
  let n = Blockdev.sectors t.blk in
  let blk = Blockdev.create ~sectors:n host_dma in
  Blockdev.load blk ~sector:0 (Blockdev.read_back t.blk ~sector:0 ~count:n);
  mount blk
