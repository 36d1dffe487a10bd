(* High availability: the durable snapshot store is crash-consistent at
   every power-failure offset (qcheck sweep), a rejected snapshot restore
   leaves no trace, failover is idempotent, the watchdog policies fire
   exactly as specified, the HA supervisor restarts wedged VMs from the
   last good checkpoint with zero manual recovery calls, and missed
   heartbeats drive automatic generation-fenced failover. *)

open Velum_isa
open Velum_machine
open Velum_devices
open Velum_vmm
open Velum_guests
open Asm

module Fault = Velum_util.Fault

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let make_hyp ?(frames = 2048) () = Hypervisor.create ~host:(Host.create ~frames ()) ()

let unikernel hyp ?(mem_frames = 16) name prog =
  let vm = Hypervisor.create_vm hyp ~name ~mem_frames ~entry:0L () in
  Vm.load_image vm (Asm.assemble ~origin:0L prog);
  vm

let vm_instret vm =
  Array.fold_left
    (fun acc (v : Vcpu.t) -> Int64.add acc v.Vcpu.state.Cpu.instret)
    0L vm.Vm.vcpus

let store_for ?faults ~image_bytes () =
  Store.create ~sectors:(Store.sectors_for ~image_bytes) ?faults ()

(* ---------------- store: crash consistency ---------------- *)

(* Commit one generation intact, cut the next commit at an arbitrary
   byte offset, power-cycle (remount the raw device) and recover: the
   result must be byte-identical to the previous image — the commit
   point is the last superblock byte, so no cut offset may ever yield
   the new image, a hybrid, or nothing. *)
let store_crash_sweep_prop =
  QCheck2.Test.make ~count:100
    ~name:"power failure at any commit offset recovers the previous image"
    QCheck2.Gen.(
      triple
        (string_size ~gen:char (int_range 1 30_000))
        (string_size ~gen:char (int_range 1 30_000))
        nat)
    (fun (s1, s2, off_seed) ->
      let img1 = Bytes.of_string s1 and img2 = Bytes.of_string s2 in
      let image_bytes = max (Bytes.length img1) (Bytes.length img2) in
      let store = store_for ~image_bytes () in
      (match Store.commit store (Store.of_bytes img1) with
      | Store.Committed { gen = 1; _ } -> ()
      | _ -> failwith "baseline commit failed");
      let total = Store.commit_bytes store (Store.of_bytes img2) in
      let off = off_seed mod total in
      (match Store.commit ~crash_at:off store (Store.of_bytes img2) with
      | Store.Torn cut -> if cut <> off then failwith "cut at wrong offset"
      | Store.Committed _ -> failwith "crash_at must tear the commit");
      (* power cycle: all in-memory state is lost *)
      let store = Store.mount (Store.device store) in
      match Store.recover store with
      | Some (img, 1) -> Bytes.equal img img1
      | _ -> false)

let test_store_generations () =
  let store = store_for ~image_bytes:10_000 () in
  checkb "empty store recovers nothing" true (Store.recover store = None);
  let imgs = List.init 5 (fun i -> Bytes.make (3_000 + (i * 811)) (Char.chr (65 + i))) in
  List.iteri
    (fun i img ->
      match Store.commit store (Store.of_bytes img) with
      | Store.Committed { gen; _ } -> checki "generation increments" (i + 1) gen
      | Store.Torn _ -> Alcotest.fail "unexpected torn commit")
    imgs;
  (match Store.recover store with
  | Some (img, 5) -> checkb "newest image wins" true (Bytes.equal img (List.nth imgs 4))
  | _ -> Alcotest.fail "newest generation must recover");
  let store = Store.mount (Store.device store) in
  checki "generation survives remount" 5 (Store.generation store)

let test_store_torn_site () =
  let f = Fault.create ~seed:9L () in
  (* [now] for store sites is the commit ordinal: cut the second commit *)
  Fault.add_window f Fault.Store_torn ~lo:1L ~hi:1L;
  let store = store_for ~faults:f ~image_bytes:8_000 () in
  let img1 = Bytes.make 8_000 'x' and img2 = Bytes.make 8_000 'y' in
  (match Store.commit store (Store.of_bytes img1) with
  | Store.Committed { gen = 1; _ } -> ()
  | _ -> Alcotest.fail "first commit must land");
  (match Store.commit store (Store.of_bytes img2) with
  | Store.Torn _ -> ()
  | Store.Committed _ -> Alcotest.fail "the window must cut the second commit");
  checki "torn commit counted" 1 (Store.torn_commits store);
  checki "injected counted" 1 (Fault.injected f Fault.Store_torn);
  let store = Store.mount ~faults:f (Store.device store) in
  (match Store.recover store with
  | Some (img, 1) -> checkb "previous generation rules" true (Bytes.equal img img1)
  | _ -> Alcotest.fail "must recover generation 1")

let test_store_csum_rot () =
  let f = Fault.create ~seed:3L () in
  Fault.add_window f Fault.Store_csum ~lo:1L ~hi:1L;
  let store = store_for ~faults:f ~image_bytes:8_000 () in
  let img1 = Bytes.make 8_000 'x' and img2 = Bytes.make 8_000 'y' in
  (match Store.commit store (Store.of_bytes img1) with
  | Store.Committed { gen = 1; _ } -> ()
  | _ -> Alcotest.fail "first commit must land");
  (match Store.commit store (Store.of_bytes img2) with
  | Store.Committed { gen = 2; _ } -> ()
  | _ -> Alcotest.fail "rot happens after the commit lands");
  (match Store.recover store with
  | Some (img, 1) -> checkb "rot falls back a generation" true (Bytes.equal img img1)
  | _ -> Alcotest.fail "generation 1 must still recover");
  checkb "corruption observed by the scan" true
    (Fault.observed f Fault.Store_csum + Fault.observed f Fault.Store_torn >= 1)

let test_new_sites_parse () =
  match
    Fault.parse
      "seed=5,store.torn=0.25,store.csum=0.1,store.gc=0.5,store.ref@2-3,hb.loss@100-200"
  with
  | Error e -> Alcotest.fail e
  | Ok f ->
      checkb "torn prob" true (Fault.prob f Fault.Store_torn = 0.25);
      checkb "csum prob" true (Fault.prob f Fault.Store_csum = 0.1);
      checkb "gc prob" true (Fault.prob f Fault.Store_gc = 0.5);
      checkb "ref window" true (Fault.fire f Fault.Store_ref ~now:2L);
      checkb "ref outside window" false (Fault.fire f Fault.Store_ref ~now:4L);
      checkb "hb window" true (Fault.fire f Fault.Hb_loss ~now:150L);
      checkb "hb outside window" false (Fault.fire f Fault.Hb_loss ~now:250L)

(* ---------------- store: content-addressed deltas and GC ---------------- *)

(* Deterministic patterned pages: content is a pure function of the
   tag, so shared tags dedup across streams and generations. *)
let fill_page img i tag =
  Bytes.set_int64_le img (i * 4096) (Int64.of_int tag);
  for j = 8 to 4095 do
    Bytes.unsafe_set img ((i * 4096) + j)
      (Char.chr (((tag + (j * 7)) land 0x7f) + 1))
  done

(* Multi-stream fleet store under GC: cut a compaction at any byte
   offset (or let it complete), power-cycle, and every stream's newest
   generation must still restore byte-identically — GC must never
   reclaim a chunk any live manifest can reach. *)
let store_gc_live_prop =
  QCheck2.Test.make ~count:60
    ~name:"GC at any cut offset never loses a live generation"
    QCheck2.Gen.(triple (int_range 2 4) (int_range 1 3) nat)
    (fun (streams, gens, off_seed) ->
      let pages = 6 in
      let image_bytes = pages * 4096 in
      let image s g =
        let b = Bytes.create image_bytes in
        for i = 0 to pages - 1 do
          (* low pages shared by every stream of the same generation,
             high pages private to the stream *)
          let tag =
            if i < 3 then (g * 1009) + i
            else (s * 65599) + (g * 1009) + i
          in
          fill_page b i tag
        done;
        b
      in
      let store =
        Store.create
          ~sectors:(Store.fleet_sectors_for ~streams ~image_bytes)
          ()
      in
      let last = Array.make streams Bytes.empty in
      for g = 1 to gens do
        for s = 0 to streams - 1 do
          let img = image s g in
          (match Store.commit ~id:(string_of_int s) store (Store.of_bytes img) with
          | Store.Committed _ -> ()
          | Store.Torn _ -> failwith "commit torn without a fault plan");
          last.(s) <- img
        done
      done;
      let total = Store.gc_bytes store in
      let cut = off_seed mod (total + 1) in
      (if cut >= total then (
         match Store.gc store with
         | Store.Gc_committed _ -> ()
         | Store.Gc_torn _ -> failwith "gc torn without a fault plan")
       else
         match Store.gc ~crash_at:cut store with
         | Store.Gc_torn c when c = cut -> ()
         | _ -> failwith "crash_at must tear the compaction");
      (* power cycle: all in-memory state is lost *)
      let store = Store.mount (Store.device store) in
      let ok = ref true in
      for s = 0 to streams - 1 do
        match Store.recover ~id:(string_of_int s) store with
        | Some (img, g) ->
            if g <> gens || not (Bytes.equal img last.(s)) then ok := false
        | None -> ok := false
      done;
      !ok)

(* A chain of delta commits must reassemble the exact same bytes as a
   fresh store holding only the final image — chunk sharing is a
   storage optimisation, never a semantic one.  Half the runs remount
   the device mid-chain so the rebuilt index is on the committing
   path too. *)
let store_delta_oracle_prop =
  QCheck2.Test.make ~count:60
    ~name:"delta-chain recover equals single-commit recover"
    QCheck2.Gen.(
      quad
        (string_size ~gen:char (int_range 4096 20_000))
        (list_size (int_range 1 6)
           (list_size (int_range 1 8) (pair nat (int_range 1 255))))
        bool bool)
    (fun (base, steps, remount, grow) ->
      let image_bytes = String.length base + 4096 in
      let store = store_for ~image_bytes () in
      let img = ref (Bytes.of_string base) in
      (match Store.commit store (Store.of_bytes !img) with
      | Store.Committed { gen = 1; _ } -> ()
      | _ -> failwith "baseline commit failed");
      let store = ref store in
      List.iteri
        (fun i muts ->
          let next =
            if grow && i = 0 then (
              (* a generation that changes length exercises the tail chunk *)
              let b = Bytes.create (Bytes.length !img + 811) in
              Bytes.blit !img 0 b 0 (Bytes.length !img);
              b)
            else Bytes.copy !img
          in
          List.iter
            (fun (pos, v) ->
              Bytes.set next
                (pos mod Bytes.length next)
                (Char.chr v))
            muts;
          (match Store.commit !store (Store.of_bytes next) with
          | Store.Committed _ -> ()
          | Store.Torn _ -> failwith "chain commit torn without a fault plan");
          if remount && i mod 2 = 0 then
            store := Store.mount (Store.device !store);
          img := next)
        steps;
      let final = !img in
      let oracle = store_for ~image_bytes:(Bytes.length final) () in
      (match Store.commit oracle (Store.of_bytes final) with
      | Store.Committed { gen = 1; _ } -> ()
      | _ -> failwith "oracle commit failed");
      match
        (Store.recover !store, Store.recover oracle)
      with
      | Some (a, _), Some (b, _) ->
          Bytes.equal a final && Bytes.equal b final && Bytes.equal a b
      | _ -> false)

let test_store_gc_site () =
  let f = Fault.create ~seed:11L () in
  (* [now] for store sites is the successful-commit ordinal *)
  Fault.add_window f Fault.Store_gc ~lo:2L ~hi:2L;
  let store = store_for ~faults:f ~image_bytes:16_000 () in
  let img1 = Bytes.make 16_000 'x' and img2 = Bytes.make 16_000 'y' in
  (match Store.commit store (Store.of_bytes img1) with
  | Store.Committed { gen = 1; _ } -> ()
  | _ -> Alcotest.fail "first commit must land");
  (match Store.commit store (Store.of_bytes img2) with
  | Store.Committed { gen = 2; _ } -> ()
  | _ -> Alcotest.fail "second commit must land");
  (match Store.gc store with
  | Store.Gc_torn _ -> ()
  | Store.Gc_committed _ -> Alcotest.fail "the window must cut the compaction");
  checki "torn gc counted" 1 (Store.torn_gc store);
  checki "injected counted" 1 (Fault.injected f Fault.Store_gc);
  let store = Store.mount (Store.device store) in
  (match Store.recover store with
  | Some (img, 2) ->
      checkb "newest generation survives the torn compaction" true
        (Bytes.equal img img2)
  | _ -> Alcotest.fail "must recover generation 2")

let test_store_ref_site () =
  let f = Fault.create ~seed:21L () in
  Fault.add_window f Fault.Store_ref ~lo:1L ~hi:1L;
  let store = store_for ~faults:f ~image_bytes:16_000 () in
  let img1 = Bytes.make 16_000 'x' and img2 = Bytes.make 16_000 'y' in
  (match Store.commit store (Store.of_bytes img1) with
  | Store.Committed { gen = 1; _ } -> ()
  | _ -> Alcotest.fail "first commit must land");
  (match Store.commit store (Store.of_bytes img2) with
  | Store.Committed { gen = 2; _ } -> ()
  | _ -> Alcotest.fail "rot happens after the commit lands");
  checki "rot injected" 1 (Fault.injected f Fault.Store_ref);
  (* the reboot path must detect the rotted table and rebuild it from
     the live manifests instead of trusting it *)
  let store = Store.mount ~faults:f (Store.device store) in
  checki "refcount table rebuilt" 1 (Store.ref_rebuilds store);
  checkb "rot observed" true (Fault.observed f Fault.Store_ref >= 1);
  (match Store.recover store with
  | Some (img, 2) -> checkb "newest image intact" true (Bytes.equal img img2)
  | _ -> Alcotest.fail "recovery must be unaffected by refcount rot")

(* ---------------- store: dirty-set hints change no byte ---------------- *)

(* A guest that keeps storing a counter across its pages 4..11. *)
let scribbler =
  [ li r2 0L; label "loop"; addi r2 r2 1L; slli r4 r2 9L; andi r4 r4 0x7FF8L;
    addi r4 r4 0x4000L; sd r2 r4 0L; jmp "loop" ]

type hint_event =
  | Run of int  (** the guest executes stores for this many kcycles *)
  | Poke of int * int * int  (** VMM store: gfn, word, value *)
  | Dma of int * int * int  (** virtio-blk DMA into guest memory: gfn, offset, length *)
  | Balloon of int  (** out and straight back in: a zeroed frame, often the same one *)
  | Balloon_out of int  (** a kind change shifts every later record *)
  | Evict of int  (** hypervisor swap-out; the next capture swaps back in *)
  | Restore  (** the VM is rebuilt from its image: a new object, unhinted *)
  | Pad of int
      (** an image of this many bytes committed to another stream: later
          chunk records land at other offsets, so stored copies straddle
          the device's extents at other points *)
  | Commit
  | Torn of int  (** a commit cut at this offset seed *)

let hint_event_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun n -> Run n) (int_range 1 40));
        (3, map3 (fun g w v -> Poke (g, w, v)) (int_range 0 15) (int_range 0 511) nat);
        ( 2,
          map3 (fun g o l -> Dma (g, o, l)) (int_range 0 15) (int_range 0 4095)
            (int_range 1 6000) );
        (1, map (fun g -> Balloon g) (int_range 1 15));
        (1, map (fun g -> Balloon_out g) (int_range 1 15));
        (1, map (fun n -> Evict n) (int_range 1 4));
        (1, pure Restore);
        (1, map (fun n -> Pad n) (int_range 1 8192));
        (4, pure Commit);
        (1, map (fun n -> Torn n) nat);
      ])

let show_hint_event = function
  | Run n -> Printf.sprintf "run %dk" n
  | Poke (g, w, v) -> Printf.sprintf "poke %d/%d=%d" g w v
  | Dma (g, o, l) -> Printf.sprintf "dma %d+%d:%d" g o l
  | Balloon g -> Printf.sprintf "balloon %d" g
  | Balloon_out g -> Printf.sprintf "balloon-out %d" g
  | Evict n -> Printf.sprintf "evict %d" n
  | Restore -> "restore"
  | Pad n -> Printf.sprintf "pad %d" n
  | Commit -> "commit"
  | Torn n -> Printf.sprintf "torn %d" n

(* Twin stores, one fed through {!Snapshot.source} with the dirty-set
   hint its stream's last commit left, the other the serialized image of
   the same instant: every outcome, every device byte and every recovery
   must agree, and without faults no hinted chunk may fail its verify. *)
let hinted_commit_prop =
  QCheck2.Test.make ~count:150 ~name:"a hinted commit equals an unhinted commit"
    ~print:(fun (rot, evs) ->
      Printf.sprintf "rot=%b [%s]" rot (String.concat "; " (List.map show_hint_event evs)))
    QCheck2.Gen.(pair bool (list_size (int_range 1 30) hint_event_gen))
    (fun (rot, events) ->
      let hyp = make_hyp ~frames:256 () in
      let vm = ref (unikernel hyp "twin" scribbler) in
      let plan () =
        let f = Fault.create ~seed:5L () in
        if rot then Fault.set_prob f Fault.Store_csum 0.3;
        f
      in
      let image_bytes = Snapshot.image_bytes !vm + 8192 in
      let a = store_for ~faults:(plan ()) ~image_bytes () in
      let b = store_for ~faults:(plan ()) ~image_bytes () in
      let hint = ref None in
      let ok = ref true in
      let expect what c = if not c then (Printf.printf "diverged: %s\n" what; ok := false) in
      let device s =
        let blk = Store.device s in
        Blockdev.read_back blk ~sector:0 ~count:(Blockdev.sectors blk)
      in
      let commit torn =
        match Snapshot.source ?since:!hint !vm with
        | Error _ -> expect "every page resolves" false
        | Ok src ->
            (* after the source: nothing is left to swap in *)
            let img = Snapshot.capture !vm in
            let crash_at =
              Option.map (fun n -> n mod Store.commit_bytes b (Store.of_bytes img)) torn
            in
            let oa = Store.commit ?crash_at a (Snapshot.chunks src) in
            let ob = Store.commit ?crash_at b (Store.of_bytes img) in
            expect "outcome" (oa = ob);
            expect "device bytes" (String.equal (device a) (device b));
            expect "recover" (Store.recover a = Store.recover b);
            match oa with
            | Store.Committed { gen; _ } -> hint := Some (Snapshot.committed src ~gen)
            | Store.Torn _ -> ()
      in
      List.iter
        (function
          | Run n -> ignore (Hypervisor.run hyp ~budget:(Int64.of_int (n * 1000)))
          | Poke (g, w, v) ->
              ignore (Vm.write_gpa_u64 !vm (Int64.of_int ((g * 4096) + (w * 8))) (Int64.of_int v))
          | Dma (g, o, l) ->
              let data = Bytes.init l (fun i -> Char.chr (((i * 31) + g) land 0xff)) in
              let dma = Vm.guest_mem (lazy !vm) in
              ignore (dma.Virtio_ring.write_bytes (Int64.of_int ((g * 4096) + o)) data)
          | Balloon g ->
              ignore (Vm.balloon_out !vm (Int64.of_int g));
              ignore (Vm.balloon_in !vm (Int64.of_int g))
          | Balloon_out g -> ignore (Vm.balloon_out !vm (Int64.of_int g))
          | Evict n -> ignore (Mem_mgr.evict !vm ~n)
          | Restore ->
              let vm' = Snapshot.restore hyp (Snapshot.capture !vm) in
              Hypervisor.remove_vm hyp !vm;
              vm := vm'
          | Pad n ->
              let img = Bytes.make n (Char.chr (n land 0xff)) in
              List.iter (fun s -> ignore (Store.commit ~id:"pad" s (Store.of_bytes img))) [ a; b ]
          | Commit -> commit None
          | Torn n -> commit (Some n))
        (events @ [ Commit ]);
      if not rot then expect "no hint misses" (Store.hint_misses a = 0);
      !ok)

(* The hint is not vacuous: an untouched VM's next source calls its page
   chunks clean, and a store dirties the chunks over it. *)
let test_hint_marks_clean_chunks () =
  let hyp = make_hyp ~frames:256 () in
  let vm = unikernel hyp "quiet" [ label "idle"; jmp "idle" ] in
  let store = store_for ~image_bytes:(Snapshot.image_bytes vm) () in
  let source ?since () =
    match Snapshot.source ?since vm with Ok s -> s | Error _ -> Alcotest.fail "source"
  in
  let src1 = source () in
  checkb "a first source is unhinted" true ((Snapshot.chunks src1).Store.clean = None);
  let hint =
    match Store.commit store (Snapshot.chunks src1) with
    | Store.Committed { gen; _ } -> Snapshot.committed src1 ~gen
    | Store.Torn _ -> Alcotest.fail "commit torn"
  in
  let clean_chunks () =
    let src = Snapshot.chunks (source ~since:hint ()) in
    match src.Store.clean with
    | None -> Alcotest.fail "the hint must apply to the same VM"
    | Some (gen, f) ->
        checki "hint names the committed generation" 1 gen;
        let n = (src.Store.length + Store.chunk_bytes - 1) / Store.chunk_bytes in
        List.filter f (List.init n Fun.id)
  in
  let before = clean_chunks () in
  checkb "page chunks are clean" true (List.length before >= 14);
  ignore (Vm.write_gpa_u64 vm 0x9000L 42L);
  let after = clean_chunks () in
  checkb "the written page's chunks are dirty" true
    (List.length after < List.length before
    && List.for_all (fun i -> List.mem i before) after)

(* A source that lies about clean chunks cannot corrupt a commit: the
   verify refuses the stale hash, the chunk is hashed after all, and the
   result is that of the plain image. *)
let test_lying_hint_is_verified () =
  let img1 = Bytes.make 40_000 'a' in
  let img2 = Bytes.copy img1 in
  Bytes.fill img2 5_000 9_000 'b';
  let f = Fault.create ~seed:1L () in
  let a = store_for ~faults:f ~image_bytes:40_000 ()
  and b = store_for ~image_bytes:40_000 () in
  List.iter (fun s -> ignore (Store.commit s (Store.of_bytes img1))) [ a; b ];
  let liar = { (Store.of_bytes img2) with Store.clean = Some (1, fun _ -> true) } in
  let oa = Store.commit a liar and ob = Store.commit b (Store.of_bytes img2) in
  checkb "same outcome" true (oa = ob);
  checki "the stale chunks were refused" 3 (Store.hint_misses a);
  checki "an intact store is not rot" 0 (Fault.observed f Fault.Store_csum);
  checkb "same recovery" true (Store.recover a = Store.recover b)

(* Rot that a commit's verify finds is observed where it is found: a
   stored chunk whose payload changed under its record is refused,
   counted as [store.csum], and written again. *)
let test_refused_verify_observes_rot () =
  let img = Bytes.make 16_384 'a' in
  Bytes.fill img 4_096 4_096 'Q';
  let f = Fault.create ~seed:1L () in
  let store = store_for ~faults:f ~image_bytes:16_384 () in
  ignore (Store.commit store (Store.of_bytes img));
  let dev = Store.device store in
  let raw = Blockdev.pread dev ~off:0 ~len:(Blockdev.capacity_bytes dev) in
  let q = Bytes.to_string (Bytes.make 4_096 'Q') in
  let rec find i = if Bytes.sub_string raw i 4_096 = q then i else find (i + 1) in
  let at = find 0 + 100 in
  Blockdev.pwrite dev ~off:at (Bytes.make 1 'R') ~pos:0 ~len:1;
  checki "nothing observed before the commit" 0 (Fault.observed f Fault.Store_csum);
  (match Store.commit store (Store.of_bytes img) with
  | Store.Committed { chunks_new; _ } ->
      checki "the rotted chunk is written again" 1 chunks_new
  | Store.Torn _ -> Alcotest.fail "commit torn");
  checki "the refused verify observed the rot" 1 (Fault.observed f Fault.Store_csum);
  match Store.recover store with
  | Some (got, 2) -> checkb "the new generation recovers intact" true (Bytes.equal got img)
  | _ -> Alcotest.fail "generation 2 must recover"

(* The device offset of every stored copy of [img]'s full chunks, found
   by their record magic and payload: chunk [k] -> payload offset. *)
let stored_chunks dev img =
  let raw = Blockdev.pread dev ~off:0 ~len:(Blockdev.capacity_bytes dev) in
  let magic = 0x56454C43484E4B32L (* "VELCHNK2" *) in
  let found = Hashtbl.create 64 in
  for off = 0 to Bytes.length raw - 24 - Store.chunk_bytes do
    if Bytes.get_int64_le raw off = magic && Bytes.get_int64_le raw (off + 16) = 4096L then
      for k = 0 to (Bytes.length img / Store.chunk_bytes) - 1 do
        if Bytes.sub raw (off + 24) 4096 = Bytes.sub img (k * 4096) 4096 then
          Hashtbl.replace found k (off + 24)
      done
  done;
  found

(* A clean chunk is verified where it lies: the VM's frames against the
   stored copy's extents, one span at a time.  A padding commit on
   another stream moves the records until a stored copy straddles a
   64 KiB extent boundary at a point inside one of the image's record
   headers, so the header is compared in two pieces.  Rot on either side
   of the split, or in the never-written page the copy ends in, is
   refused as a buffered compare refuses it; an intact copy is shared
   with no hint miss. *)
let test_in_place_verify_straddles () =
  let hyp = make_hyp ~frames:256 () in
  let vm = unikernel hyp "edge" [ label "idle"; jmp "idle" ] in
  let img = Snapshot.capture vm in
  let image_bytes = Bytes.length img + 8192 in
  let ext = Backing.extent_bytes in
  let pages = 16 in
  (* the extent boundary [b] that chunk [k]'s stored copy at [d] straddles
     and the record [r] whose header the image offset at [b] splits
     (every record is a data page's: a 16-byte header, then the page) *)
  let header_split k d =
    let b = ((d / ext) + 1) * ext in
    let p = (k * 4096) + (b - d) in
    let r = (p - 16) / 4112 and rel = (p - 16) mod 4112 in
    if b < d + 4096 && p > 16 && r < pages && rel > 0 && rel < 16 then Some (b, r) else None
  in
  let prepared pad =
    let s = store_for ~image_bytes () in
    ignore (Store.commit ~id:"pad" s (Store.of_bytes (Bytes.make pad 'p')));
    s
  in
  let stored pad =
    let s = prepared pad in
    ignore (Store.commit s (Store.of_bytes img));
    stored_chunks (Store.device s) img
  in
  (* a pad below a chunk adds its length to every later offset *)
  let at_one = stored 1 in
  let rec search pad =
    if pad > Store.chunk_bytes then Alcotest.fail "no padding splits a header at an extent boundary"
    else
      let found =
        Hashtbl.fold
          (fun k d acc ->
            let d = d + pad - 1 in
            match acc with
            | Some _ -> acc
            | None -> Option.map (fun (b, r) -> (k, d, b, r)) (header_split k d))
          at_one None
      in
      match found with Some f -> (pad, f) | None -> search (pad + 1)
  in
  let pad, (k, d, split, r) = search 1 in
  checki "the copy lies where the pad put it" d (Hashtbl.find (stored pad) k);
  check64 "the split header is record r's" (Int64.of_int r)
    (Bytes.get_int64_le img (16 + (4112 * r)));
  check64 "of a data page" 0L (Bytes.get_int64_le img (24 + (4112 * r)));
  let run rot =
    let f = Fault.create ~seed:1L () in
    let a = prepared pad and b = prepared pad in
    Store.set_faults a f;
    let src1 = match Snapshot.source vm with Ok s -> s | Error _ -> Alcotest.fail "source" in
    let hint =
      match Store.commit a (Snapshot.chunks src1) with
      | Store.Committed { gen; _ } -> Snapshot.committed src1 ~gen
      | Store.Torn _ -> Alcotest.fail "commit torn"
    in
    ignore (Store.commit b (Store.of_bytes img));
    Option.iter
      (fun at ->
        List.iter
          (fun s ->
            let dev = Store.device s in
            let c = Blockdev.pread dev ~off:at ~len:1 in
            Bytes.set c 0 (Char.chr (Char.code (Bytes.get c 0) lxor 0x10));
            Blockdev.pwrite dev ~off:at c ~pos:0 ~len:1)
          [ a; b ])
      rot;
    let src2 =
      match Snapshot.source ~since:hint vm with Ok s -> s | Error _ -> Alcotest.fail "source"
    in
    let oa = Store.commit a (Snapshot.chunks src2) and ob = Store.commit b (Store.of_bytes img) in
    let dev s = Blockdev.pread (Store.device s) ~off:0 ~len:(Blockdev.capacity_bytes (Store.device s)) in
    checkb "same outcome" true (oa = ob);
    checkb "same device bytes" true (Bytes.equal (dev a) (dev b));
    checkb "same recovery" true (Store.recover a = Store.recover b);
    (Store.hint_misses a, Fault.observed f Fault.Store_csum, oa)
  in
  (match run None with
  | 0, 0, Store.Committed { chunks_new = 0; _ } -> ()
  | misses, _, _ -> Alcotest.failf "an intact store: %d hint misses, or chunks written" misses);
  List.iter
    (fun at ->
      let misses, rotted, _ = run (Some at) in
      checki "the rotted straddling copy is refused" 1 misses;
      checki "and observed as rot" 1 rotted)
    [ split - 1; split; d + 4095 ]

(* A clean chunk whose content an earlier chunk of the same commit has
   just written again (its stored copy rotted) is verified in place
   against that pending record and shares it: no hint miss. *)
let test_clean_chunk_shares_pending () =
  let img = Bytes.make 8192 'A' in
  let f = Fault.create ~seed:1L () in
  let a = store_for ~faults:f ~image_bytes:8192 () and b = store_for ~image_bytes:8192 () in
  List.iter (fun s -> ignore (Store.commit s (Store.of_bytes img))) [ a; b ];
  let at =
    match Hashtbl.find_opt (stored_chunks (Store.device a) img) 0 with
    | Some d -> d + 100
    | None -> Alcotest.fail "the chunk is stored"
  in
  List.iter (fun s -> Blockdev.pwrite (Store.device s) ~off:at (Bytes.make 1 'R') ~pos:0 ~len:1) [ a; b ];
  let hinted = { (Store.of_bytes img) with Store.clean = Some (1, fun i -> i = 1) } in
  let oa = Store.commit a hinted and ob = Store.commit b (Store.of_bytes img) in
  checkb "same outcome" true (oa = ob);
  (match oa with
  | Store.Committed { chunks_new = 1; chunks_shared = 1; _ } -> ()
  | _ -> Alcotest.fail "one chunk written again, the clean one shares it");
  checki "the clean chunk matched the pending copy" 0 (Store.hint_misses a);
  checki "the dirty chunk's refused verify observed the rot" 1 (Fault.observed f Fault.Store_csum);
  checkb "same recovery" true (Store.recover a = Store.recover b)

(* GC rebuilds each chunk record's header from its manifest entry and
   moves only the payload: a rotted header comes out whole, so the
   generation it broke recovers again after the compaction. *)
let test_gc_rebuilds_rotted_header () =
  let img = Bytes.init 12_288 (fun i -> Char.chr (((i * 7) + (i / 4096)) land 0xff)) in
  let store = store_for ~image_bytes:12_288 () in
  ignore (Store.commit store (Store.of_bytes img));
  let d =
    match Hashtbl.find_opt (stored_chunks (Store.device store) img) 1 with
    | Some d -> d
    | None -> Alcotest.fail "the chunk is stored"
  in
  (* a bit of the record's hash field *)
  Blockdev.pwrite (Store.device store) ~off:(d - 16) (Bytes.make 1 '\xff') ~pos:0 ~len:1;
  checkb "the rotted header breaks the generation" true (Store.recover store = None);
  (match Store.gc store with
  | Store.Gc_committed { live_chunks = 3; _ } -> ()
  | _ -> Alcotest.fail "the compaction moves three chunks");
  match Store.recover store with
  | Some (got, 1) -> checkb "the compacted generation recovers" true (Bytes.equal got img)
  | _ -> Alcotest.fail "generation 1 must recover after GC"

(* A source reads the image its capture serializes, in any order of
   reads: its cursor steps forward a record at a time and searches again
   for a read that starts behind it.  Reads start anywhere, many near a
   record boundary; some pages are written and the rest read as zeros
   without a page of their own, and ballooned pages make 16-byte
   records. *)
let source_reads_as_capture_prop =
  let rec_at r d = 16 + (4112 * r) + d in
  QCheck2.Test.make ~count:60 ~name:"a source reads as its capture"
    ~print:(fun ((written, balloons), reads) ->
      Printf.sprintf "written [%s], balloon [%s], reads [%s]"
        (String.concat ";" (List.map string_of_int written))
        (String.concat ";" (List.map string_of_int balloons))
        (String.concat ";" (List.map (fun (p, l) -> Printf.sprintf "%d+%d" p l) reads)))
    QCheck2.Gen.(
      pair
        (pair (list_size (int_range 0 8) (int_range 1 15)) (list_size (int_range 0 3) (int_range 1 15)))
        (list_size (int_range 1 40)
           (pair
              (oneof
                 [ int_bound 80_000;
                   map2 rec_at (int_bound 16) (int_range (-20) 20) ])
              (oneof [ int_bound 40; int_bound 9000 ]))))
    (fun ((written, balloons), reads) ->
      let hyp = make_hyp ~frames:256 () in
      let vm = unikernel hyp "reader" [ label "idle"; jmp "idle" ] in
      List.iter
        (fun g -> ignore (Vm.write_gpa_u64 vm (Int64.of_int ((g * 4096) + (g * 8))) (Int64.of_int (g + 1))))
        written;
      List.iter (fun g -> ignore (Vm.balloon_out vm (Int64.of_int g))) balloons;
      let img = Snapshot.capture vm in
      let src =
        match Snapshot.source vm with Ok s -> Snapshot.chunks s | Error _ -> assert false
      in
      let n = Bytes.length img in
      List.for_all
        (fun (p, l) ->
          let pos = max 0 (min p (n - 1)) in
          let len = min l (n - pos) in
          let b = Bytes.make (len + 3) '?' in
          src.Store.blit ~pos b ~off:3 ~len;
          let flipped = Bytes.copy img in
          if len > 0 then begin
            let q = pos + (len / 2) in
            Bytes.set flipped q (Char.chr (Char.code (Bytes.get flipped q) lxor 1))
          end;
          Bytes.sub b 3 len = Bytes.sub img pos len
          && src.Store.equal ~pos img ~off:pos ~len
          && (len = 0 || not (src.Store.equal ~pos flipped ~off:pos ~len)))
        reads)

(* A commit keeps refcounts up to date by merges: the catalog window's
   change from the rows of the manifests entering and leaving it.  They
   must equal a model: the entries of the streams' last two catalogs,
   each (stream, generation) counted once.  Images repeat chunks (counts
   above 1) and change length, and the small device runs GC; a remount
   rebuilds the same counts from the manifests. *)
let store_refcounts_prop =
  QCheck2.Test.make ~count:60 ~name:"refcounts equal the catalog window's entries"
    ~print:(fun steps ->
      String.concat "; "
        (List.map
           (fun (s, cs, tail) ->
             Printf.sprintf "%d:[%s]+%d" s (String.concat "," (List.map string_of_int cs)) tail)
           steps))
    QCheck2.Gen.(
      list_size (int_range 1 20)
        (triple (int_range 0 2) (list_size (int_range 1 6) (int_range 0 5)) (int_range 1 4096)))
    (fun steps ->
      (* 50 KiB spaces: about one case in two compacts *)
      let store = Store.create ~sectors:202 () in
      (* the hashes of each committed (stream, generation), and the
         catalogs as the (stream, generation) pairs they name *)
      let hashes = Hashtbl.create 16 in
      let newest = ref [] and older = ref [] in
      let counts () =
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun key ->
            List.iter
              (fun h -> Hashtbl.replace tbl h (1 + Option.value ~default:0 (Hashtbl.find_opt tbl h)))
              (Hashtbl.find hashes key))
          (List.sort_uniq compare (!newest @ !older));
        tbl
      in
      let agree s =
        let tbl = counts () in
        Store.chunks_live s = Hashtbl.length tbl
        && Hashtbl.fold (fun h n ok -> ok && Store.refcount s h = n) tbl true
      in
      List.for_all
        (fun (s, chunks, tail) ->
          let img =
            Bytes.concat Bytes.empty (List.map (fun c -> Bytes.make 4096 (Char.chr (65 + c))) chunks)
          in
          let img = Bytes.sub img 0 (Bytes.length img - 4096 + tail) in
          let id = string_of_int s in
          (match Store.commit ~id store (Store.of_bytes img) with
          | Store.Committed { gen; _ } ->
              Hashtbl.replace hashes (id, gen)
                (List.init
                   ((Bytes.length img + 4095) / 4096)
                   (fun i ->
                     Velum_util.Fnv.hash_bytes ~pos:(i * 4096)
                       ~len:(min 4096 (Bytes.length img - (i * 4096)))
                       img));
              older := !newest;
              newest := (id, gen) :: List.filter (fun (s', _) -> s' <> id) !newest
          | Store.Torn _ -> ()
          | exception Invalid_argument _ ->
              (* the GC that ran first left one catalog *)
              older := []);
          agree store)
        steps
      &&
      let remounted = Store.mount (Store.device store) in
      Store.ref_rebuilds remounted = 0 && agree remounted)

(* The tuple merge the packed [Store.merge_rows] replaced: rows and
   changes as hash-ordered [(hash, n)] arrays. *)
let merge_rows_model rows changes =
  let out = ref [] in
  let emit h n = if n > 0 then out := (h, n) :: !out in
  let i = ref 0 and j = ref 0 in
  let nr = Array.length rows and nc = Array.length changes in
  while !i < nr || !j < nc do
    let c =
      if !i >= nr then 1
      else if !j >= nc then -1
      else Int64.compare (fst rows.(!i)) (fst changes.(!j))
    in
    if c < 0 then (
      emit (fst rows.(!i)) (snd rows.(!i));
      incr i)
    else if c > 0 then (
      emit (fst changes.(!j)) (snd changes.(!j));
      incr j)
    else (
      emit (fst rows.(!i)) (snd rows.(!i) + snd changes.(!j));
      incr i;
      incr j)
  done;
  List.rev !out

let pack_rows rows =
  let b = Bytes.create (16 * List.length rows) in
  List.iteri
    (fun i (h, n) ->
      Bytes.set_int64_le b (16 * i) h;
      Bytes.set_int64_le b ((16 * i) + 8) (Int64.of_int n))
    rows;
  b

let unpack_rows b =
  List.init (Bytes.length b / 16) (fun i ->
      (Bytes.get_int64_le b (16 * i), Int64.to_int (Bytes.get_int64_le b ((16 * i) + 8))))

(* Hashes from a small pool (so rows and changes overlap), both signs;
   deltas that cancel a count exactly, overshoot it, or add to it. *)
let merge_rows_prop =
  QCheck2.Test.make ~count:500 ~name:"packed merge_rows = tuple merge"
    QCheck2.Gen.(
      let hash =
        map (fun k -> Int64.mul (Int64.of_int (k - 40)) 0x0123456789ABCDEL) (int_bound 80)
      in
      pair
        (list_size (int_range 0 60) (pair hash (int_range 1 5)))
        (list_size (int_range 0 60) (pair hash (int_range (-6) 6))))
    (fun (rows, changes) ->
      let distinct l =
        List.sort_uniq (fun (a, _) (b, _) -> Int64.compare a b) l
      in
      let rows = distinct rows in
      (* some deltas cancel their row exactly *)
      let changes =
        distinct changes
        |> List.map (fun (h, d) ->
               match List.assoc_opt h rows with
               | Some n when d = 0 -> (h, -n)
               | _ -> (h, if d = 0 then 1 else d))
      in
      let got = unpack_rows (Store.merge_rows (pack_rows rows) (pack_rows changes)) in
      got = merge_rows_model (Array.of_list rows) (Array.of_list changes))

(* A hinted commit of a large image builds no array whose initial value
   is a fresh block, so it forces no minor collection: 16 commits of a
   640-chunk image run at most two minor collections more than their
   allocation volume fills the minor heap (3 in all here, against 33
   when each commit's tables forced their own). *)
let test_commit_forces_no_minor_gc () =
  let nchunks = 640 in
  let image_bytes = nchunks * Store.chunk_bytes in
  let img = Bytes.make image_bytes '\000' in
  for i = 0 to nchunks - 1 do
    Bytes.set_int64_le img (i * Store.chunk_bytes) (Int64.of_int (i + 1))
  done;
  let store = store_for ~image_bytes () in
  ignore (Store.commit store (Store.of_bytes img));
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let words0 = Gc.minor_words () in
  for g = 1 to 16 do
    let src = { (Store.of_bytes img) with Store.clean = Some (g, fun _ -> true) } in
    match Store.commit store src with
    | Store.Committed { chunks_new = 0; _ } -> ()
    | _ -> Alcotest.fail "a clean commit writes no chunk"
  done;
  let minors = (Gc.quick_stat ()).Gc.minor_collections - before in
  let by_volume =
    int_of_float ((Gc.minor_words () -. words0) /. float_of_int (Gc.get ()).Gc.minor_heap_size)
  in
  checki "hinted commits refused nothing" 0 (Store.hint_misses store);
  if minors > by_volume + 2 then
    Alcotest.failf
      "16 hinted commits ran %d minor collections (allocation fills the heap %d times)" minors
      by_volume

(* A clone copies only the written extents, yet reads, recovers and
   resumes exactly as the original; writes to it stay its own. *)
let test_clone_copies_written_extents () =
  let store =
    Store.create ~sectors:(Store.fleet_sectors_for ~streams:3 ~image_bytes:50_000) ()
  in
  List.iteri
    (fun i id ->
      for g = 1 to 2 do
        let img = Bytes.make 50_000 (Char.chr (97 + i)) in
        Bytes.fill img (g * 1_000) 3_000 'z';
        ignore (Store.commit ~id store (Store.of_bytes img))
      done)
    [ "a"; "b"; "c" ];
  let c = Store.clone store in
  let dev s = Store.device s in
  let resident = Blockdev.resident_bytes (dev store) in
  let cap = Blockdev.capacity_bytes (dev store) in
  checkb "the store is sparse" true (4 * resident < cap);
  checki "same resident bytes" resident (Blockdev.resident_bytes (dev c));
  checkb "same device bytes" true
    (Bytes.equal (Blockdev.pread (dev store) ~off:0 ~len:cap)
       (Blockdev.pread (dev c) ~off:0 ~len:cap));
  List.iter
    (fun id ->
      checkb ("same recovery of " ^ id) true
        (Store.recover ~id store = Store.recover ~id c))
    [ "a"; "b"; "c"; "none" ];
  ignore (Store.commit ~id:"a" c (Store.of_bytes (Bytes.make 50_000 'q')));
  checki "the clone moves on" 3 (Store.stream_generation ~id:"a" c);
  checki "the original does not" 2
    (Store.stream_generation ~id:"a" (Store.mount (dev store)))

(* ---------------- snapshot: rejected restores leave no trace ---------------- *)


let snap_base_image =
  lazy
    (let setup = Images.plan ~heap_pages:4 ~user:(Workloads.hello ()) () in
     let hyp = make_hyp ~frames:(setup.Images.frames + 512) () in
     let vm = Images.create_vm hyp ~name:"h" setup in
     ignore (Hypervisor.run hyp);
     Snapshot.capture vm)

(* Flip one byte anywhere in a valid image.  Whether the restore is then
   rejected or (for flips in benign payload bytes) still succeeds, the
   host must end with exactly the frames and VM registrations it started
   with. *)
let restore_no_leak_prop =
  QCheck2.Test.make ~count:80 ~name:"bit-flipped snapshot restores leak nothing"
    QCheck2.Gen.(pair nat (int_range 0 254))
    (fun (pos_seed, flip) ->
      let image = Bytes.copy (Lazy.force snap_base_image) in
      let pos = pos_seed mod Bytes.length image in
      Bytes.set image pos
        (Char.chr (Char.code (Bytes.get image pos) lxor (1 + flip)));
      let hyp = make_hyp ~frames:4096 () in
      let used0 = Frame_alloc.used_count (Hypervisor.host hyp).Host.alloc in
      let nvms0 = List.length hyp.Hypervisor.vms in
      (match Snapshot.restore hyp image with
      | vm -> Hypervisor.remove_vm hyp vm
      | exception Failure _ -> ());
      Frame_alloc.used_count (Hypervisor.host hyp).Host.alloc = used0
      && List.length hyp.Hypervisor.vms = nvms0)

let test_truncated_restore_rejected () =
  let image = Lazy.force snap_base_image in
  let hyp = make_hyp ~frames:4096 () in
  let used0 = Frame_alloc.used_count (Hypervisor.host hyp).Host.alloc in
  let cut = Bytes.sub image 0 (Bytes.length image / 2) in
  (match Snapshot.restore hyp cut with
  | _ -> Alcotest.fail "truncated image must be rejected"
  | exception Failure _ -> ());
  checki "frames reclaimed" used0
    (Frame_alloc.used_count (Hypervisor.host hyp).Host.alloc);
  checki "no half-built VM registered" 0 (List.length hyp.Hypervisor.vms)

(* ---------------- one state codec: cut anywhere, resume elsewhere ---------------- *)

(* What a finished guest shows: console, instructions retired (unless
   [instret] is false), and each block device's completed-op and error
   counters. *)
let observed ?(instret = true) (vm : Vm.t) =
  Printf.sprintf "%S instret=%s blk=%d/%d vblk=%d/%d" (Vm.console_output vm)
    (if instret then Int64.to_string (Vm.instret vm) else "-")
    (Blockdev.completed_ops vm.Vm.blk) (Blockdev.error_count vm.Vm.blk)
    (Virtio_blk.completed_ops vm.Vm.vblk)
    (Virtio_blk.error_count vm.Vm.vblk)

(* A hypervisor that switches every 1,500 cycles, so that a run cut at
   a slice boundary stops anywhere in a guest's I/O, and a moved VM's
   slices start where the uncut run's do. *)
let fine_hypervisor setup =
  Hypervisor.create
    ~host:(Host.create ~frames:(setup.Images.frames + 1024) ())
    ~sched:(Credit.create ~slice:1_500 ())
    ()

let fine_boot ~name setup =
  let hyp = fine_hypervisor setup in
  (hyp, Images.create_vm hyp ~name setup)

(* Every workload run uncut to halt once: its cycles and its VM. *)
let uncut_runs =
  lazy
    (List.map
       (fun (name, setup) ->
         let hyp, vm = fine_boot ~name setup in
         if Hypervisor.run hyp <> Hypervisor.All_halted then failwith (name ^ " hangs");
         (name, setup, Hypervisor.now hyp, vm))
       (Setups.workload_setups ()
       @ List.map
           (fun (name, user) -> (name, Images.plan ~heap_pages:8 ~user ()))
           [
             ("blk-3", Workloads.blk_read ~sector:0 ~count:4 ~reps:3);
             ("vblk-3", Workloads.vblk_read ~sector:0 ~count:4 ~reps:3);
           ]))

(* Each way a VM leaves its hypervisor for another: the hypervisor it
   goes on on and the VM that goes on.  [peer] makes the destination. *)
let moves peer =
  [
    ("capture/restore", fun _ vm ->
        let dst = peer () in
        (dst, Snapshot.restore dst (Snapshot.capture vm)));
    ("stop-and-copy", fun src vm ->
        let dst = peer () in
        (dst, fst (Migrate.stop_and_copy ~src ~dst ~vm ~link:(Link.create ()) ())));
    ("postcopy", fun src vm ->
        let dst = peer () in
        (dst, fst (Migrate.postcopy ~src ~dst ~vm ~link:(Link.create ()) ())));
    ("failover", fun primary vm ->
        let backup = peer () in
        let s = Replicate.start ~primary ~backup ~vm ~link:(Link.create ()) () in
        (backup, Replicate.failover s));
  ]

(* Cut a guest at a random cycle, move it by every path, run the moved
   VM to halt: it must show exactly what the uncut run showed.  Device
   state in flight at the cut (a block request, a pending completion)
   must move with the vCPUs, or the guest waits forever.  Post-copy runs
   the moved guest outside the scheduler while it pulls pages
   ({!Hypervisor.run_vm}, no slice switches, stalls on demand fetches),
   so a guest polling a device retires a different number of polls
   there: its instret is not compared. *)
let roundtrip_prop =
  QCheck2.Test.make ~count:5 ~name:"a guest cut anywhere resumes to the uncut result"
    QCheck2.Gen.(float_range 0.02 0.98)
    (fun frac ->
      List.for_all
        (fun (name, setup, cycles, uncut) ->
          let cut = Int64.of_float (frac *. Int64.to_float cycles) in
          List.for_all
            (fun (path, move) ->
              let src, vm = fine_boot ~name setup in
              ignore (Hypervisor.run src ~budget:cut);
              let dst, moved = move src vm in
              ignore (Hypervisor.run dst ~budget:(Int64.add (Int64.mul 2L cycles) 1_000_000L));
              let instret = path <> "postcopy" in
              let got = observed ~instret moved and want = observed ~instret uncut in
              got = want
              || QCheck2.Test.fail_reportf "%s cut at %Ld via %s: %s, uncut %s" name cut
                   path got want)
            (moves (fun () -> fine_hypervisor setup)))
        (Lazy.force uncut_runs))

(* A VM's whole shape survives every path, live snapshots included:
   binary translation, a 16-entry TLB, weight 512 and the interpreter
   on a host whose default engine is the block engine. *)
let test_shape_survives_every_path () =
  let setup = Images.plan ~user:(Workloads.hello ()) () in
  let shape (vm : Vm.t) =
    ( vm.Vm.exec_mode = Vm.Binary_translation,
      Array.to_list (Array.map Tlb.size vm.Vm.tlbs),
      Array.to_list (Array.map (fun (v : Vcpu.t) -> v.Vcpu.weight) vm.Vm.vcpus),
      Vm.engine_kind vm )
  in
  let want = (true, [ 16; 16 ], [ 512; 512 ], Engine.Interp) in
  let peer () = Images.hypervisor setup in
  let live hyp vm = (hyp, Snapshot.restore_live hyp (Snapshot.capture_live vm)) in
  let precopy src vm =
    let dst = peer () in
    (dst, fst (Migrate.precopy ~src ~dst ~vm ~link:(Link.create ()) ()))
  in
  List.iter
    (fun (path, move) ->
      let hyp = peer () in
      checkb "the host default is another engine" true
        ((Hypervisor.host hyp).Host.default_engine <> Engine.Interp);
      let vm =
        Images.create_vm hyp ~name:"shape" ~vcpu_count:2 ~exec_mode:Vm.Binary_translation
          ~tlb_size:16 ~weight:512 ~engine:Engine.Interp setup
      in
      checkb "booted with the shape" true (shape vm = want);
      ignore (Hypervisor.run hyp ~budget:20_000L);
      let _, moved = move hyp vm in
      checkb (path ^ " keeps the shape") true (shape moved = want))
    (("capture_live/restore_live", live) :: ("precopy", precopy) :: moves peer)

(* ---------------- replication: idempotent failover ---------------- *)

let test_failover_idempotent () =
  let setup =
    Images.plan ~heap_pages:32 ~user:(Workloads.dirty_loop ~pages:16 ~delay:50) ()
  in
  let primary = make_hyp ~frames:(setup.Images.frames + 512) () in
  let backup = make_hyp ~frames:(setup.Images.frames + 512) () in
  let vm = Images.create_vm primary ~name:"p" setup in
  ignore (Hypervisor.run primary ~budget:1_000_000L);
  let link = Link.create () in
  let session = Replicate.start ~primary ~backup ~vm ~link () in
  for _ = 1 to 3 do
    ignore (Replicate.epoch session ~run_cycles:150_000L)
  done;
  checkb "not yet failed over" true (Replicate.failed_over session = None);
  let twin1 = Replicate.failover session in
  (* the racing second invocation must return the same twin, not raise *)
  let twin2 = Replicate.failover session in
  checkb "same twin" true (twin1 == twin2);
  checkb "accessor agrees" true
    (match Replicate.failed_over session with
    | Some v -> v == twin1
    | None -> false);
  checki "failover event recorded once" 1
    (Monitor.count twin1.Vm.monitor Monitor.E_ha_failover);
  checkb "twin finishes on the backup" true
    (Hypervisor.run backup ~budget:50_000_000L = Hypervisor.Out_of_budget
    || Vm.halted twin1)

(* ---------------- watchdog policies ---------------- *)

let spin_forever = [ label "spin"; jmp "spin" ]
let wedge_now = [ wfi; halt ]

(* A stalled-but-not-halted VM next to a spinner that keeps the clock
   moving: Wd_kill must fire exactly once (the halt ends the stall
   window family for good). *)
let test_wd_kill_fires_once () =
  let hyp = make_hyp () in
  let _spin = unikernel hyp "spin" spin_forever in
  let stuck = unikernel hyp "stuck" wedge_now in
  Hypervisor.set_watchdog hyp ~budget:50_000L ~policy:Hypervisor.Wd_kill;
  ignore (Hypervisor.run hyp ~budget:2_000_000L);
  checki "fired exactly once" 1 (Hypervisor.watchdog_fired hyp);
  checki "counted on the stalled VM" 1 (Monitor.count stuck.Vm.monitor Monitor.E_watchdog);
  checkb "stalled VM halted" true (Vm.halted stuck)

(* Wd_notify restarts the window on each firing: one firing per full
   stall window, deterministically. *)
let test_wd_notify_once_per_window () =
  let fired budget =
    let hyp = make_hyp () in
    let _spin = unikernel hyp "spin" spin_forever in
    let stuck = unikernel hyp "stuck" wedge_now in
    Hypervisor.set_watchdog hyp ~budget ~policy:Hypervisor.Wd_notify;
    ignore (Hypervisor.run hyp ~budget:2_000_000L);
    checkb "still stalled, not halted" false (Vm.halted stuck);
    checki "counted on the stalled VM" (Hypervisor.watchdog_fired hyp)
      (Monitor.count stuck.Vm.monitor Monitor.E_watchdog);
    Hypervisor.watchdog_fired hyp
  in
  let n = fired 50_000L in
  checkb "fires once per elapsed window" true (n >= 2);
  checki "deterministic across identical runs" n (fired 50_000L);
  checkb "a shorter window fires at least as often" true (fired 25_000L >= n)

(* Wd_restart with no handler attached degenerates to kill. *)
let test_wd_restart_without_handler_kills () =
  let hyp = make_hyp () in
  let _spin = unikernel hyp "spin" spin_forever in
  let stuck = unikernel hyp "stuck" wedge_now in
  Hypervisor.set_watchdog hyp ~budget:50_000L ~policy:Hypervisor.Wd_restart;
  ignore (Hypervisor.run hyp ~budget:2_000_000L);
  checki "fired exactly once" 1 (Hypervisor.watchdog_fired hyp);
  checkb "stalled VM halted" true (Vm.halted stuck)

(* ---------------- HA supervisor ---------------- *)

let spin_n_then_halt n =
  [ li r2 (Int64.of_int n); label "spin"; addi r2 r2 (-1L); bne r2 r0 "spin"; halt ]

(* The guest spins, then wedges itself: every restore replays into the
   same wedge — the crash-loop shape. *)
let spin_then_wedge n =
  [ li r2 (Int64.of_int n); label "spin"; addi r2 r2 (-1L); bne r2 r0 "spin"; wfi; halt ]

let reference_instret prog =
  let hyp = make_hyp () in
  let vm = unikernel hyp "ref" prog in
  (match Hypervisor.run hyp with
  | Hypervisor.All_halted -> ()
  | _ -> Alcotest.fail "reference run did not halt");
  vm_instret vm

let supervised ?faults ?(checkpoint_every = 100_000L) ?(wd_budget = 30_000L)
    ?(backoff_base = 50_000L) ?max_restarts prog =
  let hyp = make_hyp () in
  let vm = unikernel hyp "work" prog in
  let store = store_for ?faults ~image_bytes:(Snapshot.image_bytes vm) () in
  let sup =
    Ha.create ~hyp ~store ~vm ~checkpoint_every ~wd_budget ~backoff_base
      ?max_restarts ()
  in
  (hyp, sup)

(* An externally injected stall: the supervisor must notice, destroy the
   wedged VM, restore the last good checkpoint, and the guest must then
   finish with the exact instruction count of an undisturbed run —
   without a single manual recovery call. *)
let test_ha_restart_recovers () =
  let prog = spin_n_then_halt 100_000 in
  let base = reference_instret prog in
  let _hyp, sup = supervised prog in
  (* incremental commits pause the guest for the delta only, so keep the
     budget well short of the ~200k instructions the program needs *)
  (match Ha.run sup ~budget:150_000L with
  | Hypervisor.Out_of_budget -> ()
  | _ -> Alcotest.fail "guest should still be running");
  checkb "checkpoints committed" true ((Ha.stats sup).Ha.checkpoints >= 1);
  Ha.inject_stall (Ha.vm sup);
  (match Ha.run sup ~budget:50_000_000L with
  | Hypervisor.All_halted -> ()
  | _ -> Alcotest.fail "supervised guest must finish after the restart");
  let s = Ha.stats sup in
  checki "exactly one restart" 1 s.Ha.restarts;
  checkb "not degraded" false s.Ha.degraded;
  checki "restart recorded on the restored VM" 1
    (Monitor.count (Ha.vm sup).Vm.monitor Monitor.E_ha_restart);
  checkb "MTTR accounted" true (s.Ha.mttr_events = 1 && s.Ha.mttr_total > 0L);
  check64 "lockstep with the undisturbed run" base (vm_instret (Ha.vm sup))

(* A guest that wedges from its own state replays into the wedge on
   every restore: the crash-loop budget must bound the futility and
   degrade the VM to halted, with the Monitor event to show for it. *)
let test_ha_crash_loop_degrades () =
  let _hyp, sup = supervised ~checkpoint_every:30_000L (spin_then_wedge 50_000) in
  (match Ha.run sup ~budget:100_000_000L with
  | Hypervisor.All_halted -> ()
  | o ->
      Alcotest.failf "degraded VM should read as halted, got %s"
        (match o with
        | Hypervisor.Out_of_budget -> "out-of-budget"
        | Hypervisor.Idle_deadlock -> "idle-deadlock"
        | _ -> "?"));
  let s = Ha.stats sup in
  checkb "degraded" true s.Ha.degraded;
  checki "restart budget exhausted" 3 s.Ha.restarts;
  checki "degradation recorded" 1
    (Monitor.count (Ha.vm sup).Vm.monitor Monitor.E_ha_degraded);
  checkb "kept registered for post-mortem" true
    (Array.length (Ha.vm sup).Vm.vcpus > 0)

(* End-to-end adversarial run: torn checkpoint commits and latent rot
   from a seeded plan, plus an injected stall — recovery must be fully
   automatic (the test only ever calls Ha.run) and land on the exact
   instruction count of the fault-free run. *)
let test_ha_adversarial_end_to_end () =
  let prog = spin_n_then_halt 100_000 in
  let base = reference_instret prog in
  let f = Fault.create ~seed:7L () in
  Fault.set_prob f Fault.Store_torn 0.3;
  Fault.set_prob f Fault.Store_csum 0.15;
  let _hyp, sup = supervised ~faults:f prog in
  ignore (Ha.run sup ~budget:300_000L);
  Ha.inject_stall (Ha.vm sup);
  (match Ha.run sup ~budget:100_000_000L with
  | Hypervisor.All_halted -> ()
  | _ -> Alcotest.fail "adversarial run must still finish");
  let s = Ha.stats sup in
  checkb "not degraded" false s.Ha.degraded;
  checkb "the plan actually bit" true
    (s.Ha.torn_checkpoints >= 1 || Fault.injected f Fault.Store_csum >= 1);
  check64 "lockstep with the fault-free run" base (vm_instret (Ha.vm sup))

(* A data page that cannot be brought back in (swapped out, host out of
   frames) makes the checkpoint a skip, not a commit of zeros: the
   store's generation stays where it was and the guest runs on. *)
let test_ha_unresolvable_page_skips () =
  let hyp = make_hyp ~frames:256 () in
  let host = Hypervisor.host hyp in
  let vm = unikernel hyp "full" (spin_n_then_halt 1_000_000) in
  let store = store_for ~image_bytes:(Snapshot.image_bytes vm) () in
  let sup = Ha.create ~hyp ~store ~vm ~checkpoint_every:50_000L () in
  checki "baseline committed" 1 (Store.stream_generation store);
  let gfn = 8L in
  (match P2m.get vm.Vm.p2m gfn with
  | P2m.Present { hpa_ppn; _ } ->
      let slot = Host.swap_out host ~ppn:hpa_ppn in
      ignore (Frame_alloc.decr_ref host.Host.alloc hpa_ppn);
      P2m.set vm.Vm.p2m gfn (P2m.Swapped { slot });
      Vm.flush_all_tlbs vm
  | _ -> Alcotest.fail "page 8 must be present");
  while Frame_alloc.alloc host.Host.alloc <> None do () done;
  checkb "the source names the missing page" true
    (match Snapshot.source vm with Error g -> g = gfn | Ok _ -> false);
  (match Ha.run sup ~budget:300_000L with
  | Hypervisor.Out_of_budget -> ()
  | _ -> Alcotest.fail "the guest keeps running");
  let s = Ha.stats sup in
  checki "store generation unchanged" 1 (Store.stream_generation store);
  checki "nothing committed" 1 (Store.commits store);
  checki "skips are not torn" 0 s.Ha.torn_checkpoints;
  checki "only the baseline counts" 1 s.Ha.checkpoints;
  checkb "capture refuses too" true
    (match Snapshot.capture vm with _ -> false | exception Failure _ -> true)

(* Every supervisor on a host reads the host's one dirty tracker: a
   second supervisor adds no write listener. *)
let test_one_tracker_per_host () =
  let hyp = make_hyp () in
  let mem = (Hypervisor.host hyp).Host.mem in
  let vm1 = unikernel hyp "a" (spin_n_then_halt 1_000_000) in
  let vm2 = unikernel hyp "b" (spin_n_then_halt 1_000_000) in
  let store () = store_for ~image_bytes:(Snapshot.image_bytes vm1) () in
  let before = Phys_mem.listener_count mem in
  let s1 = Ha.create ~hyp ~store:(store ()) ~vm:vm1 () in
  checki "the first supervisor attaches the tracker" (before + 1)
    (Phys_mem.listener_count mem);
  let s2 = Ha.create ~hyp ~store:(store ()) ~vm:vm2 () in
  checki "the second shares it" (before + 1) (Phys_mem.listener_count mem);
  ignore (Ha.run s2 ~budget:600_000L);
  checkb "both supervisors checkpointed" true
    ((Ha.stats s1).Ha.checkpoints >= 1 && (Ha.stats s2).Ha.checkpoints >= 2)

(* ---------------- heartbeat failover ---------------- *)

let failover_setup () =
  let setup =
    Images.plan ~heap_pages:32 ~user:(Workloads.dirty_loop ~pages:16 ~delay:50) ()
  in
  let primary = make_hyp ~frames:(setup.Images.frames + 512) () in
  let backup = make_hyp ~frames:(setup.Images.frames + 512) () in
  let vm = Images.create_vm primary ~name:"prot" setup in
  ignore (Hypervisor.run primary ~budget:1_000_000L);
  (primary, backup, vm, Link.create ())

let test_failover_healthy_run () =
  let primary, backup, vm, link = failover_setup () in
  let fo = Ha.Failover.create ~primary ~backup ~vm ~link () in
  let survivor, s = Ha.Failover.run fo ~epoch_cycles:150_000L ~epochs:12 in
  checkb "no failover" true (s.Ha.Failover.failover_at = None);
  checki "generation unchanged" 1 s.Ha.Failover.generation;
  checkb "survivor is the primary instance" true (survivor == vm);
  checkb "heartbeats flowed" true (s.Ha.Failover.hb_seen >= 10);
  checkb "primary still allowed to run" true (Ha.Failover.primary_may_run fo)

(* Host death: heartbeats stop, the backup counts misses and activates
   the twin on its own — zero manual failover calls. *)
let test_failover_on_primary_death () =
  let primary, backup, vm, link = failover_setup () in
  let fo =
    Ha.Failover.create ~primary ~backup ~vm ~link ~primary_dies_at:1_500_000L ()
  in
  let survivor, s = Ha.Failover.run fo ~epoch_cycles:150_000L ~epochs:20 in
  checkb "failed over" true (s.Ha.Failover.failover_at <> None);
  checki "generation bumped once" 2 s.Ha.Failover.generation;
  checkb "survivor is the twin" true (survivor != vm);
  checki "failover event recorded" 1
    (Monitor.count survivor.Vm.monitor Monitor.E_ha_failover);
  checkb "twin ran on the backup" true (s.Ha.Failover.backup_epochs >= 1);
  (match s.Ha.Failover.mttr with
  | Some m -> checkb "MTTR covers the miss window" true (m > 0L)
  | None -> Alcotest.fail "MTTR must be measured");
  checkb "dead primary never fenced (it never came back)" false s.Ha.Failover.fenced

(* Split-brain: every heartbeat is eaten but the primary is alive.  The
   backup takes over; the stale primary must fence itself on the first
   TAKEOVER it hears and refuse to run from then on. *)
let test_failover_fences_stale_primary () =
  let primary, backup, vm, link = failover_setup () in
  let f = Fault.create ~seed:11L () in
  Fault.set_prob f Fault.Hb_loss 1.0;
  let fo = Ha.Failover.create ~faults:f ~primary ~backup ~vm ~link () in
  let survivor, s = Ha.Failover.run fo ~epoch_cycles:150_000L ~epochs:16 in
  checkb "failed over" true (s.Ha.Failover.failover_at <> None);
  checki "generation bumped" 2 s.Ha.Failover.generation;
  checkb "every heartbeat was eaten" true
    (s.Ha.Failover.hb_sent = 0 && s.Ha.Failover.hb_lost >= 3);
  checkb "losses observed at detection" true (Fault.observed f Fault.Hb_loss >= 1);
  checkb "stale primary fenced" true s.Ha.Failover.fenced;
  checkb "fenced primary may not run" false (Ha.Failover.primary_may_run fo);
  checkb "split-brain window was bounded" true
    (s.Ha.Failover.split_brain_epochs >= 1
    && s.Ha.Failover.split_brain_epochs <= 3);
  checkb "survivor is the twin" true (survivor != vm);
  checki "primary's instance destroyed by the fence" 0
    (List.length primary.Hypervisor.vms)

(* Same seed, same schedule: the whole failover drama is deterministic. *)
let failover_deterministic_prop =
  QCheck2.Test.make ~count:4 ~name:"seeded heartbeat-loss failover is deterministic"
    QCheck2.Gen.(int_range 0 999)
    (fun seed ->
      let run () =
        let primary, backup, vm, link = failover_setup () in
        let f = Fault.create ~seed:(Int64.of_int seed) () in
        Fault.set_prob f Fault.Hb_loss 0.4;
        let fo = Ha.Failover.create ~faults:f ~primary ~backup ~vm ~link () in
        let survivor, s = Ha.Failover.run fo ~epoch_cycles:120_000L ~epochs:14 in
        let open Ha.Failover in
        ( s.hb_sent, s.hb_lost, s.hb_seen, s.generation, s.fenced, s.failover_at,
          s.mttr, s.primary_epochs, s.backup_epochs, vm_instret survivor )
      in
      run () = run ())

(* ---------------- dirty-frame tracking ---------------- *)

(* [Churn] lets the memory stop watching a frame once it has stamped it,
   so it must watch every frame again whenever it opens a new epoch.
   Against a model: after each [mark], [drain] and cursor creation, the
   first write to every frame is counted — including frames whose watch
   byte was cleared earlier — and [written_since] answers for every mark
   taken.  A second listener, like a translation cache holding code in
   some frames, shares the watch bytes. *)
type churn_op = C_write of int | C_fill of int | C_mark | C_drain | C_code of int * bool

let churn_prop =
  let frames = 6 in
  QCheck2.Test.make ~count:300 ~name:"churn counts every first write after each mark"
    QCheck2.Gen.(
      let frame = int_range 0 (frames - 1) in
      list_size (int_range 1 80)
        (frequency
           [
             (6, map (fun f -> C_write f) frame);
             (1, map (fun f -> C_fill f) frame);
             (2, return C_mark);
             (2, return C_drain);
             (1, map2 (fun f b -> C_code (f, b)) frame bool);
           ]))
    (fun ops ->
      let mem = Phys_mem.create ~frames in
      let code = Array.make frames false in
      ignore
        (Phys_mem.add_write_listener mem (fun ~ppn ~lo:_ ~hi:_ ->
             if code.(Int64.to_int ppn) then Arch.page_size else 0));
      let t = Churn.attach mem in
      let c = Churn.cursor t in
      (* model: frames written since the cursor's base, and per mark *)
      let dirty = ref [] and marks = ref [] in
      let written f =
        if not (List.mem f !dirty) then dirty := f :: !dirty;
        marks := List.map (fun (m, fs) -> (m, if List.mem f fs then fs else f :: fs)) !marks
      in
      List.for_all
        (fun op ->
          (match op with
          | C_write f ->
              Phys_mem.write mem (Int64.of_int (f * Arch.page_size)) Instr.W64 7L;
              written f
          | C_fill f ->
              Phys_mem.frame_fill mem ~ppn:(Int64.of_int f) 'z';
              written f
          | C_mark -> marks := (Churn.mark t, []) :: !marks
          | C_drain ->
              ignore (Churn.drain c);
              dirty := []
          | C_code (f, b) ->
              code.(f) <- b;
              if b then Phys_mem.watch mem ~ppn:(Int64.of_int f));
          Churn.churned c = List.length !dirty
          && List.for_all
               (fun (m, fs) ->
                 List.for_all
                   (fun f -> Churn.written_since t ~mark:m (Int64.of_int f) = List.mem f fs)
                   (List.init frames Fun.id))
               !marks)
        ops)

let () =
  Alcotest.run "ha"
    [
      ( "store",
        Alcotest.test_case "generations alternate and survive remount" `Quick
          test_store_generations
        :: Alcotest.test_case "store.torn window tears a commit" `Quick
             test_store_torn_site
        :: Alcotest.test_case "store.csum rot falls back a generation" `Quick
             test_store_csum_rot
        :: Alcotest.test_case "new fault sites parse" `Quick test_new_sites_parse
        :: Alcotest.test_case "store.gc window tears a compaction" `Quick
             test_store_gc_site
        :: Alcotest.test_case "store.ref rot is detected and rebuilt" `Quick
             test_store_ref_site
        :: Alcotest.test_case "the hint marks untouched chunks clean" `Quick
             test_hint_marks_clean_chunks
        :: Alcotest.test_case "a lying hint is caught by the verify" `Quick
             test_lying_hint_is_verified
        :: Alcotest.test_case "a refused verify observes rot" `Quick
             test_refused_verify_observes_rot
        :: Alcotest.test_case "an in-place verify reads both spans" `Quick
             test_in_place_verify_straddles
        :: Alcotest.test_case "a clean chunk shares a pending copy" `Quick
             test_clean_chunk_shares_pending
        :: Alcotest.test_case "GC rebuilds a rotted chunk header" `Quick
             test_gc_rebuilds_rotted_header
        :: Alcotest.test_case "hinted commits force no minor collection" `Quick
             test_commit_forces_no_minor_gc
        :: Alcotest.test_case "a clone copies written extents only" `Quick
             test_clone_copies_written_extents
        :: qsuite
             [
               store_crash_sweep_prop; store_gc_live_prop;
               store_delta_oracle_prop; hinted_commit_prop; merge_rows_prop;
               source_reads_as_capture_prop; store_refcounts_prop;
             ] );
      ("churn", qsuite [ churn_prop ]);
      ( "snapshot",
        Alcotest.test_case "truncated image rejected without trace" `Quick
          test_truncated_restore_rejected
        :: Alcotest.test_case "the shape survives every path" `Quick
             test_shape_survives_every_path
        :: qsuite [ restore_no_leak_prop; roundtrip_prop ] );
      ( "replication",
        [ Alcotest.test_case "failover is idempotent" `Quick test_failover_idempotent ] );
      ( "watchdog",
        [
          Alcotest.test_case "kill fires exactly once" `Quick test_wd_kill_fires_once;
          Alcotest.test_case "notify fires once per stall window" `Quick
            test_wd_notify_once_per_window;
          Alcotest.test_case "restart without handler kills" `Quick
            test_wd_restart_without_handler_kills;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "restart recovers to lockstep" `Quick
            test_ha_restart_recovers;
          Alcotest.test_case "crash loop degrades to halted" `Quick
            test_ha_crash_loop_degrades;
          Alcotest.test_case "adversarial plan, zero manual recovery" `Quick
            test_ha_adversarial_end_to_end;
          Alcotest.test_case "an unresolvable page skips the checkpoint" `Quick
            test_ha_unresolvable_page_skips;
          Alcotest.test_case "one dirty tracker per host" `Quick
            test_one_tracker_per_host;
        ] );
      ( "failover",
        Alcotest.test_case "healthy run never fails over" `Quick
          test_failover_healthy_run
        :: Alcotest.test_case "primary death drives automatic failover" `Quick
             test_failover_on_primary_death
        :: Alcotest.test_case "stale primary is generation-fenced" `Quick
             test_failover_fences_stale_primary
        :: qsuite [ failover_deterministic_prop ] );
    ]
