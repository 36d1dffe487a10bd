open Velum_isa
open Velum_machine

type full = Bytes.t

let magic = 0x56454C4D534E5031L (* "VELMSNP1" *)

(* --- little-endian buffer helpers --- *)

let add_i64 buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Buffer.add_bytes buf b

let add_int buf v = add_i64 buf (Int64.of_int v)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

type reader = { data : Bytes.t; mutable pos : int }

let get_i64 r =
  if r.pos + 8 > Bytes.length r.data then failwith "Snapshot: truncated image";
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let get_int r = Int64.to_int (get_i64 r)

(* Fill [dst] from the next [Bytes.length dst] bytes. *)
let get_bytes r dst =
  let n = Bytes.length dst in
  if r.pos + n > Bytes.length r.data then failwith "Snapshot: truncated image";
  Bytes.blit r.data r.pos dst 0 n;
  r.pos <- r.pos + n

let get_str r =
  let n = get_int r in
  if n < 0 || r.pos + n > Bytes.length r.data then failwith "Snapshot: truncated image";
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* --- full snapshots --- *)

let runstate_code = function
  | Vcpu.Runnable | Vcpu.Running -> 0
  | Vcpu.Blocked -> 1
  | Vcpu.Halted -> 2

let runstate_of_code = function
  | 0 -> Vcpu.Runnable
  | 1 -> Vcpu.Blocked
  | 2 -> Vcpu.Halted
  | _ -> failwith "Snapshot: bad runstate"

(* --- the image layout, defined once ---

   header   magic, name, mem_frames, vCPU count, paging, PV flags, then
            each vCPU's registers, pc, mode, CSRs, halted, waiting,
            instret and run state; then the page count
   pages    one record per gfn, in gfn order: gfn, kind (0 = data,
            1 = ballooned, 2 = absent), and for data the 4096 page bytes
   console  length-prefixed console output

   A [layout] is that image over the live VM: the header and console
   are serialized (they are small), page bytes stay in their frames
   until someone blits them out. *)

let kind_data = 0
let kind_ballooned = 1
let kind_absent = 2
let record_header = 16

type layout = {
  vm : Vm.t;
  head : Bytes.t; (* header and page count *)
  frames : int array;
      (* per gfn: the backing ppn of a data page, or -kind for the others *)
  starts : int array;
      (* per gfn: image offset of its record; [starts.(n)] is the console's *)
  tail : Bytes.t; (* length-prefixed console *)
  length : int;
}

let kind_of_frame f = if f >= 0 then kind_data else -f

let header (vm : Vm.t) =
  let buf = Buffer.create 1024 in
  add_i64 buf magic;
  add_str buf vm.Vm.name;
  add_int buf (Vm.mem_frames vm);
  add_int buf (Array.length vm.Vm.vcpus);
  add_int buf (match vm.Vm.paging with Vm.Shadow_paging -> 0 | Vm.Nested_paging -> 1);
  add_int buf (if vm.Vm.pv.Vm.pv_console then 1 else 0);
  add_int buf (if vm.Vm.pv.Vm.pv_pt then 1 else 0);
  Array.iter
    (fun (vcpu : Vcpu.t) ->
      let s = vcpu.Vcpu.state in
      (* 16 registers then the PC: the register file's own layout *)
      Buffer.add_bytes buf s.Cpu.regs;
      add_int buf (match s.Cpu.mode with Arch.User -> 0 | Arch.Supervisor -> 1);
      Array.iter (add_i64 buf) s.Cpu.csrs;
      add_int buf (if s.Cpu.halted then 1 else 0);
      add_int buf (if s.Cpu.waiting then 1 else 0);
      add_i64 buf s.Cpu.instret;
      add_int buf (runstate_code vcpu.Vcpu.runstate))
    vm.Vm.vcpus;
  add_int buf (P2m.gframes vm.Vm.p2m);
  Buffer.to_bytes buf

let console (vm : Vm.t) =
  let buf = Buffer.create 64 in
  add_str buf (Vm.console_output vm);
  Buffer.to_bytes buf

(* Page kinds, read without bringing anything in: swapped and remote
   pages are data. *)
let page_kinds (vm : Vm.t) =
  let kinds = Array.make (P2m.gframes vm.Vm.p2m) kind_data in
  P2m.iter vm.Vm.p2m ~f:(fun ~gfn entry ->
      match entry with
      | P2m.Ballooned -> kinds.(Int64.to_int gfn) <- kind_ballooned
      | P2m.Absent -> kinds.(Int64.to_int gfn) <- kind_absent
      | P2m.Present _ | P2m.Swapped _ | P2m.Remote -> ());
  kinds

let record_bytes kind = record_header + if kind = kind_data then Arch.page_size else 0

let image_bytes (vm : Vm.t) =
  Array.fold_left
    (fun acc k -> acc + record_bytes k)
    (Bytes.length (header vm) + Bytes.length (console vm))
    (page_kinds vm)

(* Lay the VM out, bringing every swapped or remote data page back in
   first, in gfn order.  [Error gfn] names the first data page that
   could not be brought in (the host is out of frames): an image with
   a hole is not a checkpoint. *)
let lay_out (vm : Vm.t) =
  let head = header vm in
  let kinds = page_kinds vm in
  let n = Array.length kinds in
  let frames = Array.make n 0 in
  let unresolved = ref None in
  Array.iteri
    (fun i kind ->
      if kind <> kind_data then frames.(i) <- -kind
      else
        match Vm.resolve_read vm (Int64.of_int i) with
        | Some ppn -> frames.(i) <- Int64.to_int ppn
        | None -> if !unresolved = None then unresolved := Some (Int64.of_int i))
    kinds;
  match !unresolved with
  | Some gfn -> Error gfn
  | None ->
      let starts = Array.make (n + 1) (Bytes.length head) in
      for i = 0 to n - 1 do
        starts.(i + 1) <- starts.(i) + record_bytes kinds.(i)
      done;
      let tail = console vm in
      Ok { vm; head; frames; starts; tail; length = starts.(n) + Bytes.length tail }

(* The record holding image offset [pos] (a page-region offset). *)
let record_at l pos =
  let lo = ref 0 and hi = ref (Array.length l.frames - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if l.starts.(mid) <= pos then lo := mid else hi := mid - 1
  done;
  !lo

(* Copy image bytes [pos, pos+len) into [dst] at [off]. *)
let blit l ~pos dst ~off ~len =
  let mem = l.vm.Vm.host.Host.mem in
  let stop = pos + len in
  let p = ref pos and o = ref off in
  let copy_from src spos k =
    Bytes.blit src spos dst !o k;
    p := !p + k;
    o := !o + k
  in
  let hlen = Bytes.length l.head in
  if !p < hlen then copy_from l.head !p (min stop hlen - !p);
  let n = Array.length l.frames in
  let cstart = l.starts.(n) in
  if !p < stop && !p < cstart then begin
    let rh = Bytes.create record_header in
    let k = ref (record_at l !p) in
    while !p < stop && !p < cstart do
      let rs = l.starts.(!k) in
      let rel = !p - rs in
      let f = l.frames.(!k) in
      if rel < record_header then begin
        Bytes.set_int64_le rh 0 (Int64.of_int !k);
        Bytes.set_int64_le rh 8 (Int64.of_int (kind_of_frame f));
        copy_from rh rel (min (record_header - rel) (stop - !p))
      end
      else begin
        let drel = rel - record_header in
        let cnt = min (Arch.page_size - drel) (stop - !p) in
        Phys_mem.blit_out mem ~ppn:(Int64.of_int f) ~off:drel dst ~pos:!o ~len:cnt;
        p := !p + cnt;
        o := !o + cnt
      end;
      if !p >= l.starts.(!k + 1) then incr k
    done
  end;
  if !p < stop then copy_from l.tail (!p - cstart) (stop - !p)

let capture vm =
  match lay_out vm with
  | Ok l ->
      let b = Bytes.create l.length in
      blit l ~pos:0 b ~off:0 ~len:l.length;
      b
  | Error gfn ->
      failwith
        (Printf.sprintf "Snapshot.capture: guest page %Ld cannot be brought in" gfn)

(* --- checkpoint sources: the layout as a store chunk source --- *)

type hint = {
  h_vm : Vm.t;
  h_gen : int; (* the stream generation this layout committed as *)
  h_mark : int; (* the host tracker's mark taken when it was laid out *)
  h_frames : int array;
}

type source = { layout : layout; mark : int; chunks : Store.source }

(* Chunk [i] is byte-identical to chunk [i] of the hint's image when it
   lies wholly in the page records, no record up to its end changed
   kind (a change shifts every later offset), and each data page in it
   kept its frame, unwritten since the hint's mark.  The header (vCPU
   state) and the console are always re-hashed. *)
let clean_since l churn h =
  let n = Array.length l.frames in
  let first_change =
    let k = ref 0 in
    while !k < n && kind_of_frame l.frames.(!k) = kind_of_frame h.h_frames.(!k) do
      incr k
    done;
    !k
  in
  let record_clean k =
    k < first_change
    &&
    let f = l.frames.(k) in
    f < 0
    || (f = h.h_frames.(k) && not (Churn.written_since churn ~mark:h.h_mark (Int64.of_int f)))
  in
  fun i ->
    let lo = i * Store.chunk_bytes in
    let hi = min l.length (lo + Store.chunk_bytes) in
    lo >= l.starts.(0)
    && hi <= l.starts.(n)
    &&
    let last = record_at l (hi - 1) in
    let rec all k = k > last || (record_clean k && all (k + 1)) in
    all (record_at l lo)

let source ?since vm =
  match lay_out vm with
  | Error gfn -> Error gfn
  | Ok l ->
      let churn = Host.churn vm.Vm.host in
      let mark = Churn.mark churn in
      let clean =
        match since with
        | Some h when h.h_vm == vm -> Some (h.h_gen, clean_since l churn h)
        | _ -> None
      in
      Ok { layout = l; mark; chunks = { Store.length = l.length; blit = blit l; clean } }

let chunks s = s.chunks

let committed s ~gen =
  { h_vm = s.layout.vm; h_gen = gen; h_mark = s.mark; h_frames = s.layout.frames }

let size_bytes = Bytes.length

let restore hyp image =
  let r = { data = image; pos = 0 } in
  if get_i64 r <> magic then failwith "Snapshot: bad magic";
  let name = get_str r in
  let mem_frames = get_int r in
  let vcpu_count = get_int r in
  (* Validate the header before allocating anything: a corrupt image must
     not drive [create_vm] into absurd allocations (or negative array
     sizes, which would escape as [Invalid_argument]). *)
  if mem_frames <= 0 || mem_frames > 1 lsl 24 then failwith "Snapshot: bad header";
  if vcpu_count <= 0 || vcpu_count > 1024 then failwith "Snapshot: bad header";
  let paging = if get_int r = 0 then Vm.Shadow_paging else Vm.Nested_paging in
  let pv_console = get_int r = 1 in
  let pv_pt = get_int r = 1 in
  let vm =
    Hypervisor.create_vm hyp ~name ~mem_frames ~vcpu_count ~paging
      ~pv:{ Vm.pv_console; pv_pt } ~entry:0L ()
  in
  (* From here on the VM owns frames and is registered: any parse failure
     must tear it down completely (frames reclaimed, scheduler and VM
     list clean) before the error propagates, or every rejected image
     would leak its partial restore. *)
  try
    Array.iter
      (fun (vcpu : Vcpu.t) ->
        let s = vcpu.Vcpu.state in
        get_bytes r s.Cpu.regs;
        s.Cpu.mode <- (if get_int r = 0 then Arch.User else Arch.Supervisor);
        for i = 0 to Array.length s.Cpu.csrs - 1 do
          s.Cpu.csrs.(i) <- get_i64 r
        done;
        s.Cpu.halted <- get_int r = 1;
        s.Cpu.waiting <- get_int r = 1;
        s.Cpu.instret <- get_i64 r;
        vcpu.Vcpu.runstate <- runstate_of_code (get_int r))
      vm.Vm.vcpus;
    let npages = get_int r in
    if npages < 0 || npages > mem_frames then failwith "Snapshot: bad page count";
    for _ = 1 to npages do
      let gfn = get_i64 r in
      match get_int r with
      | 1 -> ignore (Vm.balloon_out vm gfn)
      | 2 -> (
          (* absent in the source: free the eagerly allocated frame *)
          match P2m.get vm.Vm.p2m gfn with
          | P2m.Present { hpa_ppn; _ } ->
              ignore (Frame_alloc.decr_ref vm.Vm.host.Host.alloc hpa_ppn);
              P2m.set vm.Vm.p2m gfn P2m.Absent
          | _ -> ())
      | 0 -> (
          if r.pos + Arch.page_size > Bytes.length image then
            failwith "Snapshot: truncated page data";
          let page = Bytes.sub image r.pos Arch.page_size in
          r.pos <- r.pos + Arch.page_size;
          match Vm.resolve_write vm gfn with
          | Some ppn -> Phys_mem.frame_write vm.Vm.host.Host.mem ~ppn page
          | None -> failwith "Snapshot: cannot place page")
      | _ -> failwith "Snapshot: bad page kind"
    done;
    let console = get_str r in
    String.iter (fun c -> Vm.console_put vm c) console;
    vm
  with e ->
    Hypervisor.remove_vm hyp vm;
    raise e

(* --- live (copy-on-write) snapshots --- *)

type live = {
  src_host : Host.t;
  l_name : string;
  l_paging : Vm.paging_mode;
  l_pv : Vm.pv;
  l_mem_frames : int;
  l_vcpus : (Cpu.state * Vcpu.runstate) array;
  l_frames : (int64 * int64) list; (* gfn, hpa (ref held) *)
  mutable released : bool;
}

let capture_live (vm : Vm.t) =
  let host = vm.Vm.host in
  let frames = ref [] in
  P2m.iter vm.Vm.p2m ~f:(fun ~gfn entry ->
      match entry with
      | P2m.Present { hpa_ppn; _ } ->
          Frame_alloc.incr_ref host.Host.alloc hpa_ppn;
          (* The running VM's copy becomes COW so its future writes
             cannot leak into the snapshot. *)
          P2m.set vm.Vm.p2m gfn
            (P2m.Present { hpa_ppn; writable = false; cow = true });
          (match vm.Vm.shadow with Some s -> Shadow.invalidate_gfn s gfn | None -> ());
          frames := (gfn, hpa_ppn) :: !frames
      | _ -> ());
  Vm.flush_all_tlbs vm;
  {
    src_host = host;
    l_name = vm.Vm.name ^ "-snap";
    l_paging = vm.Vm.paging;
    l_pv = vm.Vm.pv;
    l_mem_frames = Vm.mem_frames vm;
    l_vcpus =
      Array.map (fun v -> (Cpu.copy_state v.Vcpu.state, v.Vcpu.runstate)) vm.Vm.vcpus;
    l_frames = List.rev !frames;
    released = false;
  }

let live_pages l = List.length l.l_frames

let restore_live hyp (l : live) =
  if l.released then failwith "Snapshot.restore_live: snapshot released";
  if not (Hypervisor.host hyp == l.src_host) then
    failwith "Snapshot.restore_live: snapshot frames live on a different host";
  let vm =
    Hypervisor.create_vm hyp ~name:l.l_name ~mem_frames:l.l_mem_frames
      ~vcpu_count:(Array.length l.l_vcpus) ~paging:l.l_paging ~pv:l.l_pv
      ~populate:false ~entry:0L ()
  in
  List.iter
    (fun (gfn, hpa) ->
      Frame_alloc.incr_ref l.src_host.Host.alloc hpa;
      P2m.set vm.Vm.p2m gfn (P2m.Present { hpa_ppn = hpa; writable = false; cow = true }))
    l.l_frames;
  Array.iteri
    (fun i (state, runstate) ->
      let vcpu = vm.Vm.vcpus.(i) in
      let s = vcpu.Vcpu.state in
      Bytes.blit state.Cpu.regs 0 s.Cpu.regs 0 (Bytes.length s.Cpu.regs);
      Array.blit state.Cpu.csrs 0 s.Cpu.csrs 0 (Array.length s.Cpu.csrs);
      s.Cpu.mode <- state.Cpu.mode;
      s.Cpu.halted <- state.Cpu.halted;
      s.Cpu.waiting <- state.Cpu.waiting;
      s.Cpu.instret <- state.Cpu.instret;
      vcpu.Vcpu.runstate <- runstate)
    l.l_vcpus;
  vm

let release_live (l : live) =
  if not l.released then begin
    l.released <- true;
    List.iter
      (fun (_gfn, hpa) -> ignore (Frame_alloc.decr_ref l.src_host.Host.alloc hpa))
      l.l_frames
  end
