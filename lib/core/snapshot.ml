open Velum_isa
open Velum_machine
module Serial = Velum_util.Serial

type full = Bytes.t

let magic = 0x56454C4D534E5032L (* "VELMSNP2" *)

(* --- the image layout, defined once ---

   header   magic, then the offset of the state section
   pages    one record per gfn, in gfn order: gfn, kind (0 = data,
            1 = ballooned, 2 = absent), and for data the 4096 page bytes
   state    the VM's {!Vm_state} (shape, vCPUs, devices), to the end

   The variable-length state goes last, so a page record keeps its
   offset from one image of a VM to the next while no page changes
   kind.  A [layout] is that image over the live VM: the header and
   state are serialized (they are small), page bytes stay in their
   frames until someone blits them out. *)

let header_bytes = 16
let kind_data = 0
let kind_ballooned = 1
let kind_absent = 2
let record_header = 16

type layout = {
  vm : Vm.t;
  head : Bytes.t; (* magic, state offset *)
  frames : int array;
      (* per gfn: the backing ppn of a data page, or -kind for the others *)
  starts : int array;
      (* per gfn: image offset of its record; [starts.(n)] is the state's *)
  tail : Bytes.t; (* the Vm_state *)
  length : int;
}

let kind_of_frame f = if f >= 0 then kind_data else -f

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
    (header_bytes + Bytes.length (Vm_state.save vm))
    (page_kinds vm)

(* Lay the VM out, bringing every swapped or remote data page back in
   first, in gfn order.  [Error gfn] names the first data page that
   could not be brought in (the host is out of frames): an image with
   a hole is not a checkpoint. *)
let lay_out (vm : Vm.t) =
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
      let starts = Array.make (n + 1) header_bytes in
      for i = 0 to n - 1 do
        starts.(i + 1) <- starts.(i) + record_bytes kinds.(i)
      done;
      let head = Bytes.create header_bytes in
      Bytes.set_int64_le head 0 magic;
      Bytes.set_int64_le head 8 (Int64.of_int starts.(n));
      let tail = Vm_state.save vm in
      Ok { vm; head; frames; starts; tail; length = starts.(n) + Bytes.length tail }

(* The record holding image offset [pos] (a page-region offset). *)
let record_at l pos =
  let lo = ref 0 and hi = ref (Array.length l.frames - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if l.starts.(mid) <= pos then lo := mid else hi := mid - 1
  done;
  !lo

(* A position in the layout's records: [seek] moves it to the record
   holding a page-region offset, a record at a time forward (chunks are
   read in order, so that is a step or two) and by a fresh search when
   the offset lies behind it. *)
type cursor = { l : layout; mutable k : int }

let cursor l = { l; k = 0 }

let seek c pos =
  let starts = c.l.starts in
  if pos < starts.(c.k) then c.k <- record_at c.l pos
  else
    while pos >= starts.(c.k + 1) do
      c.k <- c.k + 1
    done

external put_i64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* A reader of the image: a cursor, and one scratch buffer that holds the
   synthesized header of the record it is in. *)
type reader = { at : cursor; rh : Bytes.t }

let reader l = { at = cursor l; rh = Bytes.create record_header }

(* [walk r ~pos b ~off ~len op zeros] hands image bytes [\[pos, pos+len)]
   to [op src spos b boff n] piece by piece, in order: [n] bytes at
   [spos] of [src], a read-only view that holds them (the header, the
   scratch record header, a frame's page, the state), which line up with
   [b]'s bytes from [boff].  A piece of a frame with no page of its own
   is all zeros and goes to [zeros b boff n] instead.  It stops at the
   first piece refused. *)
let walk r ~pos b ~off ~len op zeros =
  let l = r.at.l in
  let mem = l.vm.Vm.host.Host.mem in
  let tstart = l.starts.(Array.length l.frames) in
  let stop = pos + len in
  let p = ref pos and ok = ref true in
  while !ok && !p < stop do
    let q = !p in
    let boff = off + (q - pos) in
    let n =
      if q < header_bytes then begin
        let n = min stop header_bytes - q in
        ok := op l.head q b boff n;
        n
      end
      else if q < tstart then begin
        seek r.at q;
        let k = r.at.k in
        let rel = q - l.starts.(k) in
        let f = l.frames.(k) in
        if rel < record_header then begin
          put_i64 r.rh 0 (Int64.of_int k);
          put_i64 r.rh 8 (Int64.of_int (kind_of_frame f));
          let n = min (record_header - rel) (stop - q) in
          ok := op r.rh rel b boff n;
          n
        end
        else begin
          let drel = rel - record_header in
          let n = min (Arch.page_size - drel) (stop - q) in
          ok :=
            if Phys_mem.frame_backed mem ~ppn:f then op (Phys_mem.frame_view mem ~ppn:f) drel b boff n
            else zeros b boff n;
          n
        end
      end
      else begin
        let n = stop - q in
        ok := op l.tail (q - tstart) b boff n;
        n
      end
    in
    p := q + n
  done;
  !ok

let copy_piece src spos dst doff n =
  Bytes.blit src spos dst doff n;
  true

let zero_piece dst doff n =
  Bytes.fill dst doff n '\000';
  true

(* Copy image bytes [pos, pos+len) into [dst] at [off]. *)
let blit r ~pos dst ~off ~len = ignore (walk r ~pos dst ~off ~len copy_piece zero_piece)

(* Image bytes [pos, pos+len) equal [b]'s from [off]. *)
let equal r ~pos b ~off ~len =
  walk r ~pos b ~off ~len Velum_util.Fnv.equal_range Velum_util.Fnv.zero_range

let capture vm =
  match lay_out vm with
  | Ok l ->
      let b = Bytes.create l.length in
      blit (reader l) ~pos:0 b ~off:0 ~len:l.length;
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
   kept its frame, unwritten since the hint's mark.  The header and the
   VM state are always re-hashed.  [bad.(k)] counts the records before
   [k] that fail the test, so a chunk's test is one subtraction once a
   cursor has found its first and last records. *)
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
  let bad = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    bad.(k + 1) <- (if record_clean k then bad.(k) else bad.(k) + 1)
  done;
  let c = cursor l in
  fun i ->
    let lo = i * Store.chunk_bytes in
    let hi = min l.length (lo + Store.chunk_bytes) in
    lo >= l.starts.(0)
    && hi <= l.starts.(n)
    &&
    (seek c lo;
     let first = c.k in
     seek c (hi - 1);
     bad.(c.k + 1) = bad.(first))

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
      let r = reader l in
      Ok
        {
          layout = l;
          mark;
          chunks =
            { Store.length = l.length; blit = blit r; equal = equal r; clean };
        }

let chunks s = s.chunks

let committed s ~gen =
  { h_vm = s.layout.vm; h_gen = gen; h_mark = s.mark; h_frames = s.layout.frames }

let size_bytes = Bytes.length

let restore hyp image =
  let r = Serial.reader image in
  let io = Serial.Load r in
  if Serial.i64 io 0L <> magic then failwith "Snapshot: bad magic";
  let state_at = Serial.int ~max:(Bytes.length image) io 0 in
  let state = Bytes.sub image state_at (Bytes.length image - state_at) in
  (* every gfn has a record of at least [record_header] bytes *)
  let max_frames = (state_at - header_bytes) / record_header in
  let vm = Vm_state.create_vm hyp ~max_frames ~populate:true state in
  (* From here on the VM owns frames and is registered: any parse failure
     must tear it down completely (frames reclaimed, scheduler and VM
     list clean) before the error propagates, or every rejected image
     would leak its partial restore. *)
  try
    Vm_state.load hyp vm state;
    let page = Bytes.create Arch.page_size in
    while Serial.pos r < state_at do
      let gfn = Serial.i64 io 0L in
      if not (P2m.in_range vm.Vm.p2m gfn) then failwith "Snapshot: bad gfn";
      match Serial.int io 0 with
      | 1 -> ignore (Vm.balloon_out vm gfn)
      | 2 -> (
          (* absent in the source: free the eagerly allocated frame *)
          match P2m.get vm.Vm.p2m gfn with
          | P2m.Present { hpa_ppn; _ } ->
              ignore (Frame_alloc.decr_ref vm.Vm.host.Host.alloc hpa_ppn);
              P2m.set vm.Vm.p2m gfn P2m.Absent
          | _ -> ())
      | 0 -> (
          Serial.bytes io page;
          match Vm.resolve_write vm gfn with
          | Some ppn -> Phys_mem.frame_write vm.Vm.host.Host.mem ~ppn page
          | None -> failwith "Snapshot: cannot place page")
      | _ -> failwith "Snapshot: bad page kind"
    done;
    if Serial.pos r <> state_at then failwith "Snapshot: bad layout";
    vm
  with e ->
    Hypervisor.remove_vm hyp vm;
    raise e

(* --- live (copy-on-write) snapshots --- *)

type live = {
  src_host : Host.t;
  state : Vm_state.t;
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
  { src_host = host; state = Vm_state.save vm; l_frames = List.rev !frames; released = false }

let live_pages l = List.length l.l_frames

let restore_live hyp (l : live) =
  if l.released then failwith "Snapshot.restore_live: snapshot released";
  if not (Hypervisor.host hyp == l.src_host) then
    failwith "Snapshot.restore_live: snapshot frames live on a different host";
  let vm = Vm_state.create_vm hyp ~suffix:"-snap" ~populate:false l.state in
  List.iter
    (fun (gfn, hpa) ->
      Frame_alloc.incr_ref l.src_host.Host.alloc hpa;
      P2m.set vm.Vm.p2m gfn (P2m.Present { hpa_ppn = hpa; writable = false; cow = true }))
    l.l_frames;
  Vm_state.load hyp vm l.state;
  vm

let release_live (l : live) =
  if not l.released then begin
    l.released <- true;
    List.iter
      (fun (_gfn, hpa) -> ignore (Frame_alloc.decr_ref l.src_host.Host.alloc hpa))
      l.l_frames
  end
