open Velum_machine

type t = {
  mem : Phys_mem.t;
  reserved : int;
  counts : int array; (* index: ppn - reserved *)
  mutable freed : int64 list; (* returned frames, newest first *)
  mutable next : int; (* first never-used index; all above it are free too *)
  mutable free_n : int;
}

let create ~mem ?(reserved = 16) () =
  let n = Phys_mem.frames mem in
  if reserved < 0 || reserved > n then invalid_arg "Frame_alloc.create: bad reserved";
  let managed = n - reserved in
  { mem; reserved; counts = Array.make managed 0; freed = []; next = 0; free_n = managed }

let total t = Array.length t.counts
let free_count t = t.free_n
let used_count t = total t - t.free_n

let index t ppn =
  let i = Int64.to_int ppn - t.reserved in
  if i < 0 || i >= Array.length t.counts then
    invalid_arg (Printf.sprintf "Frame_alloc: frame %Ld not managed" ppn);
  i

let take t ppn =
  t.free_n <- t.free_n - 1;
  t.counts.(index t ppn) <- 1;
  Phys_mem.frame_fill t.mem ~ppn '\000';
  Some ppn

(* Returned frames go first, newest first, then never-used frames in
   ascending order: the order one free list of every frame, popped on
   alloc and pushed on free, would give. *)
let alloc t =
  match t.freed with
  | ppn :: rest ->
      t.freed <- rest;
      take t ppn
  | [] when t.next < Array.length t.counts ->
      t.next <- t.next + 1;
      take t (Int64.of_int (t.reserved + t.next - 1))
  | [] -> None

let alloc_exn t =
  match alloc t with Some p -> p | None -> failwith "Frame_alloc: out of frames"

let refcount t ppn = t.counts.(index t ppn)

let incr_ref t ppn =
  let i = index t ppn in
  if t.counts.(i) = 0 then invalid_arg "Frame_alloc.incr_ref: frame is free";
  t.counts.(i) <- t.counts.(i) + 1

let decr_ref t ppn =
  let i = index t ppn in
  if t.counts.(i) = 0 then invalid_arg "Frame_alloc.decr_ref: frame is free";
  t.counts.(i) <- t.counts.(i) - 1;
  if t.counts.(i) = 0 then begin
    t.freed <- ppn :: t.freed;
    t.free_n <- t.free_n + 1;
    true
  end
  else false
