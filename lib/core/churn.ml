module Phys_mem = Velum_machine.Phys_mem

(* [stamp.(ppn)] is the write epoch of the frame's newest write (0: not
   written since attach).  [epoch] is what a write stamps now; it is
   greater than every mark and cursor base handed out, so a frame
   already stamped [epoch] is dirty for every view and the listener's
   fast path is one compare.  Once a frame carries [epoch] there is
   nothing left to learn from its writes until the next mark, so the
   listener lets the memory stop watching it, and [mark] watches every
   frame again (registering the listener already watched them all). *)
type t = {
  mem : Phys_mem.t;
  stamp : int array;
  mutable epoch : int;
  mutable cursors : cursor list;
}

(* Frames stamped after [base] are dirty for this cursor; [count] of
   them so far. *)
and cursor = { owner : t; mutable base : int; mutable count : int }

let attach mem =
  let n = Phys_mem.frames mem in
  let t = { mem; stamp = Array.make n 0; epoch = 1; cursors = [] } in
  ignore
    (Phys_mem.add_write_listener mem (fun ~ppn ~lo:_ ~hi:_ ->
         let i = Int64.to_int ppn in
         if i >= 0 && i < n then begin
           let s = Array.unsafe_get t.stamp i in
           if s <> t.epoch then begin
             Array.unsafe_set t.stamp i t.epoch;
             List.iter (fun c -> if s <= c.base then c.count <- c.count + 1) t.cursors
           end
         end;
         0));
  t

let mark t =
  let m = t.epoch in
  t.epoch <- m + 1;
  Phys_mem.watch_all t.mem;
  m

let written_since t ~mark ppn =
  let i = Int64.to_int ppn in
  i < 0 || i >= Array.length t.stamp || t.stamp.(i) > mark

let cursor t =
  let c = { owner = t; base = mark t; count = 0 } in
  t.cursors <- c :: t.cursors;
  c

let churned c = c.count

let drain c =
  let n = c.count in
  c.base <- mark c.owner;
  c.count <- 0;
  n
