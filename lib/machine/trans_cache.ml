open Velum_isa
module Keytbl = Velum_util.Keytbl

type key = int

type block = {
  key : key;
  insns : Instr.t array;
  start_off : int;
  mutable valid : bool;
  mutable stamp : int;
  mutable heat : int;
      (* dispatches since the last promotion attempt; the trace tier's
         hotness signal (covers in-block loops that never leave the
         block) *)
  mutable hot_fall : int;
  mutable hot_taken : int;
      (* per-direction exit counts of the terminator, guiding which way
         the promotion walker extends through a branch junction *)
  mutable trace_at : trace option;
      (* the superblock trace headed by this block, if promoted *)
  mutable in_traces : trace list;
      (* every trace this block is a constituent of; invalidating the
         block severs them all *)
}

and trace = {
  t_prog : Trace_ir.prog;
  t_cost : Cost_model.t;
      (* the cost model the per-op cycle constants were baked against;
         dispatch requires physical equality with the live ctx's model *)
  t_blocks : block list;  (* constituents, head first *)
}

(* Packed key: the instruction slot within the frame (byte offset / 8,
   9 bits) lowest, then two regime bits, then the frame number.  The
   tables hash a key to its low bits, so the slot goes there: blocks at
   different offsets land in different buckets. *)
let slot_shift = 3 (* log2 Arch.instr_bytes *)
let off_bits = Arch.page_shift - slot_shift

let key ~ppn ~off ~user ~paging =
  (Int64.to_int ppn lsl (off_bits + 2))
  lor (if paging then 1 lsl (off_bits + 1) else 0)
  lor (if user then 1 lsl off_bits else 0)
  lor (off lsr slot_shift)

let key_ppn k = k lsr (off_bits + 2)

(* Everything but the offset bits: frame, user and paging — the parts of
   the key that must agree between a block and the current dispatch for
   the block to serve it. *)
let regime_mask = lnot ((1 lsl off_bits) - 1)
let same_regime_key b k = (b.key lxor k) land regime_mask = 0

(* Per-frame index: the blocks decoded from the frame plus the union of
   their byte spans.  The span is a conservative bound (it never
   shrinks while blocks remain) that lets a write notification for a
   disjoint part of the frame — a stack slot or data word sharing a
   page with code — return after two integer compares instead of
   walking the block set. *)
type frame_info = {
  blocks : block Keytbl.Int.t;
  mutable span_lo : int;
  mutable span_hi : int;
}

type t = {
  capacity : int;
  table : block Keytbl.Int.t;
  by_frame : frame_info Keytbl.Int.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
  mutable traces_built : int;
  mutable trace_follows : int;
  mutable traces_severed : int;
  mutable trace_side_exits : int;
}

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Trans_cache.create: capacity must be positive";
  {
    capacity;
    table = Keytbl.Int.create (min capacity 256);
    by_frame = Keytbl.Int.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    evictions = 0;
    traces_built = 0;
    trace_follows = 0;
    traces_severed = 0;
    trace_side_exits = 0;
  }

let find t k =
  match Keytbl.Int.find_opt t.table k with
  | Some b when b.valid ->
      t.tick <- t.tick + 1;
      b.stamp <- t.tick;
      t.hits <- t.hits + 1;
      Some b
  | _ ->
      t.misses <- t.misses + 1;
      None

(* ---- trace severing ----

   A trace is only as alive as its weakest constituent: any block being
   invalidated, evicted or replaced takes every trace containing it
   down with it.  The [live] ref is shared with the executing engine,
   which observes the severing mid-trace (after the very store that
   caused it).  The head's [heat] is reset so re-promotion requires the
   path to prove itself hot again over fresh code. *)

let sever_traces t b =
  match b.in_traces with
  | [] -> ()
  | traces ->
      List.iter
        (fun tr ->
          if !(tr.t_prog.Trace_ir.live) then begin
            tr.t_prog.Trace_ir.live := false;
            t.traces_severed <- t.traces_severed + 1;
            List.iter
              (fun cb ->
                cb.in_traces <- List.filter (fun x -> not (x == tr)) cb.in_traces;
                match cb.trace_at with
                | Some x when x == tr ->
                    cb.trace_at <- None;
                    cb.heat <- 0
                | _ -> ())
              tr.t_blocks
          end)
        traces;
      b.in_traces <- []

let unlink t k =
  match Keytbl.Int.find_opt t.table k with
  | None -> ()
  | Some b ->
      b.valid <- false;
      sever_traces t b;
      Keytbl.Int.remove t.table k;
      let ppn = key_ppn k in
      (match Keytbl.Int.find_opt t.by_frame ppn with
      | Some info ->
          Keytbl.Int.remove info.blocks k;
          if Keytbl.Int.length info.blocks = 0 then Keytbl.Int.remove t.by_frame ppn
      | None -> ())

let evict_lru t =
  let victim = ref None in
  Keytbl.Int.iter
    (fun k b ->
      match !victim with
      | Some (_, stamp) when b.stamp >= stamp -> ()
      | _ -> victim := Some (k, b.stamp))
    t.table;
  match !victim with
  | Some (k, _) ->
      unlink t k;
      t.evictions <- t.evictions + 1
  | None -> ()

let insert t ~key:k ~ppn ~insns ~start_off =
  if Keytbl.Int.length t.table >= t.capacity then evict_lru t;
  t.tick <- t.tick + 1;
  let b =
    {
      key = k;
      insns;
      start_off;
      valid = true;
      stamp = t.tick;
      heat = 0;
      hot_fall = 0;
      hot_taken = 0;
      trace_at = None;
      in_traces = [];
    }
  in
  (* Replacing a dead entry under the same key is possible after an
     invalidation raced a decode; last write wins. *)
  unlink t k;
  Keytbl.Int.replace t.table k b;
  let ppn_i = Int64.to_int ppn in
  let info =
    match Keytbl.Int.find_opt t.by_frame ppn_i with
    | Some i -> i
    | None ->
        let i = { blocks = Keytbl.Int.create 4; span_lo = max_int; span_hi = 0 } in
        Keytbl.Int.replace t.by_frame ppn_i i;
        i
  in
  Keytbl.Int.replace info.blocks k b;
  info.span_lo <- min info.span_lo start_off;
  info.span_hi <- max info.span_hi (start_off + (Arch.instr_bytes * Array.length insns));
  b

(* Drop only the blocks whose decoded span overlaps the written byte
   range [lo, hi) of the frame.  Precision matters: guest kernels keep
   register-save areas and data words in the same pages as code, and
   whole-frame invalidation would re-decode the trap handler on every
   context save.  The answer — the span of the blocks the frame still
   holds, or 0 — is what the engine's write listener returns, from the
   same lookup. *)
let invalidate_range t ~ppn ~lo ~hi =
  match Keytbl.Int.find_opt t.by_frame (Int64.to_int ppn) with
  | None -> 0
  | Some info ->
      if hi > info.span_lo && lo < info.span_hi then begin
        let keys =
          Keytbl.Int.fold
            (fun k b acc ->
              if
                b.start_off < hi
                && b.start_off + (Arch.instr_bytes * Array.length b.insns) > lo
              then k :: acc
              else acc)
            info.blocks []
        in
        List.iter
          (fun k ->
            unlink t k;
            t.invalidations <- t.invalidations + 1)
          keys
      end;
      if Keytbl.Int.length info.blocks > 0 then Phys_mem.want ~lo:info.span_lo ~hi:info.span_hi
      else 0

let invalidate_frame t ~ppn =
  ignore (invalidate_range t ~ppn ~lo:0 ~hi:Arch.page_size : int)

let flush t =
  Keytbl.Int.iter
    (fun _ b ->
      b.valid <- false;
      (* count each live trace once, via its head *)
      (match b.trace_at with
      | Some tr when !(tr.t_prog.Trace_ir.live) ->
          tr.t_prog.Trace_ir.live := false;
          t.traces_severed <- t.traces_severed + 1
      | _ -> ());
      b.trace_at <- None;
      b.in_traces <- [])
    t.table;
  Keytbl.Int.reset t.table;
  Keytbl.Int.reset t.by_frame

(* ---- superblock trace promotion ----

   The walker turns a hot head block into a predicted execution path:
   starting from the head, it repeatedly steps through the terminator's
   most likely continuation — the branch direction the block's own
   exits took more often, the static jal target — collecting whole blocks as
   segments, and stops at a dynamic jump (jalr), a slow instruction
   (the trace then ends in a static exit), an unknown or unterminated
   successor, a block already in the trace (the builder wires the back
   edge into an in-trace loop) or the size caps.  Everything it decides
   is a prediction only: the builder resolves every branch direction to
   either an in-trace op or a side exit, so a wrong guess costs a trace
   exit, never wrong execution. *)

let max_trace_segments = 8
let max_trace_ops = 96
let promote_threshold = 16

(* the block's key with its offset bits replaced by [off] *)
let key_at b off = (b.key land regime_mask) lor (off lsr slot_shift)

let block_terminated b =
  let len = Array.length b.insns in
  len > 0 && Block.is_terminator b.insns.(len - 1)

(* The block (if any) to continue the trace through for a control
   transfer landing at page offset [tgt_off]: the table entry starting
   exactly there.  Must be valid and terminated, and must not restart a
   block already collected (loops stay inside the trace). *)
let successor_for t b ~tgt_off ~collected =
  if tgt_off < 0 || tgt_off >= Arch.page_size || tgt_off land (Arch.instr_bytes - 1) <> 0
  then None
  else
    match Keytbl.Int.find_opt t.table (key_at b tgt_off) with
    | Some s
      when s.valid && block_terminated s && not (List.exists (fun x -> x == s) collected) ->
        Some s
    | _ -> None

let try_promote t ~head ~cost =
  if (not head.valid) || head.trace_at <> None || not (block_terminated head) then false
  else begin
    let ib = Arch.instr_bytes in
    let rec walk rev_blocks nops b =
      let len = Array.length b.insns in
      let term = b.insns.(len - 1) in
      let term_off = b.start_off + ((len - 1) * ib) in
      let accept () = List.rev rev_blocks in
      let extend ~tgt_off =
        match successor_for t b ~tgt_off ~collected:rev_blocks with
        | Some s
          when List.length rev_blocks < max_trace_segments
               && nops + Array.length s.insns <= max_trace_ops ->
            walk (s :: rev_blocks) (nops + Array.length s.insns) s
        | _ -> accept ()
      in
      match term with
      | Instr.Jal (_, delta) ->
          let delta = Int64.to_int delta in
          extend ~tgt_off:(term_off + delta)
      | Instr.Branch (_, _, _, delta) ->
          let t_off = term_off + Int64.to_int delta and f_off = term_off + ib in
          (* follow the observed-hotter direction; cold branches guess
             backward-taken (a loop) over fall-through *)
          let prefer_taken =
            if b.hot_taken <> b.hot_fall then b.hot_taken > b.hot_fall
            else t_off <= term_off
          in
          extend ~tgt_off:(if prefer_taken then t_off else f_off)
      | _ ->
          (* jalr (dynamic) or a slow instruction (static exit) *)
          accept ()
    in
    let blocks = walk [ head ] (Array.length head.insns) head in
    let segments =
      List.map
        (fun b -> { Trace_ir.seg_insns = b.insns; seg_off = b.start_off })
        blocks
    in
    match Trace_ir.build ~cost ~segments with
    | None -> false
    | Some prog ->
        let tr = { t_prog = prog; t_cost = cost; t_blocks = blocks } in
        List.iter
          (fun b ->
            b.in_traces <- tr :: b.in_traces;
            (* keep constituents warm so LRU churn does not sever a hot
               trace from under itself *)
            t.tick <- t.tick + 1;
            b.stamp <- t.tick)
          blocks;
        head.trace_at <- Some tr;
        t.traces_built <- t.traces_built + 1;
        true
  end

let note_trace_follow t = t.trace_follows <- t.trace_follows + 1
let note_trace_side_exit t = t.trace_side_exits <- t.trace_side_exits + 1

let entries t = Keytbl.Int.length t.table
let hits t = t.hits
let misses t = t.misses
let invalidations t = t.invalidations
let evictions t = t.evictions
let traces_built t = t.traces_built
let trace_follows t = t.trace_follows
let traces_severed t = t.traces_severed
let trace_side_exits t = t.trace_side_exits
