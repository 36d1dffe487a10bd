open Velum_isa

type kind = Interp | Block

let default = Block
let kind_name = function Interp -> "interp" | Block -> "block"

(* The cache's write listener on the memory it decodes from, once the
   first block is inserted. *)
type hook = { mutable attached : (Phys_mem.t * int) option }

type t = {
  kind : kind;
  step_n : Cpu.state -> Cpu.ctx -> fuel:int -> int * Cpu.stop;
  cache : Trans_cache.t option;
  hook : hook;
}

let interp =
  {
    kind = Interp;
    step_n = (fun s ctx ~fuel -> Cpu.run s ctx ~budget:fuel);
    cache = None;
    hook = { attached = None };
  }

(* Blocks are keyed by machine frame, so content coherence (including
   self-modifying code, DMA and restores) hangs off a write listener on
   the memory the hart executes from.  It is registered the first time a
   block is about to be inserted, so a machine that never runs the
   engine carries no listener.  An engine serves one machine, so one
   registration covers its life.  The listener answers the span of the
   blocks the frame still holds, so stores beside them stay quiet. *)
let attach h cache mem =
  if Option.is_none h.attached then
    h.attached <-
      Some
        ( mem,
          Phys_mem.add_write_listener mem (fun ~ppn ~lo ~hi ->
              Trans_cache.invalidate_range cache ~ppn ~lo ~hi) )

(* Without the listener the cache cannot see writes, so releasing it
   also drops every block. *)
let release t =
  match (t.cache, t.hook.attached) with
  | Some cache, Some (mem, id) ->
      Phys_mem.remove_write_listener mem id;
      t.hook.attached <- None;
      Trans_cache.flush cache
  | _ -> ()

let page_mask = Int64.of_int (Arch.page_size - 1)
let pc_slot = Cpu.pc_slot
let align_mask = Int64.of_int (Arch.instr_bytes - 1)
let instr_bytes64 = Int64.of_int Arch.instr_bytes

(* Per-hart dispatch state, keyed by [Cpu.state] identity so it survives
   across [step_n] calls.  Persistence is sound because nothing here is
   trusted on re-entry: every dispatch translates its fetch afresh and
   block reuse re-checks [valid]/regime/containment. *)
type wstate = {
  mutable w_dtlb : Dtlb.t;
      (* the micro-TLB [cur_gen] was read from; a different one makes
         generations incomparable *)
  mutable cur_frame : int64;  (* the code frame of the last dispatch *)
  mutable cur_user : bool;
  mutable cur_gen : int;
      (* a micro-TLB generation at which a fetch from the last
         dispatch's page was a zero-cycle hit into [cur_frame] *)
  mutable cur_block : Trans_cache.block option;
  (* one [step_n] call's progress, here so that re-entering [step_n]
     after an exit builds no closures *)
  mutable consumed : int;
  mutable result : Cpu.stop;
  mutable stopped : bool;
  mutable src : Cpu.ctx;
  mutable wrapped : Cpu.ctx;  (* [src] with its micro-TLB in front, see [wrap] *)
}

(* [ctx] with load/store translations served from its micro-TLB *)
let wrap ctx =
  let dtlb = ctx.Cpu.dtlb in
  let translate ~access ~user va =
    match access with
    | Arch.Fetch -> ctx.Cpu.translate ~access ~user va
    | Arch.Load | Arch.Store ->
        let ppn =
          Dtlb.lookup dtlb ~access ~user
            (Int64.to_int (Int64.shift_right_logical va Arch.page_shift))
        in
        if ppn >= 0 then
          Cpu.xl_make
            ~pa:((ppn lsl Arch.page_shift) lor (Int64.to_int va land (Arch.page_size - 1)))
            ~mmio:false ~cycles:0
        else begin
          let x = ctx.Cpu.translate ~access ~user va in
          if x >= 0 && not (Cpu.xl_mmio x) then
            Dtlb.fill dtlb ~access ~user ~va;
          x
        end
  in
  { ctx with Cpu.translate }

let new_wstate ctx =
  {
    w_dtlb = ctx.Cpu.dtlb;
    cur_frame = -1L;
    cur_user = false;
    cur_gen = 0;
    cur_block = None;
    consumed = 0;
    result = Cpu.Budget;
    stopped = false;
    src = ctx;
    wrapped = wrap ctx;
  }

let stop w r =
  w.result <- r;
  w.stopped <- true

let finish w step =
  match step with
  | Cpu.Retired c -> w.consumed <- w.consumed + c
  | Cpu.Stop_exec (r, c) ->
      w.consumed <- w.consumed + c;
      stop w r

(* Start a dispatch whose fetch hit [frame] in mode [user].  The current
   block is kept only in the frame and regime it was decoded for, so a
   dispatch that stays in its block costs no hashtable round trip.  An
   unchanged generation means no flush, hence no [satp] write, since the
   last dispatch: paging is unchanged too. *)
let enter w dtlb s ~user ~frame =
  let gen = Dtlb.generation dtlb in
  if frame <> Int64.to_int w.cur_frame || user <> w.cur_user then begin
    w.cur_frame <- Int64.of_int frame;
    w.cur_user <- user;
    w.cur_block <- None
  end
  else if gen <> w.cur_gen then begin
    match w.cur_block with
    | Some b
      when not
             (Trans_cache.same_regime_key b
                (Trans_cache.key ~ppn:w.cur_frame ~off:0 ~user
                   ~paging:(Arch.satp_enabled (Cpu.get_csr s Arch.Satp)))) ->
        w.cur_block <- None
    | _ -> ()
  end;
  w.cur_gen <- gen

(* A fetch from [vpn], the last dispatch's page, would still hit
   [cur_frame] at zero cycles: one compare while the generation stands
   still, else the micro-TLB is asked again (a walk may have evicted the
   fetch page's TLB entry). *)
let fetch_holds w dtlb ~user ~vpn =
  let gen = Dtlb.generation dtlb in
  gen = w.cur_gen
  || Dtlb.lookup dtlb ~access:Arch.Fetch ~user vpn = Int64.to_int w.cur_frame
     && begin
          w.cur_gen <- gen;
          true
        end

(* The block engine's driver loop.  It mirrors [Cpu.run] stop for stop
   and cycle for cycle; the only liberty it takes is {e skipping}
   translations the interpreter would perform as guaranteed zero-cycle
   TLB hits.

   Translation — the micro-TLB.  Each dispatch asks {!Dtlb} for the
   frame of the PC's page.  A certified entry replicates exactly what
   the real fetch translation would do (same frame, zero cycles, one
   [Tlb.note_hit]) without the MMU/nested/shadow call chain; a miss
   runs the interpreter's own fetch prelude and offers its result to the
   micro-TLB.  [ctx.translate] is wrapped so load/store translations are
   served from the micro-TLB the same way.

   Dispatch — one way to the next block.  A PC still inside the current
   block reuses it; any other PC resolves through one
   {!Trans_cache.find}, or decode-and-insert on a miss.  When the last
   instruction of a block retires, the PC delta says which way its
   terminator went, and the block's [hot_taken]/[hot_fall] count it:
   the trace tier promotes along the direction its exits took more
   often.

   Execution — the in-block inner loop.  Once a block is resolved,
   instructions run back to back (including in-block branches) without
   going around the dispatch loop, as long as each retired instruction
   is provably equivalent to re-dispatching: the block is still valid
   (a store into its own page clears [valid] via the write listener),
   the fetch would still hit the code frame ([fetch_holds]), fuel
   remains, and — outside deprivileged mode, where the interpreter
   checks interrupts before every instruction — the instruction class
   cannot affect interrupt state (no CSR, MMIO or port access;
   [now]/[ext_irq] are constant within a [step_n] call, so nothing else
   can make an interrupt pending). *)
let block_step cache hook states s ctx ~fuel =
  let cost = ctx.Cpu.cost in
  (* hoisted cost-model constants: no per-iteration field reads *)
  let trap_enter = cost.Cost_model.trap_enter in
  let base_instr = cost.Cost_model.base_instr in
  let deprivileged = Cpu.is_deprivileged ctx in
  let dtlb = ctx.Cpu.dtlb in
  if s.Cpu.halted then (0, Cpu.Halted)
  else begin
    let w =
      match List.assq s !states with
      | w -> w
      | exception Not_found ->
          let w = new_wstate ctx in
          states := (s, w) :: !states;
          w
    in
    (* the current block persists across calls only while the same
       micro-TLB keeps generations comparable (see [enter]) *)
    if w.w_dtlb != dtlb then begin
      w.w_dtlb <- dtlb;
      w.cur_block <- None
    end;
    if w.src != ctx then begin
      w.src <- ctx;
      w.wrapped <- wrap ctx
    end;
    let ctx = w.wrapped in
    w.consumed <- 0;
    w.result <- Cpu.Budget;
    w.stopped <- false;
    (* instructions retired by the inner loop, added to [instret] once
       on the way out (a trace adds its own) *)
    let retired = ref 0 in
    while not w.stopped do
      if w.consumed >= fuel then stop w Cpu.Budget
      else if s.Cpu.halted then stop w Cpu.Halted
      else begin
        (if not deprivileged then
           match
             Cpu.interrupt_pending s ~now:(ctx.Cpu.now ()) ~ext_irq:(ctx.Cpu.ext_irq ())
           with
           | Some cause ->
               Cpu.deliver_trap s ~cause ~tval:0L;
               w.consumed <- w.consumed + trap_enter
           | None -> ());
        if s.Cpu.waiting then stop w Cpu.Waiting
        else begin
          let pc = Cpu.slot_get s.Cpu.regs pc_slot in
          let user = s.Cpu.mode = Arch.User in
          let vpn = Int64.to_int (Int64.shift_right_logical pc Arch.page_shift) in
          (* 1. The fetch translation for [pc]: free on a micro-TLB hit,
             a real (interpreter-identical) prelude on a miss.  [xl] is
             its cycles, or -1 after a fetch fault. *)
          let frame =
            if Int64.logand pc align_mask = 0L then
              Dtlb.lookup dtlb ~access:Arch.Fetch ~user vpn
            else -1
          in
          let xl =
            if frame >= 0 then begin
              enter w dtlb s ~user ~frame;
              0
            end
            else
              let x = Cpu.fetch_prelude s ctx in
              if x < 0 then begin
                finish w (Cpu.fetch_fault s ctx x);
                w.cur_block <- None;
                -1
              end
              else begin
                Dtlb.fill dtlb ~access:Arch.Fetch ~user ~va:pc;
                enter w dtlb s ~user ~frame:(Cpu.xl_pa x lsr Arch.page_shift);
                Cpu.xl_cycles x
              end
          in
          if xl >= 0 then begin
              let off = Int64.to_int (Int64.logand pc page_mask) in
              (* 2. A decoded block covering [off] in the code frame:
                 the current block when the PC is still inside it
                 (sequential flow and in-block branches), else a cache
                 lookup, else decode-and-insert. *)
              let blk =
                match w.cur_block with
                | Some b
                  when b.Trans_cache.valid
                       && off >= b.Trans_cache.start_off
                       && off
                          < b.Trans_cache.start_off
                            + (Arch.instr_bytes * Array.length b.Trans_cache.insns) ->
                    Some b
                | _ ->
                    let key =
                      Trans_cache.key ~ppn:w.cur_frame ~off ~user
                        ~paging:(Arch.satp_enabled (Cpu.get_csr s Arch.Satp))
                    in
                    let resolved =
                      match Trans_cache.find cache key with
                      | Some b -> Some b
                      | None -> (
                          let base = (Int64.to_int w.cur_frame lsl Arch.page_shift) lor off in
                          let read_word i =
                            Phys_mem.read_at ctx.Cpu.mem
                              (base + (i * Arch.instr_bytes))
                              Instr.W64
                          in
                          let max_instrs = (Arch.page_size - off) / Arch.instr_bytes in
                          let insns = Block.decode_span ~read_word ~max_instrs in
                          match Array.length insns with
                          | 0 ->
                              (* Undecodable first word: the interpreter's
                                 illegal-instruction outcome (which
                                 charges no translation cycles either). *)
                              finish w
                                (Cpu.trap_or_exit s ctx Arch.Illegal_instruction
                                   (read_word 0) base_instr);
                              None
                          | _ ->
                              attach hook cache ctx.Cpu.mem;
                              let b =
                                Trans_cache.insert cache ~key ~ppn:w.cur_frame ~insns
                                  ~start_off:off
                              in
                              (* the cache holds code from this frame now,
                                 perhaps beyond the span the listener last
                                 answered: its writes must reach it again *)
                              Phys_mem.watch ctx.Cpu.mem ~ppn:w.cur_frame;
                              Some b)
                    in
                    w.cur_block <- resolved;
                    resolved
              in
              match blk with
              | None -> ()
              | Some b ->
                  (* 2b. The trace tier (deprivileged only).  A live
                     superblock trace installed at this block, built
                     against this very cost model, absorbs the dispatch:
                     execution enters the trace at the op matching
                     [off] and stays inside it across block boundaries
                     and loop back-edges.  No further guards are needed
                     at entry — the fetch translation above certifies
                     exactly the facts the trace's eliminated interior
                     guards rely on (see {!Trace_ir}).  The trace gets
                     the unwrapped ctx, whose translator it calls on a
                     micro-TLB miss, and the code frame, which a fetch
                     must still hit after such a translation.  A [Bail]
                     means zero progress was made; fall through to the
                     plain block path in the same dispatch so progress
                     is always guaranteed. *)
                  let ran_trace =
                    deprivileged
                    && (match b.Trans_cache.trace_at with
                       | Some tr
                         when !(tr.Trans_cache.t_prog.Trace_ir.live)
                              && tr.Trans_cache.t_cost == cost -> (
                           let start =
                             (off - b.Trans_cache.start_off) / Arch.instr_bytes
                           in
                           let page_base = Int64.logand pc (Int64.lognot page_mask) in
                           match
                             Trace_ir.exec tr.Trans_cache.t_prog ~start ~s ~ctx:w.src
                               ~user ~page_base ~frame:(Int64.to_int w.cur_frame)
                               ~fuel_left:(fuel - w.consumed) ~xl
                           with
                           | Trace_ir.Bail ->
                               Trans_cache.note_trace_side_exit cache;
                               false
                           | Trace_ir.Fall { cycles; early } ->
                               w.consumed <- w.consumed + cycles;
                               Trans_cache.note_trace_follow cache;
                               if early then Trans_cache.note_trace_side_exit cache;
                               true
                           | Trace_ir.Stop { cycles; stop = r } ->
                               w.consumed <- w.consumed + cycles;
                               Trans_cache.note_trace_follow cache;
                               stop w r;
                               true)
                       | _ ->
                           (* hotness accounting: promotion triggers on
                              dispatch count, which also sees in-block
                              loops that never leave the block *)
                           b.Trans_cache.heat <- b.Trans_cache.heat + 1;
                           if b.Trans_cache.heat >= Trans_cache.promote_threshold
                           then begin
                             b.Trans_cache.heat <- 0;
                             ignore (Trans_cache.try_promote cache ~head:b ~cost)
                           end;
                           false)
                  in
                  if ran_trace then ()
                  else
                  (* 3. The inner loop: run instructions back to back
                     inside the block while that is provably equivalent
                     to re-dispatching (see the header comment). *)
                  let insns = b.Trans_cache.insns in
                  let len = Array.length insns in
                  let start_off = b.Trans_cache.start_off in
                  let idx = ref ((off - start_off) / Arch.instr_bytes) in
                  let xl = ref xl in
                  let inner = ref true in
                  while !inner do
                    let insn = insns.(!idx) in
                    let pc_before = Cpu.slot_get s.Cpu.regs pc_slot in
                    match Cpu.exec_insn s ctx insn with
                    | Cpu.Retired c ->
                        incr retired;
                        w.consumed <- w.consumed + c + !xl;
                        xl := 0;
                        if !idx = len - 1 then begin
                          if
                            Int64.sub (Cpu.slot_get s.Cpu.regs pc_slot) pc_before
                            <> instr_bytes64
                          then b.Trans_cache.hot_taken <- b.Trans_cache.hot_taken + 1
                          else b.Trans_cache.hot_fall <- b.Trans_cache.hot_fall + 1;
                          inner := false
                        end
                        else begin
                          (* A non-last instruction is never a
                             terminator ([decode_span] would have ended
                             the block), so it is one of
                             Nop/Alu/Alui/Lui/Load/Store: it advanced
                             the PC by exactly one instruction and —
                             deprivileged, where faults and sensitive
                             ops exit instead of trapping — cannot have
                             changed the mode.  Continuation therefore
                             needs no PC or containment re-check: just
                             fuel, [fetch_holds] after a memory access
                             (its walk may have evicted the fetch
                             entry) and block validity after a store
                             (it may have hit this very code page). *)
                          let continue_ =
                            w.consumed < fuel
                            &&
                            if deprivileged then
                              match insn with
                              | Instr.Nop | Instr.Alu _ | Instr.Alui _ | Instr.Lui _ ->
                                  true
                              | Instr.Load _ -> fetch_holds w dtlb ~user ~vpn
                              | Instr.Store _ ->
                                  fetch_holds w dtlb ~user ~vpn && b.Trans_cache.valid
                              | _ -> false
                            else
                              (* native mode: must also be
                                 interrupt-neutral (no CSR, MMIO or
                                 port side effects), which Load/Store
                                 are not *)
                              Block.preserves_translation_unconditionally insn
                          in
                          if continue_ then incr idx else inner := false
                        end
                    | Cpu.Stop_exec (r, c) ->
                        w.consumed <- w.consumed + c + !xl;
                        xl := 0;
                        stop w r;
                        inner := false
                  done
          end
        end
      end
    done;
    s.Cpu.instret <- Int64.add s.Cpu.instret (Int64.of_int !retired);
    (w.consumed, w.result)
  end

(* Translation-cache capacity of a block engine, in blocks. *)
let cache_capacity = 1024

let block () =
  let cache = Trans_cache.create ~capacity:cache_capacity () in
  let hook = { attached = None } in
  let states = ref [] in
  { kind = Block; step_n = block_step cache hook states; cache = Some cache; hook }

let of_kind = function Interp -> interp | Block -> block ()

let counters ~tlbs ~dtlbs t =
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  [
    ("tlb.hits", sum Tlb.hits tlbs);
    ("tlb.misses", sum Tlb.misses tlbs);
    ("tlb.evictions", sum Tlb.evictions tlbs);
    ("tlb.flushes", sum Tlb.flushes tlbs);
    ("dtlb.hits", sum Dtlb.hits dtlbs);
    ("dtlb.misses", sum Dtlb.misses dtlbs);
    ("dtlb.fills", sum Dtlb.fills dtlbs);
  ]
  @
  match t.cache with
  | None -> []
  | Some c ->
      [
        ("engine.cache.entries", Trans_cache.entries c);
        ("engine.cache.hits", Trans_cache.hits c);
        ("engine.cache.misses", Trans_cache.misses c);
        ("engine.cache.invalidations", Trans_cache.invalidations c);
        ("engine.cache.evictions", Trans_cache.evictions c);
        ("engine.trace.built", Trans_cache.traces_built c);
        ("engine.trace.follows", Trans_cache.trace_follows c);
        ("engine.trace.severed", Trans_cache.traces_severed c);
        ("engine.trace.side_exits", Trans_cache.trace_side_exits c);
      ]
