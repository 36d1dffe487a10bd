(* Accounting period, in cycles. *)
let period = 3_000_000

type state = {
  slice : int;
  mutable registered : Vcpu.t list; (* all vCPUs that receive refills *)
  mutable queue : Vcpu.t list; (* runnable, FIFO within priority class *)
  mutable next_refill : int64;
}

let priority v =
  if v.Vcpu.boosted then 0 else if v.Vcpu.credits > 0 then 1 else 2

(* A capped vCPU may not exceed cap% of one pCPU per accounting period;
   once it has, it is parked until the next refill. *)
let over_cap v =
  v.Vcpu.cap > 0 && v.Vcpu.window_used >= period * v.Vcpu.cap / 100

let refill st =
  let total_weight =
    List.fold_left (fun acc v -> acc + max 1 v.Vcpu.weight) 0 st.registered
  in
  if total_weight > 0 then
    List.iter
      (fun v ->
        let grant = period * max 1 v.Vcpu.weight / total_weight in
        v.Vcpu.credits <- min (v.Vcpu.credits + grant) (2 * period);
        v.Vcpu.window_used <- 0)
      st.registered

let create ?(slice = Scheduler.default_slice) () =
  let st = { slice; registered = []; queue = []; next_refill = 0L } in
  let register v =
    if not (List.memq v st.registered) then begin
      st.registered <- v :: st.registered;
      (* A vCPU joining after the first refill (restore, migration,
         hotplug) would otherwise sit in the lowest priority class with
         zero credits until the period rolls over — starved for up to
         [period] cycles behind any resident with credits.  Grant a
         late joiner its pro-rated share immediately; vCPUs registered
         before the first pick still get everything from that refill,
         so upfront-created fleets are byte-for-byte unchanged. *)
      if Int64.compare st.next_refill 0L > 0 && v.Vcpu.credits <= 0 then begin
        let total_weight =
          List.fold_left (fun acc x -> acc + max 1 x.Vcpu.weight) 0 st.registered
        in
        v.Vcpu.credits <- period * max 1 v.Vcpu.weight / total_weight;
        v.Vcpu.window_used <- 0
      end
    end
  in
  let push v =
    register v;
    if not (List.memq v st.queue) then st.queue <- st.queue @ [ v ]
  in
  (* [let rec]: the closures read [t.notify] at call time, so the hook
     is a per-scheduler field rather than a cell shared across
     instances. *)
  let rec maybe_refill now =
    if Int64.unsigned_compare now st.next_refill >= 0 then begin
      refill st;
      Scheduler.tell t.Scheduler.notify None Scheduler.N_refill;
      st.next_refill <- Int64.add now (Int64.of_int period)
    end
  and t =
    {
      Scheduler.name = "credit";
      enqueue = push;
      requeue = push;
      wake =
        (fun v ->
          Scheduler.tell t.Scheduler.notify (Some v)
            (Scheduler.N_wake { boosted = v.Vcpu.boosted });
          push v);
      remove =
        (fun v ->
          st.queue <- List.filter (fun x -> not (x == v)) st.queue;
          st.registered <- List.filter (fun x -> not (x == v)) st.registered);
      pick =
        (fun ~now ->
          maybe_refill now;
          let eligible =
            List.filter (fun v -> Vcpu.is_runnable v && not (over_cap v)) st.queue
          in
          match eligible with
          | [] ->
              (* drop stale entries but keep capped vCPUs parked for the
                 next period *)
              st.queue <- List.filter (fun v -> Vcpu.is_runnable v) st.queue;
              None
          | _ ->
              (* lowest priority class number first, FIFO inside a class *)
              let best =
                List.fold_left
                  (fun acc v ->
                    match acc with
                    | None -> Some v
                    | Some b -> if priority v < priority b then Some v else acc)
                  None eligible
              in
              let v = Option.get best in
              st.queue <- List.filter (fun x -> not (x == v)) st.queue;
              v.Vcpu.boosted <- false;
              (* never hand out a slice crossing the cap boundary *)
              let slice =
                if v.Vcpu.cap = 0 then st.slice
                else min st.slice (max 1 ((period * v.Vcpu.cap / 100) - v.Vcpu.window_used))
              in
              Some (v, slice));
      charge =
        (fun v ~used ~now ->
          maybe_refill now;
          v.Vcpu.credits <- v.Vcpu.credits - used;
          v.Vcpu.window_used <- v.Vcpu.window_used + used);
      next_release =
        (fun ~now ->
          (* only relevant when someone runnable is parked by a cap *)
          let parked =
            List.exists (fun v -> Vcpu.is_runnable v && over_cap v) st.queue
          in
          if parked && Int64.unsigned_compare st.next_refill now > 0 then
            Some st.next_refill
          else None);
      notify = None;
    }
  in
  t
