type state = Up | Suspect | Dead | Disarmed

type t = {
  miss_limit : int;
  timeout : int; (* ticks *)
  mutable state : state;
  mutable misses : int;
  mutable last_heard : int;
  mutable declared_at : int option;
}

let rounds_of_cycles ~quantum c =
  if Int64.compare c 0L <= 0 then 0
  else
    let q = Int64.(add (div c quantum) (if rem c quantum = 0L then 0L else 1L)) in
    if Int64.compare q (Int64.of_int max_int) >= 0 then max_int else Int64.to_int q

let create ?(quantum = 1L) ?(backoff = 0L) ~miss_limit ~timeout ~last_heard
    () =
  let fail what = invalid_arg ("Suspicion.create: " ^ what) in
  if miss_limit <= 0 then fail "miss_limit must be positive";
  if Int64.compare quantum 0L <= 0 then fail "quantum must be positive";
  if Int64.compare timeout 0L < 0 then fail "timeout must be non-negative";
  if Int64.compare backoff 0L < 0 then fail "backoff must be non-negative";
  {
    miss_limit;
    timeout = rounds_of_cycles ~quantum timeout;
    state = Up;
    misses = 0;
    last_heard;
    declared_at = None;
  }

let watching t = t.state = Up || t.state = Suspect

let heard t ~now =
  if watching t then begin
    t.state <- Up;
    t.misses <- 0;
    t.last_heard <- now
  end

let missed t ~now =
  watching t
  && begin
       t.misses <- t.misses + 1;
       let dead = t.misses >= t.miss_limit && now - t.last_heard >= t.timeout in
       t.state <- (if dead then Dead else Suspect);
       if dead then t.declared_at <- Some now;
       dead
     end

let disarm t = t.state <- Disarmed

let rearm t ~now =
  t.state <- Up;
  t.misses <- 0;
  t.last_heard <- now;
  t.declared_at <- None

let state t = t.state
let misses t = t.misses
let last_heard t = t.last_heard
let declared_at t = t.declared_at
