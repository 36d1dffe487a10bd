type phase = Cordoned | Draining | Rebooting | Done

(* Live migrations per drain round. *)
let max_concurrent = 2

(* Failed live-migration attempts per VM before a cold move. *)
let retry_limit = 3

(* Rounds a drained host stays down for maintenance. *)
let reboot_rounds = 2

type t = {
  host : int;
  started_at : int;
  mutable phase : phase;
  mutable reboot_left : int;
  mutable migrations : int;
  mutable failed_attempts : int;
  mutable cold_moves : int;
  mutable completed_at : int option;
}

let start ~host ~round =
  {
    host;
    started_at = round;
    phase = Cordoned;
    reboot_left = reboot_rounds;
    migrations = 0;
    failed_attempts = 0;
    cold_moves = 0;
    completed_at = None;
  }

let host t = t.host
let phase t = t.phase
let active t = t.phase <> Done

let step t ~round ~resident ~migrate_one ~on_reboot ~on_refill =
  match t.phase with
  | Done -> ()
  | Rebooting ->
      t.reboot_left <- t.reboot_left - 1;
      if t.reboot_left <= 0 then begin
        on_refill ();
        t.phase <- Done;
        t.completed_at <- Some round
      end
  | Cordoned | Draining ->
      t.phase <- Draining;
      (* bounded concurrent migrations per round; a target shortage
         stalls the round, not the drain *)
      let left = ref resident in
      let budget = ref max_concurrent in
      let stalled = ref false in
      while !left > 0 && !budget > 0 && not !stalled do
        decr budget;
        match migrate_one () with
        | `Moved ->
            t.migrations <- t.migrations + 1;
            decr left
        | `Cold_moved ->
            (* live migration exhausted its retries; the control plane
               fell back to a checkpoint restore on the target *)
            t.cold_moves <- t.cold_moves + 1;
            decr left
        | `Failed -> t.failed_attempts <- t.failed_attempts + 1
        | `No_target -> stalled := true
      done;
      if !left = 0 then begin
        on_reboot ();
        t.phase <- Rebooting
      end

type stats = {
  migrations : int;
  failed_attempts : int;
  cold_moves : int;
  completed_at : int option;
}

let stats (t : t) =
  {
    migrations = t.migrations;
    failed_attempts = t.failed_attempts;
    cold_moves = t.cold_moves;
    completed_at = t.completed_at;
  }
