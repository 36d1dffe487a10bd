(* Exact percentiles over raw samples.

   The fleet latency tails the paper's E23 table reports come from a
   log2-bucket histogram whose buckets were replayed at their lower
   bounds, so every tail sample of a 2^22..2^23-1 bucket reads back as
   4194304.  The benchmark keeps every sample instead and reads
   percentiles off the sorted array by nearest rank: the answer is
   always one of the measured values. *)

let sorted_of_list samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least [p] percent of the
   population at or below it, i.e. element [ceil (p/100 * n)] (1-based).
   [p = 0] gives the minimum. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pctl.nearest_rank: no samples";
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Pctl.nearest_rank: percentile outside [0,100]";
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median_float values =
  match List.sort compare values with
  | [] -> invalid_arg "Pctl.median_float: no values"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
