let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int n)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg "Stats.percentile: NaN sample")
    xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let median xs = percentile xs 50.0

let nearest_rank xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.nearest_rank: empty";
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.nearest_rank: p out of range";
  let sorted = Array.copy xs in
  Array.sort Int.compare sorted;
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  sorted.(max 0 (rank - 1))

let jain_fairness xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else
    let s = Array.fold_left ( +. ) 0.0 xs in
    let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)

let geometric_mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive sample";
        acc := !acc +. log x)
      xs;
    exp (!acc /. float_of_int n)
  end
