(** Summary statistics for experiment reporting. *)

val mean : float array -> float
(** [mean xs] is the arithmetic mean; 0 on an empty array. *)

val stddev : float array -> float
(** [stddev xs] is the {e population} standard deviation (divides the sum
    of squares by [n], not [n-1]); 0 for fewer than two samples.  Bench
    tables across the repo assume this convention. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the [p]-th percentile (0..100) by linear
    interpolation over the samples sorted with [Float.compare].

    @raise Invalid_argument on an empty array, [p] outside [0,100], or
    any NaN sample. *)

val median : float array -> float
(** [median xs] is [percentile xs 50.0]. *)

val nearest_rank : int array -> float -> int
(** [nearest_rank xs p] is the [p]-th percentile (0..100) by nearest
    rank: element [ceil (p * n / 100)] (1-based, [p = 0] giving the
    minimum) of the samples sorted ascending.  The result is always one
    of the samples, never an interpolation.

    @raise Invalid_argument on an empty array or a NaN [p] or one
    outside [0,100]. *)

val jain_fairness : float array -> float
(** [jain_fairness xs] is Jain's fairness index
    [(sum xs)^2 / (n * sum (x^2))]: 1.0 means perfectly even allocation,
    [1/n] maximal unfairness.  Returns 1.0 for empty input. *)

val geometric_mean : float array -> float
(** [geometric_mean xs] for strictly positive samples; 0 on empty input.

    @raise Invalid_argument if any sample is non-positive. *)
