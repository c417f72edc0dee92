(** Log-scaled latency histogram — the residency percentiles of the
    gate-site profiler.

    Observations are binned by rounding in log space with a per-bucket
    relative error of about 4.5%, which keeps p50/p95/p99 of latency
    distributions accurate enough for attribution while using O(1)
    memory per decade. This is the same sketch idea production metric
    pipelines use (DDSketch-style), sized for cycle-valued latencies. *)

type t

val create : unit -> t
(** An empty histogram. *)

val observe : t -> float -> unit
(** Record one observation. Non-positive and non-finite values all land in
    a dedicated zero bucket (latencies are non-negative by construction;
    a zero-cycle span is still an observation). *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0.0 when empty. *)

val percentile : t -> float -> float
(** [percentile h p] with [p] in [\[0, 100\]]; nearest-rank over the
    bucketed distribution, so the result is a bucket representative within
    ~4.5% of the true order statistic. Returns 0.0 for an empty histogram.
    Raises [Invalid_argument] if [p] is outside [\[0, 100\]]. *)

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float
