(** Monotonic time for durations.

    [Unix.gettimeofday] is wall-clock time: NTP slews and manual clock
    resets can make intervals negative or wildly wrong.  Everything
    that reports a duration (anneal stats, bench artifacts) should
    difference this clock instead. *)

val now_s : unit -> float
(** Seconds on CLOCK_MONOTONIC.  Only differences are meaningful. *)

val elapsed_s : float -> float
(** [elapsed_s t0] is [now_s () -. t0]. *)
