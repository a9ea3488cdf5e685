(** Campaign trials: the per-trial generators and the one runner that
    strides a campaign point's trials across domains.  Both campaign
    engines ([Ffc.Campaign], [Dhc.Campaign]) run every point through
    {!run}. *)

val rng : seed:int -> f:int -> trial:int -> Rng.t
(** The generator of trial [trial] at fault count [f] of a campaign
    seeded [seed]: [Rng.split seed (1_000_003·f + trial)].  It depends
    on those three numbers alone, so a trial's faults — and every
    statistic a campaign derives from them — are the same at any domain
    count and in any trial order. *)

type 'a run = {
  outcome : 'a array;  (** indexed by trial *)
  wall_s : float;  (** the trials' own wall times, summed *)
  minor_words : float;
      (** steady-state minor-heap words per trial: the minimum over the
          trials.  The runtime now and then books a large
          nondeterministic burst of its own into one trial's window (it
          appears and vanishes across identical reruns); the minimum is
          the stable "one more trial" figure *)
  major_words : float;  (** the same minimum, of major-heap words *)
}

val run : domains:int -> trials:int -> (int -> int -> 'a) -> 'a run
(** [run ~domains ~trials f] computes [f w i] for every trial
    [i < trials] on [k = min domains trials] workers (at least one):
    worker [w] runs trials [w], [w + k], … in order, so a caller can keep
    one scratch value per worker.  With [k = 1] the calling domain runs
    them all.  Otherwise [k] domains are spawned; each starts its first
    trial once all are up and exits once all have finished, so no
    domain's start-up or exit falls inside another worker's trial, and
    an exception raised by [f] still reaches that exit barrier before
    [run] re-raises it.

    Each trial's wall time and GC counters are read around it, in its
    worker's domain: minor words from [Gc.minor_words] (exact there;
    [Gc.counters] misreads them on OCaml 5.1), major words from
    [Gc.counters], read outside that window. *)
