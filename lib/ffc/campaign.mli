(** Randomized node-fault campaigns: the Table 2.1/2.2 experiments at
    arbitrary scale.

    For each fault count f the campaign samples f distinct nodes of
    B(d,n) uniformly, runs the full FFC pipeline (rooted at the
    thesis's R = 0…01 when alive), and records |B*|, the ring length,
    ecc(R), a full arithmetic verification, and the Proposition 2.2/2.3
    length-bound checks — len ≥ dⁿ − nf when f ≤ d−2, and
    len ≥ 2ⁿ − (n+1) for d = 2, f = 1.

    Trials run through {!Util.Trials.run} and reuse one
    {!Workspace.t} per worker (workspaces are created once per [run]),
    so a steady-state trial allocates almost nothing
    beyond its result ring; [~reuse:false] runs the identical trials
    through the fresh-allocation path, as the benchmarked baseline.
    Statistics are bit-identical across [?domains] and [?reuse] — only
    the wall/GC figures differ. *)

type point = {
  f : int;  (** number of random node faults injected *)
  trials : int;
  embedded : int;  (** trials with a nonempty B* (an embedding exists) *)
  verified : int;  (** trials whose ring passed [Embed.verify] *)
  errors : int;
      (** trials aborted by a typed {!Pipeline_error.Error} — recorded
          as failed trials, never crashing the sweep (always 0 on the
          well-formed B* the pipeline itself produces) *)
  bound_applicable : int;
      (** [trials] when a Proposition 2.2/2.3 bound covers this (d, f);
          0 otherwise *)
  bound_ok : int;  (** trials whose ring met the applicable bound *)
  mean_bstar_size : float;  (** over all trials; 0 counts for failures *)
  mean_ring_length : float;
  mean_ecc : float;  (** mean ecc(R) within B*, from [Bstar.compute]'s BFS *)
  min_ring_length : int;
  max_ring_length : int;
      (** with [min_ring_length], the ring-length spread over the
          point's trials (failures count as 0, as in the means) *)
  min_ecc : int;
  max_ecc : int;  (** the spread of ecc(R), failures counting as 0 *)
  wall_s : float;
      (** the trials' own wall times, summed ({!Util.Trials.run}: domain
          start-up and joins are not counted, and at [domains > 1] it is
          not the elapsed time) *)
  minor_words_per_trial : float;
      (** steady-state minor-heap words per trial ({!Util.Trials.run}'s
          minimum over the point's trials); the workspace path's
          headline figure *)
  major_words_per_trial : float;
      (** same minimum; includes the trial's result ring *)
}

val length_bound : Debruijn.Word.params -> int -> int option
(** The applicable Proposition 2.2/2.3 lower bound on ring length, or
    [None] when neither proposition covers (d, f). *)

val run :
  ?domains:int ->
  ?trials:int ->
  ?seed:int ->
  ?fs:int list ->
  ?reuse:bool ->
  d:int ->
  n:int ->
  unit ->
  point list
(** One point per fault count in [fs] (default [[1; 5; 10; 30; 50]]
    filtered to ≤ dⁿ — the thesis's Table 2.1/2.2 rows).  [?domains]
    runs trials strided across that many domains, one workspace each;
    per-trial generators come from {!Util.Trials.rng} on [(seed, f,
    trial)], so every field except [wall_s] and the GC counters is
    independent of [domains] and [reuse].  Defaults: 20 trials, seed
    0x5eed, workspace reuse on. *)

(** {2 Churn campaigns}

    The {!Live} engine under sustained fault/repair churn.  Each trial
    starts from the fault-free B(d,n) and runs [events] steps of a
    birth-death chain that hovers around [target] outstanding faults:
    with f faults outstanding the next event is a fault of a uniform
    healthy node with probability target/(target + f) and the repair of
    a uniform outstanding fault otherwise.  Every event flows through
    {!Live.apply}; the point records how many events the engine patched
    incrementally versus recomputed, the per-event latency spread and
    the steady-state per-event allocation. *)

type churn_point = {
  target_f : int;  (** the chain's equilibrium fault count *)
  ctrials : int;
  events : int;  (** events per trial *)
  cfaults : int;  (** fault events, summed over trials *)
  crepairs : int;  (** repair events, summed over trials *)
  patched : int;  (** events repaired incrementally *)
  recomputed : int;  (** events that fell back to the batch pipeline *)
  cunchanged : int;  (** events absorbed as pure bookkeeping *)
  cerrors : int;  (** trials aborted by {!Pipeline_error.Error} *)
  mean_ring_length : float;  (** final ring length, mean over trials *)
  min_ring_length : int;
  mean_live_faults : float;  (** outstanding faults at trial end *)
  cwall_s : float;  (** the trials' own wall times, summed, as [wall_s] *)
  median_event_s : float;  (** median {!Live.apply} latency *)
  max_event_s : float;
  minor_words_per_event : float;
      (** steady-state minor-heap words per event (minimum across
          trials, as {!point.minor_words_per_trial}) *)
  major_words_per_event : float;
}

(** Every [churn_point] field except [cwall_s], the [*_event_s]
    latencies and the GC figures is a pure function of (seed, target,
    trial count, event count) — bit-identical across [?domains] and
    [?reuse], which the tests pin. *)

val churn :
  ?domains:int ->
  ?trials:int ->
  ?seed:int ->
  ?targets:int list ->
  ?events:int ->
  ?reuse:bool ->
  d:int ->
  n:int ->
  unit ->
  churn_point list
(** One point per equilibrium target (default [[1; 5; 10; 30; 50]]
    filtered to ≤ dⁿ).  [?domains] strides trials across domains with
    one {!Live.t} and one workspace each; [~reuse:false] drops the
    workspaces (the batch fallbacks then allocate their own arenas).
    Defaults: 10 trials, 100 events, seed 0x5eed. *)
