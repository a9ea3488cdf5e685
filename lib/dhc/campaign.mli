(** Randomized edge-fault campaigns: the Chapter-3 analogue of the
    thesis's simulation tables.

    For each fault count f the campaign samples f distinct edges of
    B(d,n) uniformly (by {!Debruijn.Word.edge_code}) and asks the
    streaming engine for a fault-free Hamiltonian ring, recording which
    route succeeded — the Proposition 3.3 construction or the ψ(d)
    disjoint-family pick — and the ring length achieved.  Sweeping f
    from 0 past MAX(ψ(d)−1, φ(d)) shows the guaranteed regime (100%
    success) giving way to best-effort behaviour. *)

type point = {
  f : int;  (** number of random edge faults injected *)
  trials : int;
  successes : int;  (** trials that produced a fault-free Hamiltonian ring *)
  via_construction : int;  (** … via the Proposition 3.3 construction *)
  via_disjoint : int;  (** … via a fault-free member of the ψ(d) family *)
  masked_fallbacks : int;
      (** failed trials recovered by node masking (non-Hamiltonian ring;
          only attempted for dⁿ ≤ 65536) *)
  mean_ring_length : float;
      (** over all trials; dⁿ on success, the masked ring length on
          fallback, 0 on total failure *)
  wall_s : float;
  minor_words_per_trial : float;
      (** steady-state minor-heap words allocated by one trial (minimum
          across the point's trials, read in the trial's own domain) *)
  major_words_per_trial : float;  (** likewise for the major heap *)
}

val run :
  ?domains:int ->
  ?trials:int ->
  ?seed:int ->
  ?fmax:int ->
  d:int ->
  n:int ->
  unit ->
  point list
(** Points for f = 0, 1, …, fmax (default 2·MAX(ψ(d)−1, φ(d)) + 2,
    clamped to the edge count dⁿ·d).  [?domains] parallelizes the
    trials of each point; per-trial seeds are derived from [seed], [f]
    and the trial index, so every field except [wall_s] and the
    measured allocation counters is independent of [domains].
    Defaults: 20 trials, seed 0x5eed.
    @raise Invalid_argument when [trials < 1], [domains < 1] or
    [fmax < 0]. *)
