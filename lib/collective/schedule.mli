(** Ring-collective schedules in rank space — pure arithmetic, no
    materialized graphs.

    A collective runs over a logical ring of [ranks] participants
    (mapped onto an embedded ring by {!boundaries}; the physical hops
    between consecutive ranks are relayed, see {!Fastpath}).  The payload is
    divided into [ranks] chunks; in every phase each rank sends exactly
    one chunk to its ring successor and receives one from its
    predecessor — the classic bandwidth-optimal ring schedule both
    SNIPPETS.md exemplars implement.

    All three operations share one index formula.  In phase s
    (0-based), rank r sends chunk (r − s) mod R and receives chunk
    (r − s − 1) mod R:

    - {e reduce-scatter} runs phases 0 … R−2, accumulating every
      receive; afterwards rank r holds the fully reduced chunk
      (r + 1) mod R ({!owned_chunk});
    - {e all-gather} runs the same phases, storing instead of
      accumulating (rank r starts owning chunk r);
    - {e allreduce} is reduce-scatter followed by all-gather,
      phases 0 … 2R−3 — the same send formula extends across the
      boundary because the chunk finished by the last reduce-scatter
      receive is exactly the next one to broadcast.

    Everything here is total arithmetic on (op, ranks, rank, phase), so
    a schedule is never stored: executors ask per step. *)

type op = Reduce_scatter | All_gather | Allreduce

val op_to_string : op -> string
(** ["reduce-scatter"], ["all-gather"], ["allreduce"]. *)

val op_names : (string * op) list
(** Every name the [collective] CLI accepts, paired with its
    operation: the {!op_to_string} names and the short forms ["rs"],
    ["ag"], ["ar"]. *)

val phases : op -> ranks:int -> int
(** R − 1 for the one-pass operations, 2(R − 1) for allreduce.
    @raise Invalid_argument unless ranks ≥ 2. *)

val send_chunk : ranks:int -> rank:int -> phase:int -> int
(** The chunk [rank] sends to its successor in [phase]:
    (rank − phase) mod ranks.  Total in phase ≥ 0; callers stop at
    {!phases}. *)

val recv_chunk : ranks:int -> rank:int -> phase:int -> int
(** The chunk [rank] receives in [phase] — [send_chunk] of its ring
    predecessor, i.e. (rank − phase − 1) mod ranks. *)

val reduces : op -> ranks:int -> phase:int -> bool
(** Whether the phase-[phase] receive is accumulated (reduce-scatter
    half) or stored (all-gather half). *)

val owned_chunk : ranks:int -> rank:int -> int
(** The chunk fully reduced at [rank] once reduce-scatter completes:
    (rank + 1) mod ranks. *)

val boundaries : ranks:int -> length:int -> int array
(** Rank-to-ring-position map: rank j sits at ring position
    ⌊j·length/ranks⌋.  Strictly increasing, so ranks are distinct ring
    nodes and every inter-rank segment is non-empty.
    @raise Invalid_argument unless 2 ≤ ranks ≤ length. *)

val segment_messages : op -> ranks:int -> int
(** Messages crossing {e each} ring edge over a full run.  Every phase
    moves one chunk across every inter-rank segment, and each edge
    belongs to exactly one segment, so the per-edge load is uniform and
    equals {!phases} — the figure the congestion accounting multiplies
    by ring-sharing counts. *)

val payload_words : op -> ranks:int -> chunk_words:int -> int
(** Application payload transported end-to-end by one run over one
    ring: ranks·chunk_words (the vector that gets reduced and/or
    gathered).  What bytes/step is measured against. *)

val simulate : op -> ranks:int -> chunk_words:int ->
  init:(rank:int -> chunk:int -> word:int -> int) -> int array array
(** Reference executor in rank space: run the schedule sequentially on
    heap buffers and return the final [ranks] buffers (each
    ranks·chunk_words words, chunk-major).  The test and bench oracle
    — a few dozen lines of obviously-sequential folds, no simulator —
    that pins the closed form {!Fastpath} checks.  The executors do not
    call it: they check that closed form in one pass rather than re-run
    the schedule per request. *)
