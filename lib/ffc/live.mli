(** Long-lived incremental ring repair: the FFC pipeline as a reactive
    engine.

    {!Embed.embed} answers "given this fault set, what is the ring?" in
    one batch pass — Θ(dⁿ) however small the change.  [Live] instead
    holds the current fault set, B\u{2217}, its BFS layering and the embedded
    ring as {e state}, and absorbs one [Fault]/[Repair] event at a time,
    patching only the region the event disturbs:

    - a fault splices the dead necklace out of the ring, re-layers the
      downstream nodes whose BFS level lost support (two-phase
      delete-and-relayer over the implicit De Bruijn edges), and cuts
      off any part of B\u{2217} the fault disconnected;
    - a repair grafts the revived necklace back, relaxing any shortcuts
      it opens through existing levels;
    - the necklace-level structure (chosen nodes Y, labels, T_w
      buckets, the cyclic D-edge overrides of §2.3) is then rebuilt for
      exactly the necklaces whose nodes — or whose parent pointers —
      moved, with the batch stages' own rules: the T′ parent
      ({!Spanning.find_parent}), the necklace exit/entry nodes
      ({!Adjacency.exit_scan}/{!Adjacency.entry_scan}) and the T_w
      linking ({!Spanning.link_class}).

    After every event the engine's state is {e bit-identical} to a full
    {!Embed.embed} recompute on the current fault set: same membership,
    distances, eccentricity, root and successor map (qcheck-pinned over
    random churn sequences in [test_live.ml]).  Events whose local
    analysis cannot guarantee that equivalence — the root's necklace
    dying, a revival that may re-root or merge excluded components, a
    B\u{2217} that stops being the unique largest component — fall back to
    the batch pipeline ({!outcome} reports which path ran).

    A patched event moves 160–195 nodes on average on B(2,20) (the
    [live-churn] benchmark's traced [live.affected_per_event]), against
    dⁿ for the batch recompute: tens of microseconds against the ~1.7 s
    recompute of B(2,22) (see [bench live]).

    A [Live.t] owns all of its tables, off-heap ({!Graphlib.Flatarr}),
    with B\u{2217} membership keyed by necklace representative; the
    optional workspace is used only for the embedded batch fallback, so
    one [Live.t] plus one {!Workspace.t} per domain is the intended
    churn-campaign setup.  The footprint is 4·4 + 3 + 5/d bytes per
    node, 21.5 at d = 2: four 32-bit cells per node (representative,
    distance, and the chosen node and bucket link keyed by
    representative) and one per (n−1)-suffix (the bucket heads); a
    byte per node each for the fault flag, the ring as one
    {!Succ_digit} digit (the batch embed's own format, copied in by a
    fallback at 1 byte per node; the escape side table adds dⁿ words
    for d ≥ 255) and the event's marks; and a mark byte per suffix.
    The marks are set during an event and cleared from its touched
    lists when it ends, so an event costs O(touched nodes), never
    O(dⁿ). *)

type event =
  | Fault of int  (** the node becomes faulty *)
  | Repair of int  (** the node is repaired *)

type outcome =
  | Patched  (** incremental repair ran — Θ(affected region) *)
  | Recomputed  (** the batch pipeline ran — Θ(dⁿ) *)
  | Unchanged  (** B\u{2217} unaffected (bookkeeping only) *)

type error =
  | Out_of_range of int
  | Already_faulty of int  (** [Fault] of a node that is already down *)
  | Not_faulty of int  (** [Repair] of a node that was never faulted *)

type stats = {
  events : int;  (** accepted events *)
  fault_events : int;
  repair_events : int;
  rejected : int;  (** events refused with an {!error} *)
  patched : int;
  recomputed : int;
  unchanged : int;
  affected_nodes : int;
      (** cumulative membership/distance changes across patched events *)
  last_affected : int;  (** same, for the most recent patched event *)
}

type t

val create :
  ?root_hint:int ->
  ?ws:Workspace.t ->
  Debruijn.Word.params ->
  faults:int list ->
  t
(** Build the engine's initial state with one batch embedding of the
    given fault set (duplicates tolerated).  [root_hint] and [ws] are
    remembered and forwarded to every batch fallback, so the state
    stays comparable to [Embed.embed ?root_hint ?ws] throughout; the
    fallbacks run sequentially.
    @raise Invalid_argument on an out-of-range fault or a workspace
    built for a different (d, n), and past 2³¹ nodes before allocating
    anything ({!Graphlib.Flatarr.I32.check_nodes}). *)

val apply : t -> event -> (outcome, error) result
(** Absorb one event.  [Error] rejects the event {e without} touching
    any state: faulting a faulty node, repairing a healthy one and
    out-of-range nodes are reported, never raised.  Never raises on any
    event sequence — internal invariant checks fall back to the batch
    pipeline instead of asserting. *)

(** {2 Observers — all O(1) unless noted} *)

val params : t -> Debruijn.Word.params
val size : t -> int  (** |B\u{2217}| = current ring length *)

val ring_length : t -> int
val root : t -> int  (** −1 when B\u{2217} is empty *)

val ecc : t -> int  (** eccentricity of the root within B\u{2217} *)

val is_empty : t -> bool
val in_bstar : t -> int -> bool
val dist : t -> int -> int  (** BFS distance from the root; −1 outside B\u{2217} *)

val successor : t -> int -> int
(** Ring successor, computed from the node's digit byte
    ({!Succ_digit.successor}); −1 outside B\u{2217}. *)

val is_faulty : t -> int -> bool
val fault_count : t -> int
val current_faults : t -> int list  (** ascending; O(dⁿ) *)

val ring : t -> int array option
(** Materialize the ring from the root — a fresh array each call,
    equal to {!Embed.of_bstar}'s [cycle] on the same state; [None] when
    B\u{2217} is empty.  O(ring length): {!Succ_digit.walk}, the walk
    {!Embed.close_ring} runs.
    @raise Pipeline_error.Error (stage ["Live"]) if the digits do not
    close into a ring of |B\u{2217}| nodes — unreachable from
    {!apply}/{!create}, typed for uniformity. *)

val stats : t -> stats
