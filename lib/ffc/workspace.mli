(** The off-heap arena every FFC pipeline stage runs on, sized once for
    one (d, n).

    A workspace holds every table the four stages write — B\u{2217}'s
    flood levels and queue, the necklace index, adjacency/spanning
    buffers, the ring's digit table and the successor map — in {e one}
    {!Graphlib.Flatarr.Arena}: three [Bigarray] backing allocations
    (words, bytes and 32-bit cells) the GC never scans, each region
    carved at a 64-byte-separated offset so no two arrays — nor two
    domains' workspaces — share a cache line (DESIGN.md §5 and §6b).

    The ownership rule, the same for every stage:
    - every stage writes into a workspace: the caller's [?ws], or one
      made for the call ({!resolve}; [Embed.embed] and
      [Embed.of_bstar] make one and run every stage on it);
    - the results ({!Bstar.t}, {!Adjacency.t}, {!Spanning.tree},
      {!Spanning.modified}, the [successor] of {!Embed.t}) alias it
      until its next use; the ring [cycle] is the one fresh array;
    - each stage resets exactly the scratch it reads before writing,
      so a reused workspace gives results bit-identical to a new one
      (qcheck-pinned in [test_ffc.ml]), and a warm one allocates
      almost nothing beyond the ring;
    - a workspace is single-threaded state — campaigns give each domain
      its own. *)

type t = {
  p : Debruijn.Word.params;
  max_necklaces : int;
      (** necklace count of the fault-free B(d,n) — capacity of the
          necklace-level arrays (any B* has at most this many) *)
  arena : Graphlib.Flatarr.Arena.arena;
      (** the backing storage every array below is carved from —
          exposed for size introspection ([words_used]/[bytes_used]/
          [cells_used]) *)
  (* node-level scratch, dⁿ entries *)
  necklace_faulty : Graphlib.Flatarr.Byte.t;  (** owned by [Bstar.compute] *)
  in_bstar : Graphlib.Flatarr.Byte.t;  (** owned by [Bstar.compute] *)
  idx_of_node : Graphlib.Flatarr.I32.t;  (** owned by [Adjacency.build] *)
  digit : Succ_digit.t;
      (** the ring, one byte per node (and the escape table for
          d ≥ 255); owned by [Spanning.modify] *)
  successor : Graphlib.Flatarr.t;  (** owned by [Embed.successor_map] *)
  dist : Graphlib.Flatarr.I32.t;
      (** owned by [Bstar.compute]: its flood's levels, which the
          B\u{2217} record's [dist] aliases *)
  order : Graphlib.Flatarr.I32.t;
      (** owned by [Bstar.compute]: its flood's FIFO queue, which is
          the discovery order *)
  (* necklace-level scratch, [max_necklaces] entries unless noted *)
  reps_buf : Graphlib.Flatarr.t;  (** owned by [Adjacency.build] *)
  parent : Graphlib.Flatarr.t;  (** owned by [Spanning.build] *)
  label : Graphlib.Flatarr.t;  (** owned by [Spanning.build] *)
  chosen : Graphlib.Flatarr.t;  (** owned by [Spanning.build] *)
  nscratch : Graphlib.Flatarr.t;  (** [max_necklaces + 1]; [Spanning.modify] *)
  bucket_next : Graphlib.Flatarr.t;  (** owned by [Spanning.modify] *)
  (* (n−1)-suffix-level scratch, dⁿ⁻¹ entries *)
  bucket_par : Graphlib.Flatarr.t;  (** owned by [Spanning.modify] *)
  bucket_head : Graphlib.Flatarr.t;  (** owned by [Spanning.modify] *)
}

val create : Debruijn.Word.params -> t
(** Allocate the whole arena for (d, n): per node 1 word (the
    successor map), three 32-bit cells (the necklace index and
    [Bstar]'s [dist] and [order]) and 3 bytes (two flags and the
    ring's digit); 6 words per necklace and 2 per (n−1)-suffix.  That is
    dⁿ + 6·K + 2·dⁿ⁻¹ words (K the necklace count), 3·dⁿ cells and
    3·dⁿ bytes — about 34 bytes per node at B(2,20), 12 fewer than
    with word cells — in one backing allocation per cell kind.  For
    d ≥ 255 the digit table's escape side table adds dⁿ words.  K comes
    from Ch. 4's closed form ({!Necklace_count.Count.total}), so the
    time is the arena's O(dⁿ) first fill.
    @raise Invalid_argument past 2³¹ nodes, before allocating anything
    ({!Graphlib.Flatarr.I32.check_nodes}; this is the one place that
    check runs). *)

val resolve : t option -> Debruijn.Word.params -> t
(** Where a stage's tables come from: [resolve (Some w) p] is [w],
    [resolve None p] is [create p].
    @raise Invalid_argument when [w] was built for a different (d, n),
    or as {!create}. *)
