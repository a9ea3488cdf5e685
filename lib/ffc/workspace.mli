(** Preallocated off-heap scratch arena for repeated FFC embeddings on
    one (d, n).

    A workspace bundles every scratch structure the four pipeline
    stages need — traversal state ({!Graphlib.Itopo.ws}), the necklace
    index, adjacency/spanning buffers, the ring's digit table and the
    successor map — sized once by {!create} and reused across
    trials via the [?ws] argument of [Bstar.compute], [Embed.embed]
    etc.  All of it lives in {e one} {!Graphlib.Flatarr.Arena}: two
    [Bigarray] backing allocations (words + flag bytes) the GC never
    scans, each region carved at a 64-byte-separated offset so no two
    arrays — nor two domains' workspaces — share a cache line.  A
    steady-state trial then allocates almost nothing beyond the
    returned ring (see DESIGN.md §5 and §6b for the
    ownership/reset/layout contract).

    Reuse discipline:
    - each stage resets exactly the scratch it reads before writing,
      so results are {e bit-identical} to the fresh-allocation path
      (qcheck-pinned in [test_ffc.ml]);
    - the structures returned by a [?ws] run ({!Bstar.t},
      {!Adjacency.t}, {!Spanning.tree}, the [successor] array of
      {!Embed.t}) {e alias} workspace arrays: they are only valid until
      the workspace's next use.  The returned [cycle] is the one
      freshly-allocated result and survives;
    - a workspace is single-threaded state — campaigns give each domain
      its own. *)

type t = {
  p : Debruijn.Word.params;
  max_necklaces : int;
      (** necklace count of the fault-free B(d,n) — capacity of the
          necklace-level arrays (any B* has at most this many) *)
  arena : Graphlib.Flatarr.Arena.arena;
      (** the backing storage every array below is carved from —
          exposed for size introspection ([words_used]/[bytes_used]) *)
  (* node-level scratch, dⁿ entries *)
  necklace_faulty : Graphlib.Flatarr.Byte.t;  (** owned by [Bstar.compute] *)
  in_bstar : Graphlib.Flatarr.Byte.t;  (** owned by [Bstar.compute] *)
  idx_of_node : Graphlib.Flatarr.t;  (** owned by [Adjacency.build] *)
  digit : Succ_digit.t;
      (** the ring, one byte per node (and the escape table for
          d ≥ 255); owned by [Spanning.modify] *)
  successor : Graphlib.Flatarr.t;  (** owned by [Embed.successor_map] *)
  cycle_seen : Graphlib.Bitset.t;  (** owned by [Embed.verify] *)
  it : Graphlib.Itopo.ws;
      (** owned by [Bstar.compute] (its BFS and, without a majority
          component, its component sweep); the B\u{2217} record's [dist]
          aliases it, so any later traversal with the same workspace
          clobbers that field *)
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
(** Allocate the whole arena for (d, n): 4 words per node, 6 per
    necklace and 2 per (n−1)-suffix (≈ 4·dⁿ + 6·K + 2·dⁿ⁻¹ words), plus
    3 bytes per node (two flags and the ring's digit), in two backing
    allocations; for d ≥ 255 the digit table's escape side table adds
    dⁿ words.  Two one-bit-per-node sets live on the heap.  O(dⁿ) time
    (one necklace-counting sweep). *)

val check : t -> Debruijn.Word.params -> unit
(** @raise Invalid_argument when the workspace was built for a
    different (d, n). *)
