(** Steps 1 and 2 of the FFC algorithm: the spanning tree T of N\u{2217}
    whose w-subtrees T_w all have height one, and the modified tree D in
    which each T_w becomes a directed w-labeled cycle.

    T is derived from the broadcast tree T′ of B\u{2217} rooted at R:
    - T′: BFS with the "first receipt, minimal-predecessor tie-break"
      parent rule (Step 1.1);
    - T: per necklace, pick the earliest-reached node Y (ties toward the
      minimal node), let w = prefix(Y) and the parent necklace be the
      necklace of Y's T′-parent (Step 1.2).

    The height-one property of every T_w follows because sibling nodes
    wα and wβ share their full predecessor set, hence their T′ parent.

    No traversal happens here: T′'s levels are the [dist] field that
    {!Bstar.compute}'s BFS from R left in the B\u{2217} record, and the
    parent rule ({!find_parent}) runs only at each necklace's Y — the
    one node per necklace Step 1.2 reads — instead of over all of
    B\u{2217}. *)

type tree = {
  adj : Adjacency.t;
  root_idx : int;  (** the necklace of R *)
  parent : Graphlib.Flatarr.t;
      (** necklace-level parent index: the necklace of Y's T′ parent
          (−1 for root) *)
  label : Graphlib.Flatarr.t;  (** w label of the parent edge (−1 for root) *)
  chosen : Graphlib.Flatarr.t;  (** per necklace: the earliest-reached node Y *)
}

val find_parent : Graphlib.Flatarr.I32.t -> int -> int -> int -> int -> int -> int
(** [find_parent dist stride d pre dv 0] — the T′ parent rule (Step 1.1),
    shared with [Live]: the least predecessor [a·stride + pre] at
    distance [dv − 1] (dv ≥ 1), or −1.  [dist] is −1 outside B\u{2217}. *)

val build : ?domains:int -> ?ws:Workspace.t -> Adjacency.t -> tree
(** T from the B\u{2217} record's [dist] ({!Bstar.t}): one ascending scan
    picks each necklace's Y, then {!find_parent} runs at each Y.
    [?domains] is ignored: nothing here runs in parallel.  It stays
    in the signature, like {!Bstar.graph}, only because the repository
    benchmark ([bench/suite]) passes it; it goes at that benchmark's
    next re-anchor.  With [?ws], [parent]/[label]/[chosen] alias
    workspace arrays (valid until its next use).
    @raise Pipeline_error.Error (stage ["Spanning"]) on a malformed
    B\u{2217} record: R outside [in_bstar], a necklace with no reached node,
    a Y without a T′ parent, or a T′ parent outside [in_bstar] (possible
    when [in_bstar] was edited after {!Bstar.compute} filled [dist]). *)

val check_height_one : tree -> bool
(** Every label class T_w has a single common parent — guaranteed by
    Lemma-level reasoning in the thesis; asserted in tests. *)

val tree_edges : tree -> (int * int * int) list
(** (parent idx, child idx, w) for every non-root necklace. *)

type modified = {
  tree : tree;
  digit : Succ_digit.t;
      (** D flattened into Step 3's ring: per node αw of B\u{2217} the
          last digit β of its ring successor wβ, {!Succ_digit.outside}
          off B\u{2217}.  β is the entry node wβ of the successor
          necklace on the w-cycle at the unique exit node αw of a
          w-edge, and α (the necklace successor) everywhere else.
          Replaces the seed's (idx, w)-keyed Hashtbl — a necklace has
          at most one node per suffix w, so the node {e is} the key. *)
}

val link_class :
  Debruijn.Word.params -> Graphlib.Flatarr.I32.t -> Graphlib.Flatarr.t -> int ->
  int -> Succ_digit.t -> bool
(** [link_class p key members k w digit] — the T_w linking rule (Step
    2), shared with [Live]: sort the k keys in [members.{0 .. k−1}]
    ascending and write the w-cycle through them, exit(i) → entry(i+1
    mod k) by {!Adjacency.exit_scan}/{!Adjacency.entry_scan} over [key]:
    each exit αw gets the last digit β of its entry wβ in [digit].
    [false] if an exit or entry is missing. *)

val modify : ?ws:Workspace.t -> tree -> modified
(** Step 2: each T_w (parent and children) becomes the directed cycle
    that steps through its members in increasing representative order
    and wraps.  One {!Succ_digit.fill_rotations} pass writes every
    node's rotation digit, then {!link_class} writes the exit digits.
    With [?ws], [digit] aliases the workspace.
    @raise Pipeline_error.Error (stage ["Spanning"]) when a T_w has two
    parents or a member lacks its exit or entry node. *)

val groups : modified -> (int * int list) list
(** Label w → members of T_w sorted by representative, for w ascending.
    Recomputed on demand — [modify] itself only materialises
    [digit]. *)

val out_edge : modified -> int -> int -> int option
(** [out_edge m idx w] — the successor necklace of [idx] on the
    w-cycle, if D carries that edge (the seed's [Hashtbl] lookup,
    recovered from [digit]: the exit's digit differs from its leading
    digit). *)

val d_edge_count : modified -> int
(** Number of D-edges (Lemma 2.1 counts these against tree edges). *)

val is_spanning_subgraph : modified -> bool
(** Every D edge exists in N\u{2217} — exposed for tests. *)
