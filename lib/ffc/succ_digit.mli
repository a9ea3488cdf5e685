(** The FFC ring as one successor digit per node (Step 3).

    Step 3 sends a node αw of B\u{2217} (α its first digit, w the
    (n−1)-suffix) to wβ, where β = α (the necklace successor) except at
    the exit node of a D-edge, where wβ is the entry node of the next
    necklace on the w-cycle.  So the whole ring is one digit β per
    node: the shift-register form [Dhc.Stream] uses for the Chapter-3
    cycles.  With no faults the digits read along the ring spell a De
    Bruijn sequence.

    The table is one byte per node:
    - on B\u{2217}, the byte holds β;
    - off B\u{2217}, it holds {!outside} (255);
    - for d ≥ 255 a digit ≥ 254 is stored as {!escape} (254) and the
      digit itself in [wide], a dⁿ-word side table that is empty for
      every smaller alphabet.

    [Spanning.modify] writes the table ({!fill_rotations}, then
    [Spanning.link_class] at the exits), [Embed] checks it against
    B\u{2217} ({!first_disagreement}) and closes the ring with {!walk};
    [Live] keeps its own table in the same format and closes its ring
    with the same {!walk}. *)

type t = {
  bytes : Graphlib.Flatarr.Byte.t;  (** one byte per node *)
  wide : Graphlib.Flatarr.t;
      (** the escaped digits, read only where [bytes] holds {!escape};
          dⁿ words for d ≥ 255, empty otherwise *)
}

val outside : int
(** 255: the node is not in B\u{2217}. *)

val escape : int
(** 254: the digit is in [wide]. *)

val wide_length : Debruijn.Word.params -> int
(** dⁿ when d ≥ 255, else 0 — the length of [wide]. *)

val create : Debruijn.Word.params -> t
(** A fresh table with every node {!outside}. *)

val get : t -> int -> int
(** The digit β of a node, or −1 off B\u{2217}. *)

val set : t -> int -> int -> unit
(** [set t v beta] — store digit [beta] (0 ≤ β < d) for node [v]. *)

val set_outside : t -> int -> unit

val blit : t -> t -> unit
(** Copy one table into another of the same (d, n). *)

val successor : Debruijn.Word.params -> t -> int -> int
(** The ring successor wβ of node v = αw, or −1 outside B\u{2217}. *)

val fill_rotations : Debruijn.Word.params -> Graphlib.Flatarr.Byte.t -> t -> unit
(** [fill_rotations p in_bstar t] — every node αw of B\u{2217} gets its
    necklace successor's digit α, every other node {!outside}: one pass
    per leading digit α, no division. *)

val fill_successors : Debruijn.Word.params -> t -> Graphlib.Flatarr.t -> unit
(** Write every node's {!successor} into a dⁿ-word table. *)

val first_disagreement :
  Debruijn.Word.params -> Graphlib.Flatarr.Byte.t -> t -> int
(** [first_disagreement p in_bstar t] — the least node where the table
    disagrees with [in_bstar] (a node off B\u{2217} not {!outside}, a node
    of B\u{2217} that is, or a digit ≥ d), or −1 when it agrees
    everywhere.  One sequential pass. *)

val walk : Debruijn.Word.params -> t -> int -> int array -> int
(** [walk p t root cycle] — follow the successors from [root], writing
    each node into [cycle], until the walk is back at [root].  Returns
    the closed length, or −1 as soon as it reaches an {!outside} node
    or would overflow [cycle] (a walk that repeats a node other than
    the root never closes, so it runs into that bound).  Each step
    reads one byte; v's leading digit comes from the ring node n−1
    places back (v's first digit is that node's last), so no division
    sits on the chain of dependent loads.  The table must hold digits
    below d only ({!first_disagreement}). *)
