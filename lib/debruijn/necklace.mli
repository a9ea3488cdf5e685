(** Necklaces: the rotation-closed cycles N(x) that partition B(d,n).

    N(x) is the cycle (x, π(x), π²(x), …) obtained by rotating the
    digits of a node; it is written [y] where y is the minimal node on
    it (minimal as a base-d numeral — the thesis's representative).
    Necklaces have length dividing n and partition the node set; they
    are the unit of failure for the FFC algorithm (a necklace is faulty
    iff it contains a faulty node). *)

val canonical : Word.params -> int -> int
(** The representative: the minimal rotation of the node. *)

val nodes : Word.params -> int -> int list
(** The nodes of N(x) in traversal order starting from the
    representative: [y; π(y); …; π^{t−1}(y)] where t = period. *)

val nodes_from : Word.params -> int -> int list
(** Same cycle but starting from the given node itself. *)

val iter_nodes_from : Word.params -> int -> (int -> unit) -> unit
(** Allocation-free {!nodes_from} — the walk the implicit FFC pipeline
    uses to index necklaces without listing them. *)

val length : Word.params -> int -> int
(** Cardinality of N(x) = period of x. *)

val same : Word.params -> int -> int -> bool
(** Do two nodes lie on the same necklace? *)

val successor : Word.params -> int -> int
(** The necklace successor of x, i.e. π(x) — the thesis's "wα follows
    αw". *)

val all_representatives : Word.params -> int list
(** All necklace representatives in increasing order. *)

val count : Word.params -> int
(** Number of necklaces (cross-checked against Chapter 4's formula in
    the tests). *)

val mark_faulty_necklaces : Word.params -> int list -> bool array
(** [mark_faulty_necklaces p faults] flags every node lying on a
    necklace that contains a faulty node — the node set removed from
    B(d,n) to form B*. *)

val mark_faulty_necklaces_into : Word.params -> int list -> bool array -> unit
(** Allocation-free {!mark_faulty_necklaces} into a caller buffer of
    length dⁿ (cleared first) — same marked set. *)
