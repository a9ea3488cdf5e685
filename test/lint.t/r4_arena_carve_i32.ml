(* Fixture: trips R4 only — carving 32-bit cells from an arena outside
   the workspace constructor. *)
module Fa = Graphlib.Flatarr

let steal arena = Fa.Arena.carve_i32 arena 64
