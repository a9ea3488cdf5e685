(* Fixture: trips R4 only — carving an arena outside the workspace
   constructor. *)
let steal arena = Flatarr.Arena.carve arena 64
