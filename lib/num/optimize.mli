(** Derivative-free optimisation.

    The ISP strategy space is the compact square [(kappa, c) in [0,1]^2]
    and the objectives (market share, revenue, consumer surplus) are
    piecewise-continuous with jumps at CP re-equilibration points, so the
    tool is exhaustive grid search with local refinement. *)

type point1 = { x : float; fx : float }
type point2 = { x1 : float; x2 : float; f12 : float }

val refine_grid_max :
  ?levels:int -> ?points:int -> f:(float -> float) -> lo:float -> hi:float ->
  unit -> point1
(** Multilevel grid refinement: scan [points] samples of [[lo, hi]], then
    rescan the bracket one sample either side of the best: [levels] scans
    in all (at least one; fewer once the bracket collapses to a point).  Robust to jump
    discontinuities; resolution improves geometrically.  A later level
    replaces the best only with a strictly greater value, so the first
    maximiser wins ties.  [f] is called [levels * points] times at
    most. *)

val refine_grid_max2_floor :
  ?levels:int -> ?points:int -> f:(floor:float -> float -> float -> float) ->
  lo1:float -> hi1:float -> lo2:float -> hi2:float -> unit -> point2
(** Two-dimensional multilevel grid refinement over a rectangle, for an
    objective that can stop early on points that cannot win.

    {b Floor contract.}  Each call [f ~floor x1 x2] is passed the value
    the point must beat to change the answer: the larger of the best
    value of the earlier levels and the running best of the current
    scan ([neg_infinity] for the very first point).  [f] must return the
    exact objective value whenever that value is [> floor]; otherwise it
    may return {e any} value [<= floor].  Because the best is replaced
    only by strictly greater values, such an [f] yields the same point
    and value, bit for bit, as the exact objective: same maximiser, same
    tie-break.  [f] is called [levels * points * points] times at
    most. *)

val refine_grid_max2 :
  ?levels:int -> ?points:int -> f:(float -> float -> float) ->
  lo1:float -> hi1:float -> lo2:float -> hi2:float -> unit -> point2
(** {!refine_grid_max2_floor} with an exact objective that ignores the
    floor. *)
