type point1 = { x : float; fx : float }
type point2 = { x1 : float; x2 : float; f12 : float }

(* The first maximiser over [xs], scanned in order: a point replaces the
   running best only when strictly greater, and each point is evaluated
   once.  [f] is passed the value a point must beat to matter — the
   larger of [above] and the running maximum — so an objective keeping
   the floor contract of {!refine_grid_max2_floor} may cut short the
   points that cannot win. *)
let scan_max ~above ~f xs =
  let best = ref (xs.(0), f ~floor:above xs.(0)) in
  for k = 1 to Array.length xs - 1 do
    let x = xs.(k) in
    let fx = f ~floor:(Float.max above (snd !best)) x in
    if fx > snd !best then best := (x, fx)
  done;
  !best

(* The Cartesian product of one sample array per axis, first axis
   outermost. *)
let product grids =
  Array.fold_right
    (fun grid tails ->
      Array.concat
        (Array.to_list
           (Array.map (fun x -> Array.map (Array.append [| x |]) tails) grid)))
    grids [| [||] |]

(* The one refinement loop behind every [refine_*] entry point.  [box]
   holds one [(lo, hi)] bracket per axis.  The first level scans [points]
   samples per axis of the whole box; each further level narrows every
   axis to one grid step either side of the best point so far, scans
   that, and adopts the scan's first maximiser only if it beats the best
   of the earlier levels.  Once every axis has collapsed to a point a
   level could only rescan the best, so the loop stops there. *)
let refine ~levels ~points ~f box =
  let scan ~above box =
    scan_max ~above ~f
      (product (Array.map (fun (lo, hi) -> Grid.linspace lo hi points) box))
  in
  let rec loop box level ((x, fx) as best) =
    let narrowed =
      Array.mapi
        (fun k (lo, hi) ->
          let step = (hi -. lo) /. float_of_int (points - 1) in
          (Float.max lo (x.(k) -. step), Float.min hi (x.(k) +. step)))
        box
    in
    if level <= 1 || Array.for_all (fun (lo, hi) -> hi -. lo <= 0.) narrowed
    then best
    else
      let local = scan ~above:fx narrowed in
      loop narrowed (level - 1) (if snd local > fx then local else best)
  in
  loop box levels (scan ~above:neg_infinity box)

let refine_grid_max ?(levels = 3) ?(points = 33) ~f ~lo ~hi () =
  if points < 3 then invalid_arg "Optimize.refine_grid_max: points < 3";
  let x, fx =
    refine ~levels ~points ~f:(fun ~floor:_ x -> f x.(0)) [| (lo, hi) |]
  in
  { x = x.(0); fx }

let refine_grid_max2_floor ?(levels = 3) ?(points = 17) ~f ~lo1 ~hi1 ~lo2 ~hi2
    () =
  if points < 3 then invalid_arg "Optimize.refine_grid_max2: points < 3";
  let x, f12 =
    refine ~levels ~points
      ~f:(fun ~floor x -> f ~floor x.(0) x.(1))
      [| (lo1, hi1); (lo2, hi2) |]
  in
  { x1 = x.(0); x2 = x.(1); f12 }

let refine_grid_max2 ?levels ?points ~f =
  refine_grid_max2_floor ?levels ?points ~f:(fun ~floor:_ -> f)
