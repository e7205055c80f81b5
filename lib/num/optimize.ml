type point1 = { x : float; fx : float }
type point2 = { x1 : float; x2 : float; f12 : float }

let golden = (sqrt 5. -. 1.) /. 2.

let golden_section_max ?(tol = 1e-9) ?(max_iter = 200) ~f ~lo ~hi () =
  let rec loop a b c fc d fd n =
    (* Invariant: a < c < d < b with c, d at golden ratios. *)
    if b -. a <= tol || n >= max_iter then
      if fc >= fd then { x = c; fx = fc } else { x = d; fx = fd }
    else if fc >= fd then
      let b = d in
      let d = c and fd = fc in
      let c = b -. (golden *. (b -. a)) in
      loop a b c (f c) d fd (n + 1)
    else
      let a = c in
      let c = d and fc = fd in
      let d = a +. (golden *. (b -. a)) in
      loop a b c fc d (f d) (n + 1)
  in
  let c = hi -. (golden *. (hi -. lo)) in
  let d = lo +. (golden *. (hi -. lo)) in
  loop lo hi c (f c) d (f d) 0

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

let grid_max ~f ~grid () =
  if Array.length grid = 0 then invalid_arg "Optimize.grid_max: empty grid";
  let x, fx = scan_max ~above:neg_infinity ~f:(fun ~floor:_ x -> f x) grid in
  { x; fx }

let grid_max2 ~f ~grid1 ~grid2 () =
  if Array.length grid1 = 0 || Array.length grid2 = 0 then
    invalid_arg "Optimize.grid_max2: empty grid";
  let x, f12 =
    scan_max ~above:neg_infinity
      ~f:(fun ~floor:_ x -> f x.(0) x.(1))
      (product [| grid1; grid2 |])
  in
  { x1 = x.(0); x2 = x.(1); f12 }

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

(* Standard Nelder-Mead with reflection 1, expansion 2, contraction 0.5,
   shrink 0.5. *)
let nelder_mead ?(tol = 1e-9) ?(max_iter = 2000) ~f ~init ?(step = 0.1) () =
  let n = Array.length init in
  if n = 0 then invalid_arg "Optimize.nelder_mead: empty init";
  let simplex =
    Array.init (n + 1) (fun i ->
        let v = Array.copy init in
        if i > 0 then v.(i - 1) <- v.(i - 1) +. step;
        v)
  in
  let values = Array.map f simplex in
  let order () =
    let idx = Array.init (n + 1) (fun i -> i) in
    Array.sort (fun a b -> Float.compare values.(a) values.(b)) idx;
    idx
  in
  let centroid exclude =
    let c = Array.make n 0. in
    Array.iteri
      (fun i v ->
        if i <> exclude then
          Array.iteri (fun j vj -> c.(j) <- c.(j) +. vj) v)
      simplex;
    Array.map (fun cj -> cj /. float_of_int n) c
  in
  let affine c x t = Array.mapi (fun j cj -> cj +. (t *. (x.(j) -. cj))) c in
  let iter = ref 0 in
  let spread () =
    let idx = order () in
    Float.abs (values.(idx.(n)) -. values.(idx.(0)))
  in
  while !iter < max_iter && spread () > tol do
    incr iter;
    let idx = order () in
    let best = idx.(0) and worst = idx.(n) and second_worst = idx.(n - 1) in
    let c = centroid worst in
    let xr = affine c simplex.(worst) (-1.) in
    let fr = f xr in
    if fr < values.(best) then begin
      let xe = affine c simplex.(worst) (-2.) in
      let fe = f xe in
      if fe < fr then begin
        simplex.(worst) <- xe;
        values.(worst) <- fe
      end
      else begin
        simplex.(worst) <- xr;
        values.(worst) <- fr
      end
    end
    else if fr < values.(second_worst) then begin
      simplex.(worst) <- xr;
      values.(worst) <- fr
    end
    else begin
      let xc = affine c simplex.(worst) 0.5 in
      let fc = f xc in
      if fc < values.(worst) then begin
        simplex.(worst) <- xc;
        values.(worst) <- fc
      end
      else
        (* Shrink towards the best vertex. *)
        Array.iteri
          (fun i v ->
            if i <> best then begin
              let v' =
                Array.mapi
                  (fun j vj -> simplex.(best).(j) +. (0.5 *. (vj -. simplex.(best).(j))))
                  v
              in
              simplex.(i) <- v';
              values.(i) <- f v'
            end)
          simplex
    end
  done;
  let idx = order () in
  (Array.copy simplex.(idx.(0)), values.(idx.(0)))

let maximize_nelder_mead ?tol ?max_iter ~f ~init ?step () =
  let x, v = nelder_mead ?tol ?max_iter ~f:(fun x -> -.f x) ~init ?step () in
  (x, -.v)
