type outcome = {
  root : float;
  value : float;
  iterations : int;
  converged : bool;
}

let default_tol = 1e-10
let default_max_iter = 200

exception No_bracket of string

let same_sign a b = (a > 0. && b > 0.) || (a < 0. && b < 0.)

let bisect ?(tol = default_tol) ?(max_iter = default_max_iter) ~f ~lo ~hi () =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Roots.bisect: non-finite bracket";
  let lo, hi = if lo <= hi then (lo, hi) else (hi, lo) in
  let flo = f lo and fhi = f hi in
  if Float.equal flo 0. then
    { root = lo; value = 0.; iterations = 0; converged = true }
  else if Float.equal fhi 0. then
    { root = hi; value = 0.; iterations = 0; converged = true }
  else if same_sign flo fhi then
    raise
      (No_bracket
         (Printf.sprintf "Roots.bisect: f(%g)=%g and f(%g)=%g have same sign"
            lo flo hi fhi))
  else
    let rec loop lo flo hi n =
      let mid = 0.5 *. (lo +. hi) in
      let fmid = f mid in
      if Float.equal fmid 0. || hi -. lo <= tol then
        { root = mid; value = fmid; iterations = n; converged = true }
      else if n >= max_iter then
        { root = mid; value = fmid; iterations = n; converged = false }
      else if same_sign flo fmid then loop mid fmid hi (n + 1)
      else loop lo flo mid (n + 1)
    in
    loop lo flo hi 0

let brent ?(tol = default_tol) ?(max_iter = default_max_iter) ?f_lo ?f_hi ~f
    ~lo ~hi () =
  let a = ref lo and b = ref hi in
  let known v x = match v with Some fx -> fx | None -> f x in
  let fa = ref (known f_lo lo) in
  let fb = ref (known f_hi hi) in
  if Float.equal !fa 0. then
    { root = !a; value = 0.; iterations = 0; converged = true }
  else if Float.equal !fb 0. then
    { root = !b; value = 0.; iterations = 0; converged = true }
  else if same_sign !fa !fb then
    raise
      (No_bracket
         (Printf.sprintf "Roots.brent: f(%g)=%g and f(%g)=%g have same sign"
            !a !fa !b !fb))
  else begin
    (* Ensure |f(b)| <= |f(a)|: b is the best guess. *)
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in
      a := !b;
      b := t;
      let t = !fa in
      fa := !fb;
      fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) and e = ref (!b -. !a) in
    let result = ref None in
    let n = ref 0 in
    while Option.is_none !result && !n < max_iter do
      incr n;
      if same_sign !fb !fc then begin
        c := !a;
        fc := !fa;
        d := !b -. !a;
        e := !d
      end;
      if Float.abs !fc < Float.abs !fb then begin
        a := !b;
        b := !c;
        c := !a;
        fa := !fb;
        fb := !fc;
        fc := !fa
      end;
      let tol1 = (2. *. epsilon_float *. Float.abs !b) +. (0.5 *. tol) in
      let xm = 0.5 *. (!c -. !b) in
      if Float.abs xm <= tol1 || Float.equal !fb 0. then
        result := Some { root = !b; value = !fb; iterations = !n; converged = true }
      else begin
        if Float.abs !e >= tol1 && Float.abs !fa > Float.abs !fb then begin
          (* Attempt inverse quadratic interpolation / secant. *)
          let s = !fb /. !fa in
          let p, q =
            if Float.equal !a !c then
              let p = 2. *. xm *. s in
              let q = 1. -. s in
              (p, q)
            else
              let q = !fa /. !fc in
              let r = !fb /. !fc in
              let p =
                s *. ((2. *. xm *. q *. (q -. r)) -. ((!b -. !a) *. (r -. 1.)))
              in
              let q = (q -. 1.) *. (r -. 1.) *. (s -. 1.) in
              (p, q)
          in
          let p, q = if p > 0. then (p, -.q) else (-.p, q) in
          let min1 = (3. *. xm *. q) -. Float.abs (tol1 *. q) in
          let min2 = Float.abs (!e *. q) in
          if 2. *. p < Float.min min1 min2 then begin
            e := !d;
            d := p /. q
          end
          else begin
            d := xm;
            e := !d
          end
        end
        else begin
          d := xm;
          e := !d
        end;
        a := !b;
        fa := !fb;
        if Float.abs !d > tol1 then b := !b +. !d
        else b := !b +. Float.copy_sign tol1 xm;
        fb := f !b
      end
    done;
    match !result with
    | Some r -> r
    | None -> { root = !b; value = !fb; iterations = !n; converged = false }
  end

let find_monotone_level ?(tol = default_tol) ?(max_iter = default_max_iter) ~f
    ~level ~lo ~hi () =
  let g x = f x -. level in
  let glo = g lo and ghi = g hi in
  if glo >= 0. then { root = lo; value = glo; iterations = 0; converged = true }
  else if ghi <= 0. then
    { root = hi; value = ghi; iterations = 0; converged = true }
  else bisect ~tol ~max_iter ~f:g ~lo ~hi ()
