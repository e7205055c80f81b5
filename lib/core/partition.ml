(* One byte per CP, 'P' for premium and 'O' for ordinary: the vector is
   its own {!key}, so a memo lookup builds nothing.
   Invariant: never mutated once returned; every constructor and [move]
   write a fresh vector. *)
type t = Bytes.t

let premium_byte = 'P'

let ordinary_byte = 'O'

let all_ordinary n =
  if n < 0 then invalid_arg "Partition.all_ordinary: negative size";
  Bytes.make n ordinary_byte

let of_premium_indicator a =
  Bytes.init (Array.length a) (fun i ->
      if a.(i) then premium_byte else ordinary_byte)

let of_premium_pred cps pred =
  Bytes.init (Array.length cps) (fun i ->
      if pred cps.(i) then premium_byte else ordinary_byte)

let size = Bytes.length
let in_premium t i = Char.equal (Bytes.get t i) premium_byte

let premium_count t =
  let k = ref 0 in
  for i = 0 to size t - 1 do
    if in_premium t i then incr k
  done;
  !k

let ordinary_count t = size t - premium_count t

let check_size t cps =
  if Array.length cps <> size t then
    invalid_arg "Partition: CP array size mismatch"

(* The positions [i] with [in_premium t i = premium], ascending. *)
let filter_indices t premium =
  let count = if premium then premium_count t else ordinary_count t in
  let out = Array.make count 0 in
  let k = ref 0 in
  for i = 0 to size t - 1 do
    if Bool.equal (in_premium t i) premium then begin
      out.(!k) <- i;
      incr k
    end
  done;
  out

let premium_indices t = filter_indices t true
let ordinary_indices t = filter_indices t false

let premium_members t cps =
  check_size t cps;
  Array.map (Array.get cps) (premium_indices t)

let ordinary_members t cps =
  check_size t cps;
  Array.map (Array.get cps) (ordinary_indices t)

let move t i ~premium =
  if i < 0 || i >= size t then invalid_arg "Partition.move: index out of bounds";
  let t' = Bytes.copy t in
  Bytes.set t' i (if premium then premium_byte else ordinary_byte);
  t'

let equal = Bytes.equal

(* Safe: [t] is never mutated after construction. *)
let key = Bytes.unsafe_to_string

let pp fmt t =
  Format.fprintf fmt "@[<h>{premium: %d/%d}@]" (premium_count t) (size t)
