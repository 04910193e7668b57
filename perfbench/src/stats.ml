(* Order statistics over float samples. *)

(* Nearest-rank quantile: the smallest sample with at least [p] of the
   samples at or below it. [p] in (0, 1]. *)
let quantile (xs : float list) p =
  match xs with
  | [] -> invalid_arg "Stats.quantile: no samples"
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> sum xs /. float_of_int (List.length xs)

(* [a / b], or 0 when there is nothing to divide by. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
