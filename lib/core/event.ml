type 'a t =
  | Change of 'a
  | No_change of 'a

let is_change = function Change _ -> true | No_change _ -> false

let body = function Change v | No_change v -> v

let map f = function Change v -> Change (f v) | No_change v -> No_change (f v)

let pp pp_v ppf = function
  | Change v -> Format.fprintf ppf "Change %a" pp_v v
  | No_change v -> Format.fprintf ppf "NoChange %a" pp_v v

let equal eq a b =
  match a, b with
  | Change x, Change y | No_change x, No_change y -> eq x y
  | Change _, No_change _ | No_change _, Change _ -> false

type 'a stamped = {
  epoch : int;
  event : 'a t;
}
