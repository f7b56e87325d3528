let mega = 1e6
let kilo = 1e3
let micro = 1e-6
let pico = 1e-12
let um = micro
let um2 = micro *. micro
let pf = pico
let q_electron = 1.602176634e-19
let k_boltzmann = 1.380649e-23
let eps_0 = 8.8541878128e-12
let eps_ox = 3.9 *. eps_0

let thermal_voltage ?(temp_k = 300.15) () =
  k_boltzmann *. temp_k /. q_electron

(* SPICE magnitude suffixes, matched case-insensitively with the
   multi-letter ones ("meg", "mil") tried before the single letters: as
   in SPICE, "m" and "M" are both milli and mega is "meg". *)
let suffix_multiplier suffix =
  let lc = String.lowercase_ascii suffix in
  let starts p =
    String.length lc >= String.length p && String.sub lc 0 (String.length p) = p
  in
  if starts "meg" then Some 1e6
  else if starts "mil" then Some 25.4e-6
  else
    match lc.[0] with
    | 't' -> Some 1e12
    | 'g' -> Some 1e9
    | 'k' -> Some 1e3
    | 'm' -> Some 1e-3
    | 'u' -> Some 1e-6
    | 'n' -> Some 1e-9
    | 'p' -> Some 1e-12
    | 'f' -> Some 1e-15
    | 'a' -> Some 1e-18
    | _ -> None

let parse_number s =
  let is_digit c = c >= '0' && c <= '9' in
  let n = String.length s in
  if n = 0 then None
  else begin
    (* Split the numeric prefix from an alphabetic suffix. *)
    let i = ref 0 in
    let seen_digit = ref false in
    if !i < n && (s.[!i] = '+' || s.[!i] = '-') then incr i;
    while
      !i < n
      && (is_digit s.[!i] || s.[!i] = '.'
         || ((s.[!i] = 'e' || s.[!i] = 'E')
            && !seen_digit
            && !i + 1 < n
            && (is_digit s.[!i + 1] || s.[!i + 1] = '+' || s.[!i + 1] = '-')))
    do
      if is_digit s.[!i] then seen_digit := true;
      if s.[!i] = 'e' || s.[!i] = 'E' then begin
        incr i;
        if s.[!i] = '+' || s.[!i] = '-' then incr i
      end
      else incr i
    done;
    if not !seen_digit then None
    else begin
      let mantissa = String.sub s 0 !i in
      let suffix = String.sub s !i (n - !i) in
      match float_of_string_opt mantissa with
      | None -> None
      | Some v ->
        if suffix = "" then Some v
        else
          (* SPICE ignores trailing unit letters after the magnitude
             suffix (e.g. "10pF", "4.7kOhm"). *)
          Option.map (fun mult -> v *. mult) (suffix_multiplier suffix)
    end
  end

(* Prefix ladder indexed from 1e-18; engineering notation walks it in
   steps of three decades. *)
let prefixes = [| "a"; "f"; "p"; "n"; "u"; "m"; ""; "k"; "M"; "G"; "T" |]

let to_eng ?(digits = 3) x =
  if x = 0. then "0"
  else if Float.is_nan x then "nan"
  else if Float.abs x = infinity then if x > 0. then "inf" else "-inf"
  else
    let sign = if x < 0. then "-" else "" in
    let ax = Float.abs x in
    let exp3 = int_of_float (Float.floor (Float.log10 ax /. 3.)) in
    let exp3 = max (-6) (min 4 exp3) in
    let mant = ax /. (10. ** float_of_int (3 * exp3)) in
    (* Significant digits: mantissa is in [1, 1000). *)
    let int_digits =
      if mant >= 100. then 3 else if mant >= 10. then 2 else 1
    in
    let frac = max 0 (digits - int_digits) in
    let s = Printf.sprintf "%.*f" frac mant in
    (* Strip trailing zeros and a dangling dot. *)
    let s =
      if String.contains s '.' then begin
        let n = ref (String.length s) in
        while !n > 1 && s.[!n - 1] = '0' do decr n done;
        if !n > 1 && s.[!n - 1] = '.' then decr n;
        String.sub s 0 !n
      end
      else s
    in
    sign ^ s ^ prefixes.(exp3 + 6)

let to_eng_unit ?digits unit x = to_eng ?digits x ^ unit
let pp fmt x = Format.pp_print_string fmt (to_eng x)

let to_exact x =
  if Float.is_nan x then "nan"
  else if x = Float.infinity then "inf"
  else if x = Float.neg_infinity then "-inf"
  else
    (* Shortest of %.15g/%.16g/%.17g that parses back bit-identically;
       17 significant digits always round-trip an IEEE double. *)
    let try_prec p =
      let s = Printf.sprintf "%.*g" p x in
      if float_of_string s = x then Some s else None
    in
    match try_prec 15 with
    | Some s -> s
    | None -> (
      match try_prec 16 with
      | Some s -> s
      | None -> Printf.sprintf "%.17g" x)
