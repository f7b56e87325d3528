type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?align ~header rows =
  let ncols = List.length header in
  let normalize row =
    let n = List.length row in
    if n >= ncols then row
    else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let aligns =
    match align with
    | Some a when List.length a = ncols -> a
    | Some _ -> invalid_arg "Table.render: align length mismatch"
    | None -> List.init ncols (fun _ -> Left)
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let render_row cells =
    let padded =
      List.mapi
        (fun i c -> pad (List.nth aligns i) (List.nth widths i) c)
        cells
    in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let rule =
    "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let render_titled ?align ~title ~header rows =
  let body = render ?align ~header rows in
  let width =
    String.split_on_char '\n' body
    |> List.fold_left (fun acc line -> max acc (String.length line)) 0
  in
  let rule = String.make (max width (String.length title)) '=' in
  Printf.sprintf "%s\n%s\n%s" title rule body

let cell_fixed ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let cell_pct x =
  let v = 100. *. x in
  Printf.sprintf "%.1f%%" v
