let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let render ~header rows =
  let ncols = List.length header in
  let normalize row =
    let n = List.length row in
    if n >= ncols then row
    else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let render_row cells =
    let padded = List.mapi (fun i c -> pad (List.nth widths i) c) cells in
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

let render_titled ~title ~header rows =
  let body = render ~header rows in
  let width =
    String.split_on_char '\n' body
    |> List.fold_left (fun acc line -> max acc (String.length line)) 0
  in
  let rule = String.make (max width (String.length title)) '=' in
  Printf.sprintf "%s\n%s\n%s" title rule body

let cell_pct x =
  let v = 100. *. x in
  Printf.sprintf "%.1f%%" v
