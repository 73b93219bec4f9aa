let widths header rows =
  List.mapi
    (fun i h ->
      List.fold_left
        (fun w row -> max w (String.length (List.nth row i)))
        (String.length h) rows)
    header

let pad w s = s ^ String.make (max 0 (w - String.length s)) ' '

let table ~header rows =
  let ws = widths header rows in
  let line cells = String.concat "  " (List.map2 pad ws cells) in
  print_endline (line header);
  print_endline (String.concat "  " (List.map (fun w -> String.make w '-') ws));
  List.iter (fun row -> print_endline (line row)) rows

let section title =
  print_newline ();
  print_endline title;
  print_endline (String.make (String.length title) '=')

let f2 x = Printf.sprintf "%.2f" x

let f0 x = Printf.sprintf "%.0f" x

let i n = string_of_int n
