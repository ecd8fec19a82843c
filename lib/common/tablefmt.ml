type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render ?(aligns = []) (rows : string list list) : string =
  match rows with
  | [] -> ""
  | header :: _ ->
      let ncols = List.length header in
      let align i =
        match List.nth_opt aligns i with Some a -> a | None -> Left
      in
      let width i =
        List.fold_left
          (fun acc row ->
            match List.nth_opt row i with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          0 rows
      in
      let widths = List.init ncols width in
      let line ch =
        "+"
        ^ String.concat "+" (List.map (fun w -> String.make (w + 2) ch) widths)
        ^ "+"
      in
      let render_row row =
        let cells =
          List.mapi
            (fun i w ->
              let cell =
                match List.nth_opt row i with Some c -> c | None -> ""
              in
              " " ^ pad (align i) w cell ^ " ")
            widths
        in
        "|" ^ String.concat "|" cells ^ "|"
      in
      let body =
        match rows with
        | h :: rest ->
            (render_row h :: line '-' :: List.map render_row rest)
        | [] -> []
      in
      String.concat "\n" ((line '-' :: body) @ [ line '-' ])

let print ?aligns rows = print_endline (render ?aligns rows)

let fx ?(digits = 1) v = Fmt.str "%.*fx" digits v
let f ?(digits = 1) v = Fmt.str "%.*f" digits v
let mb bytes = Fmt.str "%.1f" (float_of_int bytes /. 1048576.0)
