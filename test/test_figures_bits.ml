(* Every cell of the paper's Figs. 2-4 at full precision.  The committed
   CSVs (and perfbench's golden check) hold six significant digits; this
   pins each cell's float bits, through the same [Perfbench.Figures.cell]
   the benchmark times, together with each EDF cell's fixed-point
   iteration count and their sum over the grid.  An exact optimization
   of the bound pipeline must leave figures_bits.expected as it is.

   figures_bits.expected holds one line per cell, "<csv> <row> <column>
   <value as %h> <iterations>", in the benchmark's pass order, then
   "iterations <sum>". *)

let expected_file = "figures_bits.expected"

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

let computed () =
  let total = ref 0 in
  let cells =
    List.concat_map
      (fun (f : Perfbench.Figures.fig) ->
        List.concat
          (List.mapi
             (fun r (_, _, sc) ->
               List.mapi
                 (fun c col ->
                   let v, it = Perfbench.Figures.cell sc col in
                   total := !total + it;
                   Printf.sprintf "%s %d %d %h %d" f.Perfbench.Figures.csv r c v it)
                 f.Perfbench.Figures.columns)
             f.Perfbench.Figures.rows))
      (Perfbench.Figures.figs ())
  in
  cells @ [ Printf.sprintf "iterations %d" !total ]

let test_bits () =
  let expected = read_lines expected_file and got = computed () in
  Alcotest.(check int) "lines" (List.length expected) (List.length got);
  let diffs =
    List.filter_map
      (fun (e, g) -> if String.equal e g then None else Some (Printf.sprintf "want %s\n got %s" e g))
      (List.combine expected got)
  in
  match diffs with
  | [] -> ()
  | _ ->
    Alcotest.failf "%d of %d lines differ; the first:\n%s" (List.length diffs)
      (List.length expected)
      (String.concat "\n" (List.filteri (fun i _ -> i < 5) diffs))

let suite = [ Alcotest.test_case "every figure cell, bit for bit" `Quick test_bits ]
