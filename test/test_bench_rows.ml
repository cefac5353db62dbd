(* The second half of the bench targets' row checks (see Bench_rows). *)

let () =
  Alcotest.run "bench-rows"
    [
      ( "cli",
        [
          Alcotest.test_case "bench targets write their rows, second half"
            `Slow (fun () -> Bench_rows.check Bench_rows.second_half);
        ] );
    ]
