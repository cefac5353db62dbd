open Quill_common

(* ------------------------- Rng ------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 1000 do
    Tutil.check_int "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Tutil.check_bool "in range" true (v >= 0 && v < 17);
    let w = Rng.int_incl r (-5) 5 in
    Tutil.check_bool "incl range" true (w >= -5 && w <= 5);
    let f = Rng.float r 2.0 in
    Tutil.check_bool "float range" true (f >= 0.0 && f < 2.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  (* The split stream must not mirror the parent. *)
  let equal = ref 0 in
  for _ = 1 to 100 do
    if Rng.next a = Rng.next b then incr equal
  done;
  Tutil.check_bool "split diverges" true (!equal < 5)

let test_rng_uniformity () =
  let r = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      Tutil.check_bool "bucket within 10% of uniform" true
        (abs (c - (n / 10)) < n / 100))
    buckets

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_rng_chance () =
  let r = Rng.create 12 in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Rng.chance r 0.25 then incr hits
  done;
  Tutil.check_bool "chance ~ 25%" true (abs (!hits - 25_000) < 1_000)

(* The generator's first outputs per seed are pinned: every workload,
   schedule and checksum is drawn from them.  Then 10k draws of each
   kind allocate nothing but, for [float], the box of the returned
   float: a dev build compiles with [-opaque], which keeps [Rng.float]
   from being inlined into its caller (with inlining it is 0 too). *)
let test_rng_pinned_no_alloc () =
  List.iter
    (fun (seed, next, int, float, bool, chance) ->
      let r = Rng.create seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Tutil.check_int (name "next") next (Rng.next r);
      Tutil.check_int (name "int") int (Rng.int r 1_000_000);
      Tutil.check_bool (name "float") true (Rng.float r 1.0 = float);
      Tutil.check_bool (name "bool") bool (Rng.bool r);
      Tutil.check_bool (name "chance") chance (Rng.chance r 0.5))
    [
      (0, 4073552104164651883, 588925, 0x1.b1174620025p-6, false, true);
      (1, 3457603482011350492, 166673, 0x1.c0cd7f0f6bcf6p-2, false, true);
      (7, 2418118848055258963, 282181, 0x1.e1ca420e19806p-1, true, false);
      (42, 2749113066540076570, 47797, 0x1.54c85f31d00d8p-3, false, false);
    ];
  let r = Rng.create 42 and acc = ref 0 in
  let draws = 10_000 in
  let words =
    Tutil.minor_words_during (fun () ->
        for _ = 1 to draws do
          acc := !acc + Rng.int r 1000 + Rng.int_incl r (-5) 5;
          if Rng.bool r then incr acc;
          if Rng.chance r 0.25 then incr acc
        done)
  in
  Tutil.check_bool "int, int_incl, bool, chance allocate nothing" true
    (words = 0.);
  let words =
    Tutil.minor_words_during (fun () ->
        for _ = 1 to draws do
          if Rng.float r 1.0 < 0.5 then incr acc
        done)
  in
  Tutil.check_bool "float allocates at most its result's box" true
    (words <= float_of_int (2 * draws));
  ignore (Sys.opaque_identity !acc)

(* ------------------------- Zipf ------------------------- *)

let test_zipf_bounds () =
  let z = Zipf.create ~theta:0.99 1000 in
  let r = Rng.create 4 in
  for _ = 1 to 10_000 do
    let k = Zipf.sample z r in
    Tutil.check_bool "in range" true (k >= 0 && k < 1000);
    let s = Zipf.sample_scrambled z r in
    Tutil.check_bool "scrambled in range" true (s >= 0 && s < 1000)
  done

let test_zipf_uniform_case () =
  let z = Zipf.create ~theta:0.0 100 in
  let r = Rng.create 8 in
  let counts = Array.make 100 0 in
  for _ = 1 to 100_000 do
    let k = Zipf.sample z r in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c -> Tutil.check_bool "roughly uniform" true (abs (c - 1000) < 250))
    counts

let test_zipf_skew () =
  let z = Zipf.create ~theta:0.99 10_000 in
  let r = Rng.create 21 in
  let hot = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Zipf.sample z r < 100 then incr hot
  done;
  (* Under theta=0.99 the hottest 1% of keys draw a large share. *)
  Tutil.check_bool
    (Printf.sprintf "hot keys dominate (%d/%d)" !hot n)
    true
    (float_of_int !hot /. float_of_int n > 0.35)

let test_zipf_theta_ordering () =
  let hot_share theta =
    let z = Zipf.create ~theta 10_000 in
    let r = Rng.create 2 in
    let hot = ref 0 in
    for _ = 1 to 20_000 do
      if Zipf.sample z r < 100 then incr hot
    done;
    !hot
  in
  let h0 = hot_share 0.0 and h6 = hot_share 0.6 and h9 = hot_share 0.9 in
  Tutil.check_bool "skew grows with theta" true (h0 < h6 && h6 < h9)

let prop_zipf_uniform_when_theta0 =
  QCheck.Test.make ~name:"zipf theta=0 is uniform" ~count:10
    QCheck.(pair (int_range 10 500) (int_range 0 1000))
    (fun (n, seed) ->
      let z = Zipf.create ~theta:0.0 n in
      let r = Rng.create seed in
      let draws = 200 * n in
      let c0 = ref 0 in
      for _ = 1 to draws do
        if Zipf.sample z r = 0 then incr c0
      done;
      (* key 0 (the hottest rank under skew) draws ~ draws/n; under
         theta=0 it must stay near the uniform share *)
      let expected = draws / n in
      !c0 > expected / 3 && !c0 < expected * 3)

let prop_zipf_rank_monotone =
  QCheck.Test.make ~name:"zipf theta>0: frequency decreases with rank"
    ~count:10
    QCheck.(pair (int_range 20 99) (int_range 0 1000))
    (fun (theta_pct, seed) ->
      let n = 1000 in
      let z = Zipf.create ~theta:(float_of_int theta_pct /. 100.0) n in
      let r = Rng.create seed in
      let top = ref 0 and bottom = ref 0 in
      for _ = 1 to 20_000 do
        let k = Zipf.sample z r in
        if k < n / 10 then incr top
        else if k >= n - (n / 10) then incr bottom
      done;
      !top > !bottom)

let prop_zipf_scrambled_bounds =
  QCheck.Test.make ~name:"zipf scrambled sample stays in [0, n)" ~count:20
    QCheck.(
      triple (int_range 1 10_000) (int_range 0 99) (int_range 0 1000))
    (fun (n, theta_pct, seed) ->
      let z = Zipf.create ~theta:(float_of_int theta_pct /. 100.0) n in
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 1000 do
        let s = Zipf.sample_scrambled z r in
        if s < 0 || s >= n then ok := false
      done;
      !ok)

(* ------------------------- Vec ------------------------- *)

let test_vec_basic () =
  let v = Vec.create () in
  Tutil.check_bool "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Tutil.check_int "length" 100 (Vec.length v);
  Tutil.check_int "get" 42 (Vec.get v 42);
  Vec.set v 42 1000;
  Tutil.check_int "set" 1000 (Vec.get v 42);
  Tutil.check_int "pop" 99 (match Vec.pop v with Some x -> x | None -> -1);
  Tutil.check_int "length after pop" 99 (Vec.length v);
  Vec.clear v;
  Tutil.check_int "cleared" 0 (Vec.length v);
  Tutil.check_bool "pop empty" true (Vec.pop v = None)

let test_vec_oob () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set") (fun () ->
      Vec.set v (-1) 0)

let test_vec_sort_fold () =
  let v = Vec.of_array [| 5; 1; 4; 2; 3 |] in
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (Vec.to_list v);
  Tutil.check_int "fold" 15 (Vec.fold ( + ) 0 v);
  Tutil.check_bool "exists" true (Vec.exists (fun x -> x = 4) v);
  Tutil.check_bool "not exists" false (Vec.exists (fun x -> x = 9) v)

let prop_vec_model =
  QCheck.Test.make ~name:"vec behaves like list" ~count:200
    QCheck.(list (int_bound 1000))
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && List.for_all2 ( = ) (Vec.to_list v) xs)

(* ------------------------- Bitset ------------------------- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 99;
  Tutil.check_int "cardinal" 4 (Bitset.cardinal b);
  Tutil.check_bool "mem" true (Bitset.mem b 64);
  Bitset.remove b 64;
  Tutil.check_bool "removed" false (Bitset.mem b 64);
  Tutil.check_int "cardinal after remove" 3 (Bitset.cardinal b);
  Alcotest.(check (list int)) "to_list" [ 0; 63; 99 ] (Bitset.to_list b);
  Bitset.clear b;
  Tutil.check_int "cleared" 0 (Bitset.cardinal b)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset behaves like int set" ~count:200
    QCheck.(list (int_bound 199))
    (fun xs ->
      let b = Bitset.create 200 in
      List.iter (Bitset.add b) xs;
      let module S = Set.Make (Int) in
      let s = S.of_list xs in
      Bitset.cardinal b = S.cardinal s
      && Bitset.to_list b = S.elements s)

(* ------------------------- Stats ------------------------- *)

let test_acc () =
  let a = Stats.Acc.create () in
  List.iter (Stats.Acc.add a) [ 2.0; 4.0; 6.0; 8.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Acc.mean a);
  Alcotest.(check (float 1e-9))
    "variance" (20.0 /. 3.0) (Stats.Acc.variance a);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Acc.min a);
  Alcotest.(check (float 1e-9)) "max" 8.0 (Stats.Acc.max a);
  Tutil.check_int "count" 4 (Stats.Acc.count a);
  Alcotest.(check (float 1e-9)) "total" 20.0 (Stats.Acc.total a)

let test_hist_exact_small () =
  let h = Stats.Hist.create () in
  for v = 0 to 15 do
    Stats.Hist.add h v
  done;
  (* values < 16 are exact buckets *)
  Tutil.check_int "p50 small" 7 (Stats.Hist.percentile h 50.0);
  Tutil.check_int "p100 small" 15 (Stats.Hist.percentile h 100.0)

let test_hist_percentile_bounds () =
  let h = Stats.Hist.create () in
  let values = [ 100; 1_000; 10_000; 100_000; 1_000_000 ] in
  List.iter (Stats.Hist.add h) values;
  List.iteri
    (fun i v ->
      let p = float_of_int (i + 1) /. 5.0 *. 100.0 in
      let est = Stats.Hist.percentile h p in
      (* log-bucket estimate: within 1/16 relative error, never below *)
      Tutil.check_bool
        (Printf.sprintf "p%.0f >= value" p)
        true (est >= v);
      Tutil.check_bool
        (Printf.sprintf "p%.0f within bucket" p)
        true
        (float_of_int est <= float_of_int v *. 1.08))
    values;
  Tutil.check_int "max" 1_000_000 (Stats.Hist.max_value h);
  Tutil.check_int "count" 5 (Stats.Hist.count h)

let test_hist_zero_and_negative () =
  let h = Stats.Hist.create () in
  Stats.Hist.add h 0;
  Tutil.check_int "zero counted" 1 (Stats.Hist.count h);
  Tutil.check_int "p100 of {0}" 0 (Stats.Hist.percentile h 100.0);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Stats.Hist.add: negative value") (fun () ->
      Stats.Hist.add h (-1));
  (* the rejected value must not have perturbed the histogram *)
  Tutil.check_int "count unchanged" 1 (Stats.Hist.count h)

let test_hist_merge () =
  let a = Stats.Hist.create () and b = Stats.Hist.create () in
  Stats.Hist.add a 10;
  Stats.Hist.add b 1_000;
  Stats.Hist.merge_into ~dst:a b;
  Tutil.check_int "merged count" 2 (Stats.Hist.count a);
  Tutil.check_int "merged max" 1_000 (Stats.Hist.max_value a)

let prop_hist_percentile_ge_median =
  QCheck.Test.make ~name:"hist p50 upper-bounds true median" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (int_bound 1_000_000))
    (fun xs ->
      let h = Stats.Hist.create () in
      List.iter (Stats.Hist.add h) xs;
      let sorted = List.sort compare xs in
      let median = List.nth sorted ((List.length xs - 1) / 2) in
      Stats.Hist.percentile h 50.0 >= median)

(* ------------------------- Tablefmt ------------------------- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_tablefmt () =
  let s =
    Tablefmt.render ~header:[ "name"; "value" ]
      [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  Tutil.check_bool "contains header" true (contains s "name");
  Tutil.check_bool "contains cell" true (contains s "yy");
  (* numbers right-aligned by default: "  22 " not "22   " *)
  Tutil.check_bool "right aligned" true (contains s "    22 ");
  Tutil.check_bool "si formatting" true (Tablefmt.fmt_si 1_230_000.0 = "1.23M");
  Tutil.check_bool "si small" true (Tablefmt.fmt_si 12.0 = "12.00");
  Tutil.check_bool "float fmt" true (Tablefmt.fmt_float ~decimals:1 1.25 = "1.2")

let prop_hist_percentile_monotone =
  QCheck.Test.make ~name:"hist percentile monotone in p" ~count:50
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (int_range 0 1_000_000))
        (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (values, (p1, p2)) ->
      let h = Stats.Hist.create () in
      List.iter (Stats.Hist.add h) values;
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.Hist.percentile h lo <= Stats.Hist.percentile h hi)

let prop_hist_p100_is_max =
  QCheck.Test.make ~name:"hist p100 = max recorded value" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 1_000_000))
    (fun values ->
      let h = Stats.Hist.create () in
      List.iter (Stats.Hist.add h) values;
      Stats.Hist.percentile h 100.0 = Stats.Hist.max_value h
      && Stats.Hist.max_value h = List.fold_left max 0 values)

let prop_hist_bucket_edge_bounds_value =
  QCheck.Test.make ~name:"hist upper_edge (index_of v) >= v" ~count:200
    QCheck.(int_range 0 1_000_000_000)
    (fun v -> Stats.Hist.upper_edge (Stats.Hist.index_of v) >= v)

(* [Djb2.fold] is the byte-at-a-time djb2 loop on any sub-range, and
   folding two adjacent pieces is folding their concatenation. *)
let prop_djb2_reference =
  QCheck.Test.make ~name:"djb2 fold = byte loop, composes" ~count:300
    QCheck.(triple string small_nat small_nat)
    (fun (s, a, b) ->
      let b' = Bytes.of_string s and n = String.length s in
      let off = min a n in
      let len = min b (n - off) in
      let reference h =
        let h = ref h in
        for i = off to off + len - 1 do
          h := ((!h lsl 5) + !h + Char.code s.[i]) land 0xffff_ffff
        done;
        !h
      in
      let cut = off + (len / 3) in
      Quill_common.Djb2.fold Quill_common.Djb2.init b' off len
      = reference 5381
      && Quill_common.Djb2.fold 0xffff_ffff b' off len = reference 0xffff_ffff
      && Quill_common.Djb2.fold
           (Quill_common.Djb2.fold 5381 b' off (cut - off))
           b' cut (off + len - cut)
         = reference 5381)

(* [Ivec] against a list model: pushes, reserved blocks filled through
   [data], writes through [data], [clear]. *)
let prop_ivec_model =
  QCheck.Test.make ~name:"ivec = list model" ~count:200
    QCheck.(list (pair (int_range 0 3) small_int))
    (fun ops ->
      let module Iv = Quill_common.Ivec in
      let v = Iv.create () and model = ref [] in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
              Iv.push v x;
              model := !model @ [ x ]
          | 1 ->
              let o = Iv.extend v x in
              for i = 0 to x - 1 do
                (Iv.data v).(o + i) <- i
              done;
              model := !model @ List.init x Fun.id
          | 2 when !model <> [] ->
              let i = x mod List.length !model in
              (Iv.data v).(i) <- -x;
              model := List.mapi (fun j y -> if j = i then -x else y) !model
          | _ ->
              if x mod 5 = 0 then begin
                Iv.clear v;
                model := []
              end)
        ops;
      Iv.length v = List.length !model
      && List.for_all Fun.id (List.mapi (fun i y -> Iv.get v i = y) !model))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "common"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "chance" `Quick test_rng_chance;
          Alcotest.test_case "pinned outputs, no allocation" `Quick
            test_rng_pinned_no_alloc;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "uniform case" `Quick test_zipf_uniform_case;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "theta ordering" `Quick test_zipf_theta_ordering;
          qc prop_zipf_uniform_when_theta0;
          qc prop_zipf_rank_monotone;
          qc prop_zipf_scrambled_bounds;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "out of bounds" `Quick test_vec_oob;
          Alcotest.test_case "sort/fold" `Quick test_vec_sort_fold;
          qc prop_vec_model;
          qc prop_ivec_model;
        ] );
      ("djb2", [ qc prop_djb2_reference ]);
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          qc prop_bitset_model;
        ] );
      ( "stats",
        [
          Alcotest.test_case "acc" `Quick test_acc;
          Alcotest.test_case "hist exact small" `Quick test_hist_exact_small;
          Alcotest.test_case "hist percentile bounds" `Quick
            test_hist_percentile_bounds;
          Alcotest.test_case "hist zero and negative" `Quick
            test_hist_zero_and_negative;
          Alcotest.test_case "hist merge" `Quick test_hist_merge;
          qc prop_hist_percentile_ge_median;
          qc prop_hist_percentile_monotone;
          qc prop_hist_p100_is_max;
          qc prop_hist_bucket_edge_bounds_value;
        ] );
      ( "tablefmt",
        [ Alcotest.test_case "render" `Quick test_tablefmt ] );
    ]
