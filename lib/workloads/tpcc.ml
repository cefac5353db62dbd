open Quill_txn

type cfg = Tpcc_defs.cfg

let default = Tpcc_defs.default
let payment_mix = Tpcc_defs.payment_mix

let make (cfg : cfg) =
  assert (cfg.Tpcc_defs.warehouses > 0 && cfg.Tpcc_defs.nparts > 0);
  assert (
    cfg.Tpcc_defs.mix_new_order + cfg.Tpcc_defs.mix_payment
    + cfg.Tpcc_defs.mix_order_status + cfg.Tpcc_defs.mix_delivery
    + cfg.Tpcc_defs.mix_stock_level
    = 100);
  let h = Tpcc_load.make cfg in
  let book = Tpcc_gen.make_book cfg in
  let new_stream =
    Workload.streams ~seed:cfg.Tpcc_defs.seed (fun rng tid ->
        Tpcc_gen.gen_txn cfg h book rng tid)
  in
  let name =
    Printf.sprintf "tpcc-w%d-%d" cfg.Tpcc_defs.warehouses cfg.Tpcc_defs.seed
  in
  {
    Workload.name;
    db = h.Tpcc_load.db;
    new_stream;
    exec = Tpcc_exec.exec;
    describe =
      Printf.sprintf "TPC-C W=%d parts=%d mix=%d/%d/%d/%d/%d"
        cfg.Tpcc_defs.warehouses cfg.Tpcc_defs.nparts
        cfg.Tpcc_defs.mix_new_order cfg.Tpcc_defs.mix_payment
        cfg.Tpcc_defs.mix_order_status cfg.Tpcc_defs.mix_delivery
        cfg.Tpcc_defs.mix_stock_level;
  }

let handles (wl : Workload.t) = Tpcc_load.of_db wl.Workload.db
