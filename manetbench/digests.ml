(* SHA-256 digests of one pass's deterministic exports (sorted stats
   counters, perf det JSONL and timeline JSONL of every plane), recorded
   for the default seed and one held-out seed of each workload.  A run
   on either seed fails its checks when the program's behaviour drifts
   from these.  After an intentional behaviour change, re-record with

     bash manetbench/run.sh --record

   and say why in the change's notes. *)

let default_seed = 1
let held_out_seed = 7

let recorded =
  [
    (("bootstrap_grid400", 1), "69ff4650ddb51377236fea6b5a1a20bfbc0335cac14fa75c08d804ef2cff01d7");
    (("bootstrap_grid400", 7), "4444f2ea56a9dd2b52fba1674700612d0c6b107fe2cccc1ab90167eb5fa56206");
    (("routing_mobile30", 1), "edd64c732465d6b4dcfe7483c0097e5946cd51b0d8726fee1b133023407248b4");
    (("routing_mobile30", 7), "2a93de77e97a27c2c188cfae3513acf9da1625c61010f5acd4ed3a53ac38cb67");
    (("secure_rsa30", 1), "8b29aca6ca01ebcb4242a28284d7533d252246e56a80dc479f46a75f024a71d6");
    (("secure_rsa30", 7), "f381ccdede4ed6c88059f9d3deee8f84217dbce54ecc806efea244516cff6442");
  ]

let find ~workload ~seed = List.assoc_opt (workload, seed) recorded
