//! Model-behaviour pin: a digest of every `RunStats` field for all 18
//! kernels at tiny scale on eleven machine shapes, each run on a fresh
//! machine. Host-side optimizations of the step loop and the memory
//! system must leave every value bit-identical; a deliberate model
//! change re-pins the table below and says so.
//!
//! The shapes cover DiAG's preset (`diag:f4c32`), the configuration
//! without an L2 (`diag:i4c2`), a tuning-grid point with a narrower ring
//! and a shallower LSU, a two-ring multithreaded run, both baselines, and
//! the pipelined SIMT engine (§4.4, §5.4) behind the SIMT columns of
//! Figs 9b, 10b and 12: the SIMT binary on one ring and on eight
//! four-cluster rings. A kernel without SIMT regions builds its plain
//! binary, so its first SIMT column equals the first column.
//!
//! The last three columns pin the thread-wave loop: four threads on
//! F4C2's single multithreaded ring run as four waves, each launched at
//! the previous wave's finish; eight threads on four out-of-order cores
//! run as two waves sharing one L2; and twelve threads on the paper's
//! twelve-core baseline (§7.1) is the baseline of Figs 9b and 10b.

use diag_bench::runner::{build_machine, run_built, MachineSpec};
use diag_pipeline::Session;
use diag_sim::RunStats;
use diag_workloads::Params;

/// `(machine spec, hardware threads, SIMT binary)` per column of
/// [`GOLDEN`].
const MACHINES: &[(&str, usize, bool)] = &[
    ("diag:f4c32", 1, false),
    ("diag:i4c2", 1, false),
    (
        "diag:f4c32+clusters=8,lane_buffer_interval=16,lsu_depth=4",
        1,
        false,
    ),
    ("diag:f4c32", 2, false),
    ("ooo:12", 1, false),
    ("inorder", 1, false),
    ("diag:f4c32", 1, true),
    ("diag:f4c32+ring_clusters=4", 8, true),
    ("diag:f4c2", 4, false),
    ("ooo:4", 8, false),
    ("ooo:12", 12, false),
];

/// One row per kernel: its name, then one FNV-1a digest per column of
/// [`MACHINES`].
const GOLDEN: &str = "\
backprop df3faaf4950a2a1c e23f9d833895b899 6ca73dd11c0e1787 01dcaf4732d727c7 6e68db7a82a905f5 cf4322cbcdcf6735 73099c35a5d64422 ebe8c7273d3d0d97 140c52a7d0a7ef3b 47a748c9a59b787d b0c089792d5758d9
bfs ca2e4fbd30e0933c b11f0004dfc811e4 d41d2bb44162afe1 096d18cdc60582bf cbfeba2777dc1fbc f8845be6a4d6b68a ca2e4fbd30e0933c ab82d881e08502e9 a553f3b6b08587a9 39c0cd11da8c89e4 68891c9a6de4687e
hotspot ae165403da9b4abc 2e99f3e7cefffa5c 036ae031cd07ffa7 1719852782efa1d9 f35be6844ef90c9a 7dd5a874cf0513be 92d773ea5314fa30 1701562cc7059a7d 3326b06ebf2cf970 6953e5885f6cbe3a 0732b3334b138d68
kmeans ffd90c3dd74838b7 380ae65f8881da80 78834974e2c094f0 23176bbbf626f3d4 12f45ce5c71475b5 07ba066f66073fd3 e737f5a272a8baac b70f155d274845c6 9086515b1a860d06 fd0618bccbe3dc24 ab836d7d6e52b09b
lud 7a77603e1c81aa8d 495eb0c2ca80fa1a 8fd8fb337457e8d4 42bd1c8249da1410 a58c361f121b6bee a93141d2d50cb7b2 7a77603e1c81aa8d ae0dd17732497b9a 0bb3f0c04f608ce1 f912223e3a9acc26 59b1ca7e95e358c3
nn aa7d55f2c8148123 4f06c9b869c52f31 77937371e45848b7 201a245647a5bd3c 44a8cc501569b9fd 76aa48b8528fa072 7a82fb5fd25f45c1 a56677e9f3feb397 1a4bda048462364e 38b32f8ea40ae671 70a53ae5966fa411
nw 55c4b3992a277eb9 1979a4ae7d380002 b4d8e608e2440305 4e6964ff0da4f4a8 b523a04b4fe22958 10796a5c1913b8a8 55c4b3992a277eb9 4bcb3709fa4ea31d 6e1b545ce237f616 f0037ca985d496f3 2d4512c5336f8b3f
pathfinder dcc32901157cfa25 e0929610f2f7ad82 5026596bb09ad6a7 c974d3b87d2950e0 0847b654c2e3f237 5a86a8e05227c6c1 0875848d9746f3c3 6fd85fea16a68daf 5535e6432b0ba9f0 a88f63d1782da301 60c761578da749e3
srad 8dc88bbd978118bb 136b5c546c6e7a01 b241911b733ad1e8 23d57a772eee5f44 28699314a58d0db5 7887f6974bdc5b12 1a59c7a8b32bb4c3 f768f2cb7c9ecdd4 81f61f09a3c9191e e8803cd8fdf94afb 6c2fbf6ecc93b6cb
streamcluster 150b60bfed8bdc6a 1e4e8b94023ef2d8 556f38ef5e199e10 557a4b0325d4a166 7e026df25c973877 b219c135a3464f37 c176c1818f6059cb b5874f5f5a131fbb fe3579503de4a3ca 851406acdcb91b3c 931a83eb35d6e860
deepsjeng 23a36a7da6645e3d cf2f2258f3c6cfe3 b25e2da9da088718 8a795c2ff864c405 bcd6cb0424feee53 af13cb49d46a26c3 b3520de1e7da71f4 af6d16918a9b3fe8 f983ed58c483449e a741d6d25a05ce6f 9d22c66306280564
imagick bf4dd9c793a78c12 4b7c1d0c7b90b0cd 78a105c6eb396256 12bb53d06c7d3d62 233f9ee413c8454c 56f254ed5b9aaa3b b5d896dc661cff84 f816334493b1742c 505fa6e9c1c5cb8b f6e4cd50ee0197f5 cc52a2c99339b33a
lbm ac6ad5abc0dfd511 cb367d6fc9b9a833 4969ce6f6b6ae563 8d7480a3163e35fa 67ab8f09a2f94c37 e513403de190ce44 69d902e47e0b6710 fb31963aa47d357b 9e66da5db44399c9 fb17ee7e7fb784a0 33812f11deb8326f
leela 5adb73c4bf35ba25 cab9cd727bc887dc f899d1dcd403e7eb 05dbd96dab28e7d3 7771b2974b17d4db 4ce67e75143fc19f 5adb73c4bf35ba25 4fd72e58580d0ec6 1c293bd57d516aea b661d1a5617e5531 c7ad472efd78eaca
mcf cc4069aa597a93fe 3b84cd9eae56ffe8 c4db5d296b917f28 c32cc4dd60c3ab29 cd36381131042f8d 43d6a41204548e45 cc4069aa597a93fe 657e60608e7f793f b4878c4daf01b56a 6368649018e14ea1 b3ce70b697172d33
namd 38aad7b970aabfcc 23f6adf4292051ab 9f649ff90d8b3380 2d53e45b4fa09db6 ff7f4d911864f90c cff909259a465023 778b41475ef7e363 a4a462a3afe28f9e 52074664ac17351e 74a91fa6a1608f7a d49ab27f15f9db30
x264 bd1b524c8e057585 8b8ba6677d7c48a7 f63d2808044fa2aa 4875fe5ca0b9ed94 0334cc204c918179 1846716c53bda9f3 e0554e400d6692e7 ba53b2a36fd2d4da c94d220672a4f80f 73f42bbfe85a5478 5f1341c210754977
xz 90652129174d22a3 2afbe954870c2fd6 6b0a1e8773a0c3f6 8a7d355f19bd00f7 bf2536717d00ace1 25d75799ceed52fd 90652129174d22a3 8273901895dcf4d0 089d6e5d48124521 50261a09f80e7f49 dae528b2465c4c3f
";

/// FNV-1a 64 over every `RunStats` field, in declaration order.
fn digest(s: &RunStats) -> String {
    let a = &s.activity;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [
        s.cycles,
        s.committed,
        s.threads,
        s.stalls.memory,
        s.stalls.control,
        s.stalls.structural,
        a.busy_cycles,
        a.pe_active_cycles,
        a.pe_resident_cycles,
        a.fpu_active_cycles,
        a.int_ops,
        a.fp_ops,
        a.loads,
        a.stores,
        a.reg_writes,
        a.lane_transports,
        a.memlane_hits,
        a.bus_beats,
        a.line_fetches,
        a.decodes,
        a.reuse_commits,
        a.renames,
        a.dispatches,
        a.issues,
        a.rob_writes,
        a.bpred_lookups,
        a.mispredicts,
        a.l1d_accesses,
        a.l1d_misses,
        a.l2_accesses,
        a.l2_misses,
        s.freq_ghz.to_bits(),
    ] {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[test]
fn run_stats_match_the_pinned_digests() {
    let session = Session::in_memory();
    let machines: Vec<(MachineSpec, Params)> = MACHINES
        .iter()
        .map(|&(text, threads, simt)| {
            let params = Params::tiny().with_threads(threads).with_simt(simt);
            (MachineSpec::parse(text).expect("valid spec"), params)
        })
        .collect();
    let mut table = String::new();
    for spec in diag_workloads::all() {
        table.push_str(spec.name);
        for (machine_spec, params) in &machines {
            let mut machine = build_machine(machine_spec);
            let stats = run_built(&session, machine_spec, &spec, params, machine.as_mut())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", spec.name, machine_spec.label()));
            table.push(' ');
            table.push_str(&digest(&stats));
        }
        table.push('\n');
    }
    assert_eq!(
        table, GOLDEN,
        "RunStats changed; columns are {MACHINES:?}\n{table}"
    );
}
