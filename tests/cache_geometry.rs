//! Every cache geometry the machines ship with is mapped with shifts and
//! masks (`CacheArray` requires power-of-two line, set, and bank counts).
//! This checks that mapping against the division formula over random
//! addresses for every DiAG preset's L1I, L1D, and L2, the one-line L2
//! stand-in of configurations without an L2, and every baseline cache.

use diag::baseline::O3Config;
use diag::core::DiagConfig;
use diag::isa::prng::SplitMix64;
use diag::mem::{CacheArray, CacheConfig};

fn shipped_geometries() -> Vec<(String, CacheConfig)> {
    let mut out = Vec::new();
    for preset in [
        DiagConfig::i4c2(),
        DiagConfig::f4c2(),
        DiagConfig::f4c16(),
        DiagConfig::f4c32(),
    ] {
        out.push((format!("{} l1i", preset.name), preset.l1i));
        out.push((format!("{} l1d", preset.name), preset.l1d));
        // Without an L2 the shared parts back the L1D with this
        // degenerate one-line level.
        let l2 = preset.l2.unwrap_or(CacheConfig {
            size_bytes: 64,
            line_bytes: 64,
            ways: 1,
            hit_latency: 0,
            banks: 1,
        });
        out.push((format!("{} l2", preset.name), l2));
    }
    for baseline in [O3Config::aggressive_8wide(), O3Config::modest_4wide()] {
        out.push((format!("{} l1d", baseline.name), baseline.l1d));
        out.push((format!("{} l2", baseline.name), baseline.l2));
    }
    out.push(("baseline l1i".to_string(), CacheConfig::l1i_32k()));
    out
}

#[test]
fn shift_and_mask_mapping_matches_division() {
    let mut rng = SplitMix64::seed_from_u64(0xCAC4E);
    for (name, config) in shipped_geometries() {
        let cache = CacheArray::new(config);
        let sets = config.sets();
        let edges = [0, 1, config.line_bytes - 1, config.line_bytes, u32::MAX];
        let random = (0..20_000).map(|_| rng.gen::<u32>());
        for addr in edges.into_iter().chain(random) {
            let line = addr / config.line_bytes;
            assert_eq!(
                cache.set_and_tag(addr),
                (line % sets, line / sets),
                "{name}: set/tag of {addr:#x}"
            );
            assert_eq!(
                cache.bank_of(addr),
                line % config.banks,
                "{name}: bank of {addr:#x}"
            );
        }
    }
}
