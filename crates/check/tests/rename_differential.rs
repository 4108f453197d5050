//! Differential test for the linear web renaming: [`rename_webs`] must
//! leave every function bit-identical to the reaching-definitions oracle
//! [`rename_webs_reference`] — same canonical bytes (instructions, fresh
//! register numbering and allocator counters) and the same
//! [`RenameStats`] — over the fuzzer's seeded random functions, the real
//! kernels, the synthetic presets and the checked-in reproducer corpus.

use gis_cfg::Cfg;
use gis_check::{generate, parse_reproducer};
use gis_ir::{canon::to_canonical_bytes, Function};
use gis_pdg::webs::{rename_webs, rename_webs_reference};
use gis_workloads::rng::XorShift64Star;
use gis_workloads::{kernels, synth};

const SEEDS: u64 = 500;

/// Renames `f` both ways and demands identical results.
fn assert_same(name: &str, f: &Function) {
    let cfg = Cfg::new(f);
    let mut fast = f.clone();
    let fast_stats = rename_webs(&mut fast, &cfg);
    let mut reference = f.clone();
    let ref_stats = rename_webs_reference(&mut reference, &cfg);
    assert_eq!(fast_stats, ref_stats, "{name}: rename stats differ");
    assert!(
        to_canonical_bytes(&fast) == to_canonical_bytes(&reference),
        "{name}: renamed functions differ\n--- linear ---\n{fast}\n--- reference ---\n{reference}"
    );
}

#[test]
fn generated_functions_rename_identically() {
    for seed in 1..=SEEDS {
        let case = generate(&mut XorShift64Star::new(seed));
        assert_same(&format!("seed {seed}\n{}", case.text), &case.function);
    }
}

#[test]
fn kernels_and_presets_rename_identically() {
    let mut workloads = vec![
        kernels::idct8(6),
        kernels::fletcher(64),
        kernels::memwalk(64),
    ];
    let presets = synth::MANY_LOOPS_PRESETS
        .iter()
        .map(|&(name, ..)| synth::many_loops_preset(name))
        .chain(
            synth::DISPATCH_DIAMONDS_PRESETS
                .iter()
                .map(|&(name, ..)| synth::dispatch_diamonds_preset(name)),
        )
        .chain(
            synth::DISPATCH_DECODE_PRESETS
                .iter()
                .map(|&(name, ..)| synth::dispatch_decode_preset(name)),
        );
    workloads.extend(presets.map(|w| w.expect("preset exists")));
    for w in &workloads {
        assert_same(w.name, &w.program.function);
    }
}

#[test]
fn corpus_renames_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "gis"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "corpus is empty");
    for path in paths {
        let name = path.display().to_string();
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        let (function, _) = parse_reproducer(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same(&name, &function);
    }
}
