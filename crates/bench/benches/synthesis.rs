//! End-to-end synthesis benchmarks (Table I at bench-friendly scale).
//!
//! `msi_small` is the paper's 8-hole problem; `msi_tiny` and the VI/Figure-2
//! problems provide fast-iteration datapoints. The full MSI-large rows are
//! produced by the `table1` binary (they are seconds-scale and do not suit
//! Criterion's repeated sampling).

use criterion::{criterion_group, criterion_main, Criterion};
use verc3_core::{PatternMode, SynthOptions, Synthesizer};
use verc3_mck::GraphModel;
use verc3_protocols::msi::{MsiConfig, MsiModel};
use verc3_spec::ProtocolSpec;

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);

    group.bench_function("fig2_pruning", |b| {
        let model = GraphModel::worked_example();
        b.iter(|| {
            let r = Synthesizer::new(SynthOptions::default()).run(&model);
            assert_eq!(r.stats().evaluated, 10);
        })
    });

    group.bench_function("fig2_naive", |b| {
        let model = GraphModel::worked_example();
        b.iter(|| {
            let r = Synthesizer::new(SynthOptions::default().pruning(false)).run(&model);
            assert_eq!(r.stats().evaluated, 24);
        })
    });

    group.bench_function("vi_full_pruning", |b| {
        let spec =
            ProtocolSpec::from_path(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/vi.toml"))
                .expect("specs/vi.toml");
        let model = spec.model();
        b.iter(|| {
            Synthesizer::new(SynthOptions::default())
                .run(&model)
                .stats()
                .evaluated
        })
    });

    group.bench_function("msi_tiny_refined", |b| {
        let model = MsiModel::new(MsiConfig::msi_tiny());
        b.iter(|| {
            Synthesizer::new(SynthOptions::default().pattern_mode(PatternMode::Refined))
                .run(&model)
                .stats()
                .evaluated
        })
    });

    group.bench_function("msi_small_refined", |b| {
        let model = MsiModel::new(MsiConfig::msi_small());
        b.iter(|| {
            let r = Synthesizer::new(SynthOptions::default().pattern_mode(PatternMode::Refined))
                .run(&model);
            assert!(!r.solutions().is_empty());
            r.stats().evaluated
        })
    });

    group.finish();
}

criterion_group!(benches, bench_synthesis);
criterion_main!(benches);
