//! Model-checker throughput benchmarks: full verification of the golden
//! protocols, with and without symmetry reduction, hand-written and
//! interpreted from `specs/`.
//!
//! These calibrate the substrate: every synthesis number in Table I is a sum
//! of checker runs, so checker time per protocol is the unit cost.

use criterion::{criterion_group, criterion_main, Criterion};
use verc3_bench::{spec_golden_resolver, spec_with_pids};
use verc3_mck::{Checker, CheckerOptions, Verdict};
use verc3_protocols::mesi::{MesiConfig, MesiModel};
use verc3_protocols::msi::{MsiConfig, MsiModel};

fn bench_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker");

    let msi = MsiModel::new(MsiConfig::golden());
    group.bench_function("msi_golden_3caches_sym", |b| {
        b.iter(|| {
            let out = Checker::new(CheckerOptions::default()).run(&msi);
            assert_eq!(out.verdict(), Verdict::Success);
            out.stats().states_visited
        })
    });

    let msi_nosym = MsiModel::new(MsiConfig {
        symmetry: false,
        ..MsiConfig::golden()
    });
    group.bench_function("msi_golden_3caches_nosym", |b| {
        b.iter(|| {
            let out = Checker::new(CheckerOptions::default()).run(&msi_nosym);
            assert_eq!(out.verdict(), Verdict::Success);
            out.stats().states_visited
        })
    });

    let msi4 = MsiModel::new(MsiConfig {
        n_caches: 4,
        ..MsiConfig::golden()
    });
    group.bench_function("msi_golden_4caches_sym", |b| {
        b.iter(|| {
            Checker::new(CheckerOptions::default())
                .run(&msi4)
                .stats()
                .states_visited
        })
    });

    let mesi = MesiModel::new(MesiConfig::golden());
    group.bench_function("mesi_golden_3caches_sym", |b| {
        b.iter(|| {
            Checker::new(CheckerOptions::default())
                .run(&mesi)
                .stats()
                .states_visited
        })
    });

    let vi_spec = spec_with_pids("vi", 3);
    let (vi, vi_golden) = (vi_spec.model(), spec_golden_resolver(&vi_spec));
    group.bench_function("vi_golden_3caches_sym", |b| {
        b.iter(|| {
            Checker::new(CheckerOptions::default())
                .run_with(&vi, &vi_golden)
                .stats()
                .states_visited
        })
    });

    group.finish();
}

criterion_group!(benches, bench_checker);
criterion_main!(benches);
