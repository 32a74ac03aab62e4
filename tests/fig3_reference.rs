//! Pins the reference serial BFS — the oracle the equivalence suites hold
//! every check to — to the committed `fig3_check` golden rows and to the VI
//! spec's golden counts, so the oracle is anchored to numbers and not only
//! to the checker it checks.

use verc3::mck::checker::reference::Bfs;
use verc3::mck::{
    CheckerOptions, HoleRegistry, NoHoles, SharedResolver, TransitionSystem, Verdict,
};
use verc3::protocols::mesi::{MesiConfig, MesiModel};
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3_bench::{
    skeleton_golden_resolver, spec_golden_resolver, spec_with_pids, FIG3_GOLDEN_ROWS,
};

fn reference<M: TransitionSystem>(
    model: &M,
    resolver: &dyn SharedResolver,
) -> (Verdict, usize, usize) {
    let registry = HoleRegistry::new();
    let out = Bfs::new(model, &CheckerOptions::default(), resolver, &registry).explore();
    (
        out.verdict(),
        out.stats().states_visited,
        out.stats().transitions,
    )
}

#[test]
fn reference_bfs_reproduces_every_fig3_golden_row() {
    let msi = |config| reference(&MsiModel::new(config), &NoHoles);
    let skeleton = |config: MsiConfig| {
        let resolver = skeleton_golden_resolver(&config);
        reference(&MsiModel::new(config), &resolver)
    };
    let mut rows = Vec::new();
    for n_caches in [2, 3, 4, 5, 6] {
        rows.push(msi(MsiConfig {
            n_caches,
            ..MsiConfig::golden()
        }));
    }
    rows.push(msi(MsiConfig {
        symmetry: false,
        ..MsiConfig::golden()
    }));
    rows.push(msi(MsiConfig {
        data_values: true,
        ..MsiConfig::golden()
    }));
    rows.push(skeleton(MsiConfig::msi_xl()));
    rows.push(skeleton(MsiConfig::msi5()));
    for n_caches in [2, 3] {
        let model = MesiModel::new(MesiConfig {
            n_caches,
            ..MesiConfig::golden()
        });
        rows.push(reference(&model, &NoHoles));
    }
    assert_eq!(rows.len(), FIG3_GOLDEN_ROWS.len(), "one row per golden");
    for (got, &(label, states, transitions)) in rows.into_iter().zip(FIG3_GOLDEN_ROWS) {
        assert_eq!(got, (Verdict::Success, states, transitions), "{label}");
    }

    // VI is `specs/vi.toml` under its golden assignment, at the committed
    // two caches (its `[golden]` block) and at three.
    for (pids, states, transitions) in [(2, 12, 18), (3, 19, 41)] {
        let spec = spec_with_pids("vi", pids);
        let got = reference(&spec.model(), &spec_golden_resolver(&spec));
        assert_eq!(
            got,
            (Verdict::Success, states, transitions),
            "VI spec, pids = {pids}"
        );
    }
}
