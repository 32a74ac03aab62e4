//! Quickstart: synthesize the missing rules of a small protocol.
//!
//! We load the bundled VI (Valid/Invalid) coherence protocol from
//! `specs/vi.toml`. Its two transient rules are holes: the cache's "data
//! arrived" rule and the directory's "completion ack" rule. The synthesizer
//! finds their completions: the cache acknowledges the directory and moves
//! to Valid, and the directory returns to Valid.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use verc3::spec::ProtocolSpec;
use verc3::synth::{SynthOptions, Synthesizer};

fn main() {
    // A protocol skeleton: the `IV_D + Data` rule has 3 responses x 3 next
    // states, the `B + Ack` rule 3 responses x 3 next states x 2 owner
    // updates, so 162 candidate completions.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/vi.toml");
    let spec = ProtocolSpec::from_path(path).expect("specs/vi.toml must load");
    let model = spec.model();

    // Synthesis = enumerate candidates, model-check each, prune inferred
    // failures. No example traces or designer hints required (that is the
    // paper's improvement over TRANSIT-style tools).
    let report = Synthesizer::new(SynthOptions::default()).run(&model);

    println!("discovered holes:");
    for hole in report.holes() {
        println!("  {} with actions {:?}", hole.name, hole.actions);
    }
    println!();
    println!(
        "{} model-checker runs over a space of {} complete candidates \
         ({} pruned; runs include the hole-discovery pass)",
        report.stats().evaluated,
        report.naive_candidate_space(),
        report.stats().skipped_by_pruning,
    );
    println!();
    for solution in report.solutions() {
        println!(
            "solution: {}  (verified over {} states)",
            solution.display_named(report.holes()),
            solution.visited_states,
        );
    }

    // Whether the directory records the acking cache as owner does not
    // matter (it already did on the request), so two completions verify;
    // the cache side has one.
    assert_eq!(
        report.solutions().len(),
        2,
        "VI has two correct completions"
    );
    for solution in report.solutions() {
        let named = solution.display_named(report.holes());
        assert!(
            named.contains("vi/cache/IV_D+Data/resp@send_ack"),
            "{named}"
        );
        assert!(named.contains("vi/cache/IV_D+Data/next@V"), "{named}");
    }
}
