//! Golden fixture for the `tab3_misses` hard-real-time audit.
//!
//! Pins the quick-run artifact — per-governor job counts, deadline misses,
//! audit issues and minimum slack margin, plus the notes — byte-for-byte.
//! Every row must stay at zero misses and zero audit issues, but the job
//! counts and margins are pinned too, so a change to the audited
//! workloads, the simulator or the referee shows up as a readable CSV
//! diff rather than passing silently.
//!
//! Regenerate (after an intentional semantic change) with:
//!
//! ```text
//! STADVS_BLESS=1 cargo test -p stadvs-experiments --test tab3_golden
//! ```

use stadvs_experiments::experiments::{by_id, RunOptions};
use stadvs_experiments::golden;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tab3_misses.csv");

fn render() -> String {
    let experiment = by_id("tab3_misses").expect("tab3_misses is registered");
    golden::artifact(&(experiment.run)(&RunOptions::quick()))
}

#[test]
fn tab3_misses_matches_committed_csv() {
    golden::check(FIXTURE, &render());
}
