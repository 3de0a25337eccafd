//! The paper's qualitative claims (`manet-experiments claims`) as a
//! tier-1 test: a change that bends a figure — the location schemes'
//! coverage estimate behind Figs 9, 10 and 13, say — fails `cargo test`,
//! not only the CI step that runs the binary.

use manet_experiments::{claims, Scale};

#[test]
fn all_seventeen_paper_claims_hold_at_quick_scale() {
    let tables = claims::run(Scale::Quick);
    let summary = tables.last().expect("the summary table");
    assert_eq!(
        summary.to_csv().lines().last(),
        Some("17,17"),
        "passed,total:\n{}",
        tables[0].render()
    );
    assert!(claims::all_passed(&tables));
}
