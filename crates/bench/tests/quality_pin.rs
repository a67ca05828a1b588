//! Quality pin: the Table III quality columns of `exp_table3 --quick`
//! (NormGED, Fidelity+, Fidelity- and Size per method, no times) must equal
//! the committed `BENCH_quality.json` exactly. Performance work that keeps
//! witnesses byte-identical leaves the file as it is; a change that moves
//! explanation quality on purpose regenerates it and says so.

use rcw_bench::{quality_json, table3, table3_run};

#[test]
fn exp_table3_quick_quality_matches_the_pin() {
    let (ctx, k, vt) = table3_run(true);
    let fresh = quality_json(&table3(&ctx, k, vt));
    let pinned = include_str!("../../../BENCH_quality.json");
    assert_eq!(
        fresh, pinned,
        "exp_table3 --quick quality drifted from BENCH_quality.json; fresh run:\n{fresh}"
    );
}
