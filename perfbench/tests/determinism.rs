//! The same seed gives the same results and the same layer counts; a
//! different seed gives different results.

use archgym_perfbench::harness::Limit;
use archgym_perfbench::{trace, traced_phase, WORKLOADS};

/// (digest, [dram.steps, proxy.refits, store.appends, agents.proposals])
fn run(workload: &str, seed: u64, units: u64) -> (u64, [u64; 4]) {
    let t = traced_phase(workload, seed, Limit::units(units)).expect("workload runs");
    assert_eq!(
        t.phase.units.len() as u64,
        units,
        "{workload}: every unit ran"
    );
    for unit in &t.phase.units {
        assert!(
            unit.error.is_none(),
            "{workload} unit {}: {:?}",
            unit.id,
            unit.error
        );
    }
    let totals = trace::totals(&t.spans);
    let count = |name: &str| totals.get(name).map_or(0, |x| x.count);
    let counts = [
        count("dram.step"),
        t.phase.counts.get("proxy_refits").copied().unwrap_or(0),
        count("store.append"),
        t.proposals,
    ];
    (t.phase.digest(), counts)
}

// One test: the span recorder is process-wide.
#[test]
fn same_seed_same_digest_and_counts_other_seed_other_digest() {
    for (workload, units, used) in [
        (WORKLOADS[0], 4, [true, false, false, true]),
        (WORKLOADS[1], 2, [false, true, false, true]),
        (WORKLOADS[2], 6, [false, false, true, true]),
    ] {
        let (digest, counts) = run(workload, 11, units);
        assert_eq!((digest, counts), run(workload, 11, units), "{workload}");
        for (count, used) in counts.iter().zip(used) {
            assert_eq!(*count > 0, used, "{workload}: counts {counts:?}");
        }
        let (other, _) = run(workload, 12, units);
        assert_ne!(digest, other, "{workload}: seeds 11 and 12 agree");
    }
}
