//! Per-layer metrics of a traced phase.
//!
//! Times are self seconds per unit (a span's duration minus the time
//! its child spans cover, summed by layer and divided by the traced
//! units); counts are per unit too. A layer a workload does not use
//! reads 0.

use crate::harness::Phase;
use crate::trace::{self, SpanRecord, Totals};
use crate::wrap::FAMILIES;
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The simulator layers, by span name prefix.
pub const SIMULATORS: [&str; 4] = ["dram", "accel", "mapping", "soc"];

/// Everything the per-layer report needs from a traced phase.
pub struct TracedPhase<'a> {
    /// The traced phase.
    pub phase: &'a Phase,
    /// Every span the phase recorded.
    pub spans: &'a [SpanRecord],
    /// Proposals the traced agents returned.
    pub proposals: u64,
    /// Bytes appended through the traced store.
    pub append_bytes: u64,
    /// Pool width of the search workload.
    pub pool_jobs: usize,
    /// `samples_per_s` of the untraced phase.
    pub untraced_samples_per_s: f64,
}

/// The per-layer metrics, in report order.
pub fn per_layer(t: &TracedPhase<'_>) -> Vec<Metric> {
    let totals = trace::totals(t.spans);
    let units = t.phase.units.len().max(1) as f64;
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let self_s = |name: &str| get(name).self_s / units;
    let count = |name: &str| get(name).count as f64 / units;
    let counter = |name: &str| t.phase.counts.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    const S: &str = "s/unit";
    const N: &str = "count/unit";
    let mut out = Vec::new();
    let dram = get("dram.step");
    out.push(metric("dram.step_s", self_s("dram.step"), S));
    out.push(metric("dram.steps", count("dram.step"), N));
    let ns_per_decision = ratio(dram.total_s * 1e9, counter("dram_decisions"));
    out.push(metric("dram.ns_per_decision", ns_per_decision, "ns"));
    for layer in ["accel", "mapping", "soc"] {
        let span = format!("{layer}.step");
        out.push(metric(format!("{layer}.step_s"), self_s(&span), S));
        out.push(metric(format!("{layer}.steps"), count(&span), N));
    }

    let batch = get("pool.eval_batch");
    let steps_in_pools: f64 = if batch.count > 0 {
        SIMULATORS
            .iter()
            .map(|l| get(&format!("{l}.step")).total_s)
            .sum()
    } else {
        0.0
    };
    let parallel_eff = ratio(steps_in_pools, t.pool_jobs as f64 * batch.total_s);
    out.push(metric("pool.eval_batch_s", self_s("pool.eval_batch"), S));
    out.push(metric("pool.batches", count("pool.eval_batch"), N));
    out.push(metric("pool.parallel_eff", parallel_eff, "ratio"));

    for family in FAMILIES {
        for call in ["propose", "observe"] {
            let span = format!("agents.{family}.{call}");
            out.push(metric(format!("{span}_s"), self_s(&span), S));
        }
    }
    out.push(metric("agents.proposals", t.proposals as f64 / units, N));

    let admit_ratio = ratio(counter("proxy_admitted"), counter("proxy_screened"));
    out.push(metric("proxy.observe_s", self_s("proxy.observe"), S));
    out.push(metric("proxy.predict_s", self_s("proxy.predict"), S));
    out.push(metric("proxy.refits", counter("proxy_refits") / units, N));
    out.push(metric("proxy.admit_ratio", admit_ratio, "ratio"));

    let eliminated = counter("race_lanes_eliminated") / units;
    out.push(metric("race.self_s", self_s("race"), S));
    out.push(metric("race.lanes_eliminated", eliminated, N));
    // The search loop's own time: the search unit span in search-dram,
    // the in-process run of each job in daemon-journal.
    let search_self = self_s("search") + self_s("replay");
    out.push(metric("search.self_s", search_self, S));

    out.push(metric("store.append_s", self_s("store.append"), S));
    out.push(metric("store.appends", count("store.append"), N));
    let append_bytes = t.append_bytes as f64 / units;
    out.push(metric("store.append_bytes", append_bytes, "bytes/unit"));
    out.push(metric("store.sync_s", self_s("store.sync"), S));
    out.push(metric("store.syncs", count("store.sync"), N));
    out.push(metric("store.write_s", self_s("store.write"), S));

    let total_s = |name: &str| get(name).total_s / units;
    out.push(metric("daemon.submit_s", total_s("daemon.submit"), S));
    out.push(metric(
        "daemon.first_event_s",
        total_s("daemon.first_event"),
        S,
    ));
    out.push(metric("daemon.stream_s", total_s("daemon.stream"), S));
    let rejected = t
        .phase
        .units
        .iter()
        .filter(|u| u.error.as_deref().is_some_and(|e| e.contains("Rejected")))
        .count();
    out.push(metric("daemon.rejected", rejected as f64 / units, N));
    out.push(metric("daemon.self_s", daemon_self_s(t, &totals), S));

    let overhead = 1.0 - ratio(t.phase.samples_per_s(), t.untraced_samples_per_s);
    out.push(metric("trace.overhead_frac", overhead, "ratio"));
    out.push(metric("trace.units", units, "count"));
    out
}

/// The time `archgymd` and its journal add to a job, per job: the
/// client's submit-to-Done time minus an in-process run of the same job
/// (simulator, agent and search loop) minus the store's own time.
/// Zero outside `daemon-journal`.
fn daemon_self_s(t: &TracedPhase<'_>, totals: &BTreeMap<&'static str, Totals>) -> f64 {
    let get = |name: &str| totals.get(name).map_or(0.0, |x| x.total_s);
    let jobs = get("job");
    if jobs == 0.0 {
        return 0.0;
    }
    let store: f64 = ["store.append", "store.sync", "store.write"]
        .iter()
        .map(|n| get(n))
        .sum();
    (jobs - get("replay") - store) / t.phase.units.len().max(1) as f64
}

/// Whether the traced run confirms the workload's reason for being in
/// the benchmark, with the per-unit self times compared.
pub fn reason(workload: &str, metrics: &[Metric]) -> (bool, String) {
    let sum = |pred: &dyn Fn(&str) -> bool| -> f64 {
        metrics
            .iter()
            .filter(|m| m.unit == "s/unit" && pred(&m.name))
            .map(|m| m.value)
            .sum()
    };
    let sims = sum(&|n| SIMULATORS.iter().any(|l| n == format!("{l}.step_s")));
    let agents = sum(&|n| n.starts_with("agents."));
    match workload {
        "search-dram" => {
            let dram = sum(&|n| n == "dram.step_s");
            let others = [
                ("pool", sum(&|n| n == "pool.eval_batch_s")),
                ("agents", agents),
                ("search", sum(&|n| n == "search.self_s")),
            ];
            let (top, top_s) =
                others
                    .iter()
                    .copied()
                    .fold(("none", 0.0), |a, b| if b.1 > a.1 { b } else { a });
            (
                dram > top_s,
                format!("dram self {dram:.4e} s/unit vs largest other layer {top} {top_s:.4e}"),
            )
        }
        "race-screened" => {
            let proxy = sum(&|n| n.starts_with("proxy."));
            let race = sum(&|n| n == "race.self_s");
            let ours = proxy + agents + race;
            (
                ours > sims,
                format!(
                    "proxy {proxy:.4e} + agents {agents:.4e} + race {race:.4e} = {ours:.4e} s/unit vs simulators {sims:.4e}"
                ),
            )
        }
        _ => {
            let store = sum(&|n| n.starts_with("store."));
            let daemon = sum(&|n| n == "daemon.self_s");
            let ours = store + daemon;
            (
                ours > sims,
                format!(
                    "store {store:.4e} + archgymd {daemon:.4e} = {ours:.4e} s/unit vs simulators {sims:.4e}"
                ),
            )
        }
    }
}
