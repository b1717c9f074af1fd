//! The closed loop shared by the workloads, and the per-unit
//! record each workload produces.

use crate::stats::Digest;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Peak memory is read when this many units have completed, so it does
/// not grow with the number of units a faster host fits into a run.
pub const RSS_AT_UNITS: u64 = 100;

/// How long a phase runs: units `0..units` are started while fewer
/// than `seconds` have passed.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    /// Start no unit after this many seconds.
    pub seconds: f64,
    /// Start no unit with an id at or above this.
    pub units: u64,
}

impl Limit {
    /// Units until `seconds` have passed.
    pub fn seconds(seconds: f64) -> Limit {
        Limit {
            seconds,
            units: u64::MAX,
        }
    }

    /// Exactly units `0..units` (used by the determinism checks).
    pub fn units(units: u64) -> Limit {
        Limit {
            seconds: f64::INFINITY,
            units,
        }
    }
}

/// One unit (a search, a race or a daemon job) after its checks.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Unit index; the unit's inputs derive from it and the seed.
    pub id: u64,
    /// Host seconds from start to result.
    pub secs: f64,
    /// True simulator samples the unit settled.
    pub samples: u64,
    /// Digest of everything the unit returned.
    pub result: u64,
    /// Why the unit failed, was rejected, or did not check out.
    pub error: Option<String>,
}

/// What one phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every unit attempted, in id order.
    pub units: Vec<Checked>,
    /// Wall seconds from the first unit's start to the last's end.
    pub wall_s: f64,
    /// Peak resident memory (VmHWM) after [`RSS_AT_UNITS`] units, MiB.
    pub rss_mib: f64,
    /// Counts read from the library's telemetry recorder (traced only).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Phase {
    /// Digest over all unit results in id order.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for unit in &self.units {
            d.word(unit.id).word(unit.result);
        }
        d.value()
    }

    /// Units that failed a check or did not complete.
    pub fn failed(&self) -> usize {
        self.units.iter().filter(|u| u.error.is_some()).count()
    }

    /// True samples settled per wall second.
    pub fn samples_per_s(&self) -> f64 {
        let samples: u64 = self.units.iter().map(|u| u.samples).sum();
        samples as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }
}

/// Completion counter shared by a phase's clients.
#[derive(Debug, Default)]
pub struct Progress {
    done: AtomicU64,
    rss_mib: OnceLock<f64>,
}

impl Progress {
    fn complete(&self) {
        if self.done.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AT_UNITS {
            let _ = self.rss_mib.set(peak_rss_mib());
        }
    }

    /// VmHWM at the [`RSS_AT_UNITS`]th completion, or now if fewer ran.
    pub fn rss_mib(&self) -> f64 {
        self.rss_mib.get().copied().unwrap_or_else(peak_rss_mib)
    }
}

/// One timed unit before its checks.
pub struct Timed<T> {
    /// Unit index.
    pub id: u64,
    /// Host seconds from start to result.
    pub secs: f64,
    /// The unit's output.
    pub out: T,
}

/// A closed loop: run `unit(id)` for each id in `ids`, one after the
/// other, until `limit` is reached.
pub fn closed_loop<T>(
    limit: Limit,
    start: Instant,
    ids: impl Iterator<Item = u64>,
    progress: &Progress,
    mut unit: impl FnMut(u64) -> T,
) -> Vec<Timed<T>> {
    let mut out = Vec::new();
    for id in ids {
        if id >= limit.units || start.elapsed().as_secs_f64() >= limit.seconds {
            break;
        }
        let t = Instant::now();
        let result = unit(id);
        out.push(Timed {
            id,
            secs: t.elapsed().as_secs_f64(),
            out: result,
        });
        progress.complete();
    }
    out
}

/// The process's peak resident set (VmHWM), MiB; 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A scratch directory for this process under the benchmark's own
/// `target/` directory (the benchmark writes nowhere else).
pub fn scratch_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("{name}-{}", std::process::id()))
}
