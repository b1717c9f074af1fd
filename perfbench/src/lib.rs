//! The ArchGym benchmark: three closed-loop workloads run against the
//! library's public API, with end-to-end metrics from an untraced run
//! and per-layer metrics from a traced one. See `README.md`.

pub mod daemon_journal;
pub mod harness;
pub mod layers;
pub mod race_screened;
pub mod search_dram;
pub mod stats;
pub mod trace;
pub mod wrap;

use archgym_core::Result;
use harness::{Limit, Phase, Progress};
use std::sync::atomic::Ordering;

/// The workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["search-dram", "race-screened", "daemon-journal"];

/// A set-up workload, ready to run units.
pub enum Workload {
    /// `search-dram`.
    SearchDram(search_dram::SearchDram),
    /// `race-screened`.
    RaceScreened(race_screened::RaceScreened),
    /// `daemon-journal`.
    DaemonJournal(daemon_journal::DaemonJournal),
}

impl Workload {
    /// Set up workload `name` for `seed`; `traced` installs the span
    /// wrappers and the library's telemetry recorder.
    pub fn setup(name: &str, seed: u64, traced: bool) -> Result<Workload> {
        Ok(match name {
            "search-dram" => Workload::SearchDram(search_dram::SearchDram::setup(seed, traced)?),
            "race-screened" => {
                Workload::RaceScreened(race_screened::RaceScreened::setup(seed, traced)?)
            }
            "daemon-journal" => {
                Workload::DaemonJournal(daemon_journal::DaemonJournal::setup(seed, traced)?)
            }
            other => {
                return Err(archgym_core::ArchGymError::InvalidConfig(format!(
                    "unknown workload `{other}` (expected one of {})",
                    WORKLOADS.join(", ")
                )))
            }
        })
    }

    /// Run units until `limit` and check every one.
    pub fn run(&self, limit: Limit, progress: &Progress) -> Phase {
        match self {
            Workload::SearchDram(w) => w.run(limit, progress),
            Workload::RaceScreened(w) => w.run(limit, progress),
            Workload::DaemonJournal(w) => w.run(limit, progress),
        }
    }

    /// Remove what the set-up wrote, leaving its threads to end with
    /// the process (for set-up-only processes, which exit next).
    pub fn abandon(self) {
        if let Workload::DaemonJournal(w) = self {
            w.abandon();
        }
    }

    /// Stop what the set-up started.
    pub fn teardown(self) -> Result<()> {
        match self {
            Workload::DaemonJournal(w) => w.teardown(),
            Workload::SearchDram(_) | Workload::RaceScreened(_) => Ok(()),
        }
    }
}

/// A traced phase and the spans it recorded.
pub struct Traced {
    /// The phase.
    pub phase: Phase,
    /// Its spans.
    pub spans: Vec<trace::SpanRecord>,
    /// Proposals returned by the traced agents.
    pub proposals: u64,
    /// Bytes appended through the traced store.
    pub append_bytes: u64,
}

/// Set up, run and tear down one traced phase of workload `name`.
pub fn traced_phase(name: &str, seed: u64, limit: Limit) -> Result<Traced> {
    trace::set_enabled(true);
    let _ = trace::take();
    wrap::PROPOSALS.store(0, Ordering::SeqCst);
    wrap::APPEND_BYTES.store(0, Ordering::SeqCst);
    let outcome = Workload::setup(name, seed, true).and_then(|w| {
        let phase = w.run(limit, &Progress::default());
        w.teardown().map(|()| phase)
    });
    trace::set_enabled(false);
    Ok(Traced {
        phase: outcome?,
        spans: trace::take(),
        proposals: wrap::PROPOSALS.load(Ordering::SeqCst),
        append_bytes: wrap::APPEND_BYTES.load(Ordering::SeqCst),
    })
}
