//! Chaos suite: deterministic store-I/O fault injection, journal
//! corruption and truncation sweeps, and SIGKILL-style resume checks.
//!
//! Every test here asserts the same invariant from a different angle:
//! whatever the injected failure — torn writes, failed renames, failed
//! fsyncs, flipped bytes, truncated files, a process killed mid-run —
//! a run that eventually completes is *bit-identical* to a fault-free
//! run, and damage that cannot be recovered is a typed error, never a
//! silent divergence.

use archgym_agents::factory::{build_agent, AgentKind};
use archgym_core::jobs::{JobId, JobSpec, JobState};
use archgym_core::journal::{
    corrupt_path, JournalHeader, JournalRecord, JournalStep, RunJournal, JOURNAL_VERSION,
};
use archgym_core::search::{RunConfig, RunResult, SearchLoop};
use archgym_core::storeio::{real_io, Durability, FaultyIo, IoFaultPlan, StoreIo};
use archgymd::spec::make_env;
use archgymd::store::{JobOutcome, JobStore, PersistedJob};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SEED: u64 = 1701;
const BUDGET: u64 = 96;
const BATCH: usize = 16;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("archgym-chaos-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One search run (dram/stream, random-walker, fixed seed) journaled at
/// `path` through `io`. A fresh agent every call: retries after an
/// injected fault must rebuild state from the journal alone, exactly
/// like a daemon restart.
fn run_with_io(
    path: &Path,
    io: Arc<dyn StoreIo>,
    durability: Durability,
) -> archgym_core::error::Result<RunResult> {
    let env = make_env("dram/stream", Some("power:1.0")).unwrap();
    let kind = AgentKind::parse("rw").unwrap();
    let mut agent = build_agent(kind, env.space(), &Default::default(), SEED).unwrap();
    SearchLoop::new(RunConfig::with_budget(BUDGET).batch(BATCH))
        .with_journal_io(io)
        .with_durability(durability)
        .run_with(&mut agent, env, None, Some(path))
}

fn reference_run(path: &Path) -> RunResult {
    run_with_io(path, real_io(), Durability::None).expect("fault-free reference run")
}

/// Field-wise bit-identity (RunResult's wall-clock field can never
/// match across runs, so whole-struct equality is meaningless).
fn assert_bit_identical(got: &RunResult, want: &RunResult, context: &str) {
    assert_eq!(
        got.best_reward.to_bits(),
        want.best_reward.to_bits(),
        "{context}: best_reward diverged"
    );
    assert_eq!(got.best_action, want.best_action, "{context}: best_action");
    assert_eq!(
        got.best_observation, want.best_observation,
        "{context}: best_observation"
    );
    assert_eq!(
        got.samples_used, want.samples_used,
        "{context}: samples_used"
    );
    assert_eq!(
        got.reward_history
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        want.reward_history
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        "{context}: reward_history diverged"
    );
}

// ---------------------------------------------------------------------------
// Tentpole: seeded fault-schedule sweep
// ---------------------------------------------------------------------------

/// 64 deterministic fault schedules over the full store-I/O surface
/// (failed writes, torn writes, failed renames, failed fsyncs). Each
/// seed retries with a fresh agent until the run survives; every
/// surviving run must be bit-identical to the fault-free reference.
#[test]
fn injected_fault_schedules_never_change_surviving_results() {
    let dir = scratch("fault-sweep");
    let reference = reference_run(&dir.join("reference.jsonl"));

    let mut fired_total = 0u64;
    let mut retried_seeds = 0u32;
    for seed in 0..64u64 {
        let journal = dir.join(format!("seed-{seed}.jsonl"));
        let plan = IoFaultPlan::new(seed)
            .write_fail(0.05)
            .short_write(0.05)
            .rename_fail(0.05)
            .sync_fail(0.05);
        let faulty = FaultyIo::new(real_io(), plan);
        let io: Arc<dyn StoreIo> = Arc::new(faulty.clone());

        let mut survived = None;
        let mut attempts = 0u32;
        for _ in 0..64 {
            attempts += 1;
            match run_with_io(&journal, Arc::clone(&io), Durability::Batch) {
                Ok(result) => {
                    survived = Some(result);
                    break;
                }
                // An injected fault aborted the run mid-journal; the
                // next attempt resumes from whatever prefix survived.
                Err(_) => continue,
            }
        }
        let result = survived.unwrap_or_else(|| panic!("seed {seed} never survived 64 attempts"));
        assert_bit_identical(&result, &reference, &format!("fault seed {seed}"));
        fired_total += faulty.stats().total();
        if attempts > 1 {
            retried_seeds += 1;
        }
    }
    assert!(
        fired_total > 0,
        "the sweep must actually inject faults, not vacuously pass"
    );
    assert!(
        retried_seeds > 0,
        "at least some schedules must abort a run and exercise resume"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Journal corruption: exhaustive flip / truncate sweeps (satellite d)
// ---------------------------------------------------------------------------

fn step(index: usize, reward: f64) -> JournalStep {
    let mut info = BTreeMap::new();
    info.insert("power_w".to_owned(), reward * 2.0);
    JournalStep {
        index,
        reward,
        observation: vec![reward, -reward, 0.5],
        done: true,
        feasible: true,
        info,
        retries: 0,
        faults: 0,
        degraded: false,
    }
}

fn pristine_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Header(JournalHeader {
            version: JOURNAL_VERSION,
            env: "dram/stream".to_owned(),
            agent: "rw".to_owned(),
            budget: 8,
            batch: 2,
        }),
        JournalRecord::Batch(vec![vec![0, 1, 2], vec![3, 4, 5]]),
        JournalRecord::Step(step(0, 0.5)),
        JournalRecord::Step(step(1, -0.25)),
        JournalRecord::Batch(vec![vec![6, 7, 8], vec![1, 2, 3]]),
        JournalRecord::Step(step(0, 1.5)),
        JournalRecord::Step(step(1, 0.125)),
    ]
}

fn write_pristine(path: &Path) -> (Vec<JournalRecord>, Vec<u8>) {
    let records = pristine_records();
    {
        let mut journal = RunJournal::open(path).unwrap();
        for record in &records {
            journal.append(record).unwrap();
        }
    }
    let bytes = fs::read(path).unwrap();
    (records, bytes)
}

/// Recovered records must be a prefix of the pristine records — the
/// "never silently diverges" half of the corruption contract.
fn assert_is_prefix(recovered: &[JournalRecord], pristine: &[JournalRecord], context: &str) {
    assert!(
        recovered.len() <= pristine.len() && recovered == &pristine[..recovered.len()],
        "{context}: recovered records diverge from the pristine prefix\n\
         recovered: {recovered:?}"
    );
}

/// Flip a byte at *every* offset of a journal (several masks per
/// offset). Every flip must yield either a typed open error or a
/// recovered prefix of the pristine records; a flip landing inside a
/// record payload must additionally be *detected* (a strict prefix),
/// since per-line CRC32 catches any single-byte change.
#[test]
fn every_single_byte_flip_is_detected_or_isolated() {
    let dir = scratch("flip-sweep");
    let base = dir.join("pristine.jsonl");
    let (records, bytes) = write_pristine(&base);

    // Byte ranges of each line's payload (after the `<8-hex>|` frame
    // prefix, before the newline): flips here must always be caught.
    let mut payload = vec![false; bytes.len()];
    let mut start = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let body = line.strip_suffix(b"\n").unwrap_or(line);
        for slot in payload.iter_mut().take(start + body.len()).skip(start + 9) {
            *slot = true;
        }
        start += line.len();
    }

    let mut detected = 0u64;
    let mut cases = 0u64;
    for offset in 0..bytes.len() {
        for mask in [0x01u8, 0x20, 0x80] {
            cases += 1;
            let victim = dir.join(format!("flip-{offset}-{mask}.jsonl"));
            let mut copy = bytes.clone();
            copy[offset] ^= mask;
            fs::write(&victim, &copy).unwrap();
            let context = format!("flip offset {offset} mask {mask:#04x}");
            match RunJournal::open(&victim) {
                Ok(journal) => {
                    assert_is_prefix(journal.records(), &records, &context);
                    if journal.records().len() < records.len() {
                        detected += 1;
                        if journal.quarantined() {
                            assert!(
                                corrupt_path(&victim).exists(),
                                "{context}: quarantine file missing"
                            );
                        }
                    } else {
                        // A full-length recovery is only legitimate for
                        // flips inside the checksum frame that don't
                        // change its value (hex case bits); payload
                        // damage must never slip through.
                        assert!(
                            !payload[offset],
                            "{context}: payload corruption went undetected"
                        );
                    }
                }
                Err(_) => detected += 1, // typed refusal is always safe
            }
            let _ = fs::remove_file(&victim);
            let _ = fs::remove_file(corrupt_path(&victim));
        }
    }
    assert!(
        detected * 10 > cases * 9,
        "expected >90% of flips detected, got {detected}/{cases}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Truncate the journal at *every* byte length — the full space of
/// crash points for an append-only log. Every truncation must recover
/// exactly the complete-line prefix, and a reopen after recovery must
/// be clean (the damaged tail was physically truncated away).
#[test]
fn every_truncation_point_recovers_the_complete_prefix() {
    let dir = scratch("truncate-sweep");
    let base = dir.join("pristine.jsonl");
    let (records, bytes) = write_pristine(&base);

    // Complete-line count at each byte offset.
    let mut line_ends = Vec::new();
    let mut offset = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        offset += line.len();
        if line.ends_with(b"\n") {
            line_ends.push(offset);
        }
    }

    for cut in 0..=bytes.len() {
        let victim = dir.join(format!("cut-{cut}.jsonl"));
        fs::write(&victim, &bytes[..cut]).unwrap();
        let expect = line_ends.iter().filter(|&&end| end <= cut).count();
        let context = format!("truncated to {cut} of {} bytes", bytes.len());
        {
            let journal = RunJournal::open(&victim).unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_eq!(journal.records(), &records[..expect], "{context}");
            assert!(
                !journal.quarantined(),
                "{context}: tail damage is not quarantine"
            );
        }
        // Recovery truncated the torn tail in place: a second open sees
        // a clean log with the identical prefix.
        let reopened = RunJournal::open(&victim).unwrap();
        assert_eq!(reopened.records(), &records[..expect], "{context} (reopen)");
        assert!(
            !reopened.recovered_partial_tail(),
            "{context}: reopen must be clean"
        );
        let _ = fs::remove_file(&victim);
    }
    let _ = fs::remove_dir_all(&dir);
}

static PROP_CASE: AtomicU64 = AtomicU64::new(0);

proptest::proptest! {
    /// Randomized composition of the two sweeps above: flip one byte
    /// AND truncate, in either order. Replay must still yield a prefix
    /// of the pristine records or refuse with a typed error.
    #[test]
    fn prop_flipped_and_truncated_journals_never_silently_diverge(
        offset in 0usize..4096,
        mask in 1u8..255,
        cut in proptest::option::of(0usize..4096),
    ) {
        let case = PROP_CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "archgym-chaos-prop-{}-{case}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let victim = dir.join("journal.jsonl");
        let (records, bytes) = write_pristine(&victim);

        let mut copy = bytes.clone();
        let victim_offset = offset % copy.len();
        copy[victim_offset] ^= mask;
        if let Some(cut) = cut {
            copy.truncate(cut % (bytes.len() + 1));
        }
        fs::write(&victim, &copy).unwrap();

        if let Ok(journal) = RunJournal::open(&victim) {
            let recovered = journal.records();
            proptest::prop_assert!(
                recovered.len() <= records.len()
                    && recovered == &records[..recovered.len()],
                "recovered records diverge from the pristine prefix: {recovered:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// SIGKILL-style cuts: resume is bit-identical
// ---------------------------------------------------------------------------

/// Kill the run at four different journal points — three line-aligned
/// (a crash between appends) and one mid-line (a crash mid-write) —
/// and resume each. All four must complete bit-identically to the
/// uninterrupted reference.
#[test]
fn sigkill_cuts_resume_bit_identically() {
    let dir = scratch("sigkill");
    let base = dir.join("reference.jsonl");
    let reference = reference_run(&base);
    let bytes = fs::read(&base).unwrap();

    let mut line_ends = Vec::new();
    let mut offset = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        offset += line.len();
        line_ends.push(offset);
    }
    assert!(line_ends.len() >= 8, "reference journal too small to cut");

    let quarter = line_ends[line_ends.len() / 4];
    let half = line_ends[line_ends.len() / 2];
    let three_quarters = line_ends[3 * line_ends.len() / 4];
    let torn = half + (line_ends[line_ends.len() / 2 + 1] - half) / 2; // mid-line
    for (i, cut) in [quarter, half, three_quarters, torn]
        .into_iter()
        .enumerate()
    {
        let victim = dir.join(format!("kill-{i}.jsonl"));
        fs::write(&victim, &bytes[..cut]).unwrap();
        let resumed = run_with_io(&victim, real_io(), Durability::Batch)
            .unwrap_or_else(|e| panic!("kill point {i} (cut {cut}): {e}"));
        assert_bit_identical(&resumed, &reference, &format!("kill point {i} (cut {cut})"));
    }
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Store-level faults: records survive retries, loads verify clean
// ---------------------------------------------------------------------------

fn retry(context: &str, mut op: impl FnMut() -> archgym_core::error::Result<()>) {
    for _ in 0..256 {
        if op().is_ok() {
            return;
        }
    }
    panic!("{context}: never succeeded in 256 attempts");
}

/// Drive the job store through seeded fault schedules: every record
/// write retries until it lands, then a clean reopen must load every
/// job and outcome intact — no quarantines, no torn records, and the
/// ID counter correct.
#[test]
fn job_store_records_survive_fault_schedules() {
    let root = scratch("store-faults");
    let mut fired_total = 0u64;
    for seed in 0..16u64 {
        let dir = root.join(format!("seed-{seed}"));
        let plan = IoFaultPlan::new(seed)
            .write_fail(0.1)
            .short_write(0.1)
            .rename_fail(0.1)
            .sync_fail(0.1);
        let faulty = FaultyIo::new(real_io(), plan);
        let store = JobStore::open_with(&dir, Arc::new(faulty.clone()), Durability::Batch).unwrap();

        let mut expected = Vec::new();
        for id in 0..4u64 {
            let job = PersistedJob {
                id: JobId(id),
                tenant: format!("tenant-{}", id % 2),
                name: None,
                spec: JobSpec::search("dram/stream", "rw", 100, id),
            };
            retry(&format!("seed {seed} submit {id}"), || {
                store.record_submitted(&job)
            });
            let outcome = (id % 2 == 0).then_some(JobOutcome {
                state: JobState::Done,
                best_reward: Some(0.5 + id as f64),
                samples: 100,
                error: None,
            });
            if let Some(outcome) = &outcome {
                retry(&format!("seed {seed} outcome {id}"), || {
                    store.record_outcome(job.id, outcome)
                });
            }
            expected.push((job, outcome));
        }
        fired_total += faulty.stats().total();

        // A clean reopen (real I/O, like a daemon restart after the
        // faulty disk is replaced) must verify every record.
        let clean = JobStore::open(&dir).unwrap();
        assert_eq!(clean.load().unwrap(), expected, "seed {seed}");
        assert_eq!(clean.next_id().unwrap(), 4, "seed {seed}");
        let corrupt: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".corrupt"))
            .collect();
        assert!(corrupt.is_empty(), "seed {seed}: {corrupt:?}");
    }
    assert!(fired_total > 0, "store sweep must actually inject faults");
    let _ = fs::remove_dir_all(&root);
}
