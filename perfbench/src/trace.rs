//! In-memory span recording for the traced run.
//!
//! The benchmark's wrappers (see `wrap.rs`) open a span around each
//! call into a layer. A span records its name, start, end, parent span
//! and unit. Spans stay in memory until the run ends; then their self
//! times are aggregated by name and the raw spans are written out.
//!
//! Parenting: a span's parent is the innermost span open on the same
//! thread. A span opened on a thread with no open span (a pool worker,
//! a race lane) is parented to the open batch span if there is one,
//! else to the shared unit span.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the first span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `dram.step`.
    pub name: &'static str,
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id, or 0 for a top-level span.
    pub parent: u64,
    /// The unit (search, race or job) the span belongs to, or
    /// `u64::MAX` when it cannot be attributed.
    pub unit: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Marks a span that belongs to no unit.
pub const NO_UNIT: u64 = u64::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SHARED_UNIT_SPAN: AtomicU64 = AtomicU64::new(0);
static SHARED_UNIT: AtomicU64 = AtomicU64::new(NO_UNIT);
static BATCH_SPAN: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static UNIT: Cell<u64> = const { Cell::new(NO_UNIT) };
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turn recording on or off. Off, every span call is one atomic load.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[derive(Debug, Clone, Copy)]
enum Scope {
    Plain,
    /// A unit span other threads attach to (one unit in flight).
    SharedUnit,
    /// A unit span private to its thread (concurrent clients).
    ThreadUnit,
    /// A batch span that pool workers attach to.
    Batch,
}

/// An open span; recorded when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    record: SpanRecord,
    prev_current: u64,
    scope: Scope,
}

fn open(name: &'static str, unit: Option<u64>, scope: Scope) -> Option<Span> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let current = CURRENT.with(Cell::get);
    let parent = if current != 0 {
        current
    } else {
        match BATCH_SPAN.load(Ordering::SeqCst) {
            0 => SHARED_UNIT_SPAN.load(Ordering::SeqCst),
            batch => batch,
        }
    };
    let unit = unit.unwrap_or_else(|| match UNIT.with(Cell::get) {
        NO_UNIT => SHARED_UNIT.load(Ordering::SeqCst),
        unit => unit,
    });
    match scope {
        Scope::SharedUnit => {
            SHARED_UNIT.store(unit, Ordering::SeqCst);
            SHARED_UNIT_SPAN.store(id, Ordering::SeqCst);
        }
        Scope::ThreadUnit => UNIT.with(|u| u.set(unit)),
        Scope::Batch => BATCH_SPAN.store(id, Ordering::SeqCst),
        Scope::Plain => {}
    }
    CURRENT.with(|c| c.set(id));
    Some(Span {
        record: SpanRecord {
            name,
            id,
            parent: if matches!(scope, Scope::SharedUnit | Scope::ThreadUnit) {
                0
            } else {
                parent
            },
            unit,
            start_ns: now_ns(),
            end_ns: 0,
        },
        prev_current: current,
        scope,
    })
}

/// Open a span around one call into a layer.
pub fn span(name: &'static str) -> Option<Span> {
    open(name, None, Scope::Plain)
}

/// Open the span of unit `unit`. With `shared`, spans opened on other
/// threads that have nothing open are attributed to it (use only while
/// one unit is in flight); otherwise only this thread's spans are.
pub fn unit_span(name: &'static str, unit: u64, shared: bool) -> Option<Span> {
    let scope = if shared {
        Scope::SharedUnit
    } else {
        Scope::ThreadUnit
    };
    open(name, Some(unit), scope)
}

/// Open a batch span: spans opened by pool workers while it is open
/// are its children.
pub fn batch_span(name: &'static str) -> Option<Span> {
    open(name, None, Scope::Batch)
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record.end_ns = now_ns();
        CURRENT.with(|c| c.set(self.prev_current));
        match self.scope {
            Scope::SharedUnit => {
                SHARED_UNIT_SPAN.store(0, Ordering::SeqCst);
                SHARED_UNIT.store(NO_UNIT, Ordering::SeqCst);
            }
            Scope::ThreadUnit => UNIT.with(|u| u.set(NO_UNIT)),
            Scope::Batch => BATCH_SPAN.store(0, Ordering::SeqCst),
            Scope::Plain => {}
        }
        // Drop must not panic: a poisoned store only loses this span.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(self.record);
        }
    }
}

/// Take every recorded span, leaving the store empty.
pub fn take() -> Vec<SpanRecord> {
    match SPANS.lock() {
        Ok(mut spans) => std::mem::take(&mut *spans),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of self times (duration minus the time child spans cover),
    /// seconds.
    pub self_s: f64,
}

/// Aggregate spans by name. A span's self time is its duration minus
/// the length of the union of its children's intervals, clipped to the
/// span; concurrent children therefore count once.
pub fn totals(spans: &[SpanRecord]) -> BTreeMap<&'static str, Totals> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_s += duration as f64 * 1e-9;
        entry.self_s += duration.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Write spans as tab-separated lines: id, parent, unit, name, start,
/// end (nanoseconds).
pub fn write_tsv(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tunit\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let unit = if s.unit == NO_UNIT {
            "-".to_string()
        } else {
            s.unit.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{unit}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            id,
            parent,
            unit: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec("unit", 1, 0, 0, 100),
            // Two overlapping children on different threads: [10, 50)
            // and [30, 70) cover 60 ns together, not 80.
            rec("step", 2, 1, 10, 50),
            rec("step", 3, 1, 30, 70),
            // A child running past its parent's end is clipped.
            rec("tail", 4, 1, 90, 130),
            // A grandchild is its child's time, not the unit's.
            rec("inner", 5, 2, 20, 30),
        ];
        let t = totals(&spans);
        assert_eq!(t["unit"].count, 1);
        assert!((t["unit"].self_s - 30e-9).abs() < 1e-15);
        assert!((t["step"].total_s - 80e-9).abs() < 1e-15);
        assert!((t["step"].self_s - 70e-9).abs() < 1e-15);
        assert!((t["tail"].self_s - 40e-9).abs() < 1e-15);
        assert!((t["inner"].self_s - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn disjoint_and_nested_children_cover_exactly() {
        let mut kids = vec![(50, 60), (0, 10), (5, 8), (20, 30)];
        assert_eq!(covered_ns(&mut kids, 0, 100), 30);
        assert_eq!(covered_ns(&mut kids, 25, 55), 10);
        assert_eq!(covered_ns(&mut [], 0, 100), 0);
    }

    // The only test touching the process-wide recorder.
    #[test]
    fn recorder_parents_spans_across_threads() {
        set_enabled(true);
        let _ = take();
        {
            let _unit = unit_span("unit", 7, true);
            {
                let _batch = batch_span("batch");
                std::thread::scope(|s| {
                    s.spawn(|| drop(span("worker")));
                });
                drop(span("nested"));
            }
            std::thread::scope(|s| {
                s.spawn(|| drop(span("lane")));
            });
        }
        drop(span("orphan"));
        set_enabled(false);
        assert!(span("off").is_none());
        let spans = take();
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        let (unit, batch) = (by_name("unit"), by_name("batch"));
        assert_eq!(unit.parent, 0);
        assert_eq!(batch.parent, unit.id);
        assert_eq!(by_name("worker").parent, batch.id);
        assert_eq!(by_name("nested").parent, batch.id);
        assert_eq!(by_name("lane").parent, unit.id);
        assert!(spans
            .iter()
            .filter(|s| s.name != "orphan")
            .all(|s| s.unit == 7));
        assert_eq!(by_name("orphan").parent, 0);
        assert_eq!(by_name("orphan").unit, NO_UNIT);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
