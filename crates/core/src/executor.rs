//! A small deterministic thread-pool executor for embarrassingly
//! parallel run fan-out.
//!
//! The paper's lottery studies execute tens of thousands of independent
//! `(hyperparameter assignment, seed)` runs; this module spreads such run
//! units across worker threads while keeping the *results* in exactly the
//! input order, so a parallel sweep is bit-identical to a serial one.
//!
//! The design is deliberately dependency-free. Each [`Executor`] owns a
//! persistent set of `min(jobs, available_parallelism) − 1` *parked*
//! worker threads, spawned on its first parallel fan-out and joined when
//! it drops. A fan-out wakes the parked workers and runs lane 0 on the
//! caller's own thread; every lane pulls the next unclaimed *chunk* of
//! indices off a shared atomic cursor (self-scheduling: chunks amortize
//! coordination on fine-grained items while staying small enough to
//! load-balance uneven ones) and stashes `(index, result)` pairs
//! locally. Once every lane has finished, the results are stitched back
//! into input order. Between fan-outs the workers sleep on a condition
//! variable, so a search that fans out one small batch after another —
//! an [`EnvPool`](crate::pool::EnvPool) evaluating 16 designs at a time —
//! pays a wake-up per batch instead of a thread spawn and join.
//!
//! A fan-out that finds the worker set busy — another thread's fan-out
//! on the same executor, or a work item calling back into its own
//! executor — runs all of its lanes on the caller's thread instead of
//! waiting, so contention and re-entry never deadlock.
//!
//! Work items are *panic-isolated*: every invocation runs under
//! [`std::panic::catch_unwind`], so a panicking item surfaces as an
//! error result in its own slot ([`Executor::map_with_catch`]) while
//! the surviving lanes keep draining the cursor, and the parked workers
//! stay usable for the next fan-out. The infallible
//! [`Executor::map`]/[`Executor::map_with`] wrappers re-raise the first
//! caught panic after the full fan-out completes.
//!
//! ```
//! use archgym_core::executor::Executor;
//!
//! let squares = Executor::new(4).map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use crate::telemetry::{Phase, Recorder};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Render a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Lock a mutex, ignoring poison: nothing in this module panics while
/// holding one of its locks, and a lane's results stay valid regardless.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The body of one fan-out: called once per lane index.
type Lane<'a> = dyn Fn(usize) + Sync + 'a;

/// How long a thread polls before it sleeps on a condition variable.
/// Long enough to cover the usual wait — a peer lane finishing its last
/// item, an agent proposing the next batch — and short enough that an
/// idle worker set costs nothing measurable.
const SPIN: Duration = Duration::from_micros(50);

/// Poll `ready` for up to [`SPIN`]; whether it became true.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < SPIN {
        for _ in 0..32 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
    }
    ready()
}

/// Wait on `condvar`, ignoring poison (see [`lock`]).
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// The fan-out in flight, as the parked workers see it.
#[derive(Default)]
struct Round {
    /// The round's lane body; `None` between rounds.
    job: Option<&'static Lane<'static>>,
    /// Lanes `1..lanes` run on parked workers (lane `i` on worker `i`).
    lanes: usize,
    /// The first panic that escaped a parked lane this round.
    panic: Option<Box<dyn Any + Send>>,
    /// Set once, when the owning executor drops.
    shutdown: bool,
}

struct Shared {
    round: Mutex<Round>,
    /// Bumped (under the round lock) by every fan-out and by shutdown;
    /// a worker runs each round at most once and polls this while idle.
    /// The bump is `Release` and the poll `Acquire`, so a worker that
    /// sees a new epoch also sees `running` set for it.
    epoch: AtomicU64,
    /// Parked lanes of the current round that have not finished yet.
    /// Workers decrement it `AcqRel` and the caller polls it `Acquire`,
    /// which publishes each lane's results to the caller.
    running: AtomicUsize,
    /// Signals a new round (or shutdown) to sleeping workers.
    wake: Condvar,
    /// Signals a sleeping caller that the last parked lane finished.
    done: Condvar,
}

/// An executor's parked worker threads.
struct Workers {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Held for the length of one fan-out.
    gate: Mutex<()>,
}

impl Workers {
    fn spawn(count: usize) -> Workers {
        let shared = Arc::new(Shared {
            round: Mutex::new(Round::default()),
            epoch: AtomicU64::new(0),
            running: AtomicUsize::new(0),
            wake: Condvar::new(),
            done: Condvar::new(),
        });
        let threads = (1..=count)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("archgym-exec-{lane}"))
                    .spawn(move || park(&shared, lane))
                    .expect("failed to spawn an executor worker")
            })
            .collect();
        Workers {
            shared,
            threads,
            gate: Mutex::new(()),
        }
    }

    /// Run `lane(0..lanes)` with lane 0 on this thread and the rest on
    /// parked workers, returning once every lane has finished. A panic
    /// escaping any lane is re-raised after that.
    fn run(&self, lanes: usize, lane: &Lane<'_>) {
        assert!(lanes <= self.threads.len() + 1, "more lanes than workers");
        let Ok(gate) = self.gate.try_lock() else {
            // Busy: another thread's fan-out, or a work item re-entering
            // this executor. Waiting could deadlock; run every lane here.
            (0..lanes).for_each(lane);
            return;
        };
        // SAFETY: the parked workers see `lane` only through `Round::job`.
        // A worker calls it only for the round it was published in and
        // then decrements `running`, and it never touches it again. This
        // function does not return or unwind until `running` is zero:
        // lane 0 runs under `catch_unwind`, the wait below cannot panic,
        // and `job` is cleared before the gate is released. So every use
        // of the lifetime-erased reference happens while the caller's
        // borrow is still live.
        let job = unsafe { std::mem::transmute::<&Lane<'_>, &'static Lane<'static>>(lane) };
        let shared = &*self.shared;
        {
            let mut round = lock(&shared.round);
            round.job = Some(job);
            round.lanes = lanes;
            shared.running.store(lanes - 1, Ordering::Relaxed);
            shared.epoch.fetch_add(1, Ordering::Release);
        }
        shared.wake.notify_all();
        let mine = catch_unwind(AssertUnwindSafe(|| lane(0)));
        let finished = || shared.running.load(Ordering::Acquire) == 0;
        if !spin_until(finished) {
            let mut round = lock(&shared.round);
            while !finished() {
                round = wait(&shared.done, round);
            }
        }
        let theirs = {
            let mut round = lock(&shared.round);
            round.job = None;
            round.panic.take()
        };
        drop(gate);
        if let Some(payload) = mine.err().or(theirs) {
            resume_unwind(payload);
        }
    }
}

/// A parked worker's loop: wait for a round that includes this lane,
/// run it, report back, repeat until shutdown.
fn park(shared: &Shared, lane: usize) {
    let mut seen = 0;
    loop {
        let fresh = || shared.epoch.load(Ordering::Acquire) != seen;
        spin_until(fresh);
        let mut round = lock(&shared.round);
        while !fresh() {
            round = wait(&shared.wake, round);
        }
        if round.shutdown {
            return;
        }
        seen = shared.epoch.load(Ordering::Relaxed);
        let (Some(job), true) = (round.job, lane < round.lanes) else {
            continue;
        };
        drop(round);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(lane))) {
            lock(&shared.round).panic.get_or_insert(payload);
        }
        if shared.running.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Pass through the lock so the signal cannot fall between a
            // sleeping caller's check and its wait.
            drop(lock(&shared.round));
            shared.done.notify_one();
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        {
            let mut round = lock(&self.shared.round);
            round.shutdown = true;
            self.shared.epoch.fetch_add(1, Ordering::Release);
        }
        self.shared.wake.notify_all();
        for thread in self.threads.drain(..) {
            // Workers catch every lane panic, so a join error cannot
            // carry anything worth re-raising from a destructor.
            let _ = thread.join();
        }
    }
}

/// Fans independent work items out across worker threads, returning
/// results in input order.
///
/// The worker threads are spawned on the first parallel fan-out and
/// joined when the executor drops; a clone starts without workers and
/// spawns its own on first use.
pub struct Executor {
    jobs: usize,
    recorder: Recorder,
    workers: OnceLock<Workers>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("jobs", &self.jobs)
            .field("recorder", &self.recorder)
            .field("parked", &self.workers.get().map_or(0, |w| w.threads.len()))
            .finish()
    }
}

impl Clone for Executor {
    fn clone(&self) -> Self {
        Executor {
            jobs: self.jobs,
            recorder: self.recorder.clone(),
            workers: OnceLock::new(),
        }
    }
}

/// Equality is configuration equality (worker count); the telemetry
/// handle and the worker threads are plumbing, not configuration.
impl PartialEq for Executor {
    fn eq(&self, other: &Self) -> bool {
        self.jobs == other.jobs
    }
}

impl Eq for Executor {}

impl Executor {
    /// An executor running on `jobs` worker threads. `jobs == 0` selects
    /// [`Executor::available_parallelism`]; `jobs == 1` runs serially on
    /// the caller's thread.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            Self::available_parallelism()
        } else {
            jobs
        };
        Executor {
            jobs,
            recorder: Recorder::default(),
            workers: OnceLock::new(),
        }
    }

    /// Install a telemetry recorder: every fan-out
    /// ([`Executor::map_with_catch`] and the wrappers built on it)
    /// records one [`Phase::ExecutorBatch`] span covering worker
    /// scheduling plus the work itself.
    pub fn set_telemetry(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
    }

    /// The number of hardware threads available, falling back to 1 when
    /// the platform cannot say. Queried once per process: the standard
    /// library rereads cgroup limits on every call, which costs more
    /// than waking a parked worker.
    pub fn available_parallelism() -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// How many indices a worker claims per cursor bump: roughly four
    /// claims per worker, so coordination is amortized on fine-grained
    /// items without starving stragglers on uneven ones.
    fn chunk(items: usize, workers: usize) -> usize {
        (items / (workers * 4)).max(1)
    }

    /// Apply `f` to every item, in parallel across the executor's
    /// workers, and return the results **in input order**.
    ///
    /// `f` must be safe to call concurrently from several threads
    /// (`Sync`); each invocation receives a shared reference to its item.
    /// Panics in `f` propagate to the caller once all workers stop.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let mut units = vec![(); self.jobs];
        self.map_with_catch(&mut units, items, |_, item| f(item))
            .into_iter()
            .map(|result| result.unwrap_or_else(|msg| panic!("executor worker panicked: {msg}")))
            .collect()
    }

    /// Like [`Executor::map`], but each worker thread owns one mutable
    /// state from `states` (at most one thread per state, never shared) —
    /// the fan-out primitive behind
    /// [`EnvPool`](crate::pool::EnvPool)'s per-worker environment
    /// replicas. Results come back **in input order**.
    ///
    /// Runs on `min(jobs, states.len(), items.len())` workers; with one
    /// worker (or one state) everything runs serially on the caller's
    /// thread against `states[0]`.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty while `items` is not, and propagates
    /// worker panics.
    pub fn map_with<W, T, R, F>(&self, states: &mut [W], items: &[T], f: F) -> Vec<R>
    where
        W: Send,
        T: Sync,
        R: Send,
        F: Fn(&mut W, &T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        assert!(!states.is_empty(), "map_with needs at least one state");
        self.map_with_catch(states, items, f)
            .into_iter()
            .map(|result| result.unwrap_or_else(|msg| panic!("executor worker panicked: {msg}")))
            .collect()
    }

    /// The panic-isolating primitive [`Executor::map`] and
    /// [`Executor::map_with`] are built on: apply `f` to every item as
    /// `map_with` does, but run each invocation under
    /// [`catch_unwind`], so a panicking work item becomes
    /// `Err(panic message)` in its slot while **every other item —
    /// including later items claimed by the same worker — still runs**.
    /// Results come back in input order.
    ///
    /// This is what keeps one exploding design-point evaluation from
    /// sinking a whole parallel batch: the search runtime maps the `Err`
    /// to [`ArchGymError::EvalFailed`](crate::error::ArchGymError) and
    /// lets the retry/degrade machinery handle it like any other fault.
    ///
    /// The worker's state is handed back to `f` for subsequent items
    /// even after a catch; states must therefore tolerate an unwound
    /// invocation (environment replicas do — `reset` restores them).
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty while `items` is not.
    pub fn map_with_catch<W, T, R, F>(
        &self,
        states: &mut [W],
        items: &[T],
        f: F,
    ) -> Vec<std::result::Result<R, String>>
    where
        W: Send,
        T: Sync,
        R: Send,
        F: Fn(&mut W, &T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        assert!(
            !states.is_empty(),
            "map_with_catch needs at least one state"
        );
        let _span = self.recorder.span(Phase::ExecutorBatch);
        let run_one = |state: &mut W, item: &T| -> std::result::Result<R, String> {
            catch_unwind(AssertUnwindSafe(|| f(state, item))).map_err(panic_message)
        };

        // Never run more lanes than the machine has hardware threads:
        // oversubscribed lanes only contend (results are stitched back by
        // index, so the answer is bit-identical at any width). On a
        // single-core host this collapses a pooled run to the serial
        // path, which is exactly as fast as an unpooled one.
        let workers = self
            .jobs
            .min(states.len())
            .min(items.len())
            .min(Self::available_parallelism());
        if workers <= 1 {
            let state = &mut states[0];
            return items.iter().map(|item| run_one(state, item)).collect();
        }

        let chunk = Self::chunk(items.len(), workers);
        // Pre-size each lane's scratch for its fair share (plus one chunk
        // of load-balancing slack) so result staging never reallocates
        // mid-drain.
        let scratch = items.len() / workers + chunk;
        let cursor = AtomicUsize::new(0);
        type Tagged<R> = Vec<(usize, std::result::Result<R, String>)>;
        let lanes: Vec<Mutex<(&mut W, Tagged<R>)>> = states[..workers]
            .iter_mut()
            .map(|state| Mutex::new((state, Vec::new())))
            .collect();
        let drain = |lane: usize| {
            let mut guard = lock(&lanes[lane]);
            let (state, local) = &mut *guard;
            local.reserve(scratch);
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= items.len() {
                    break;
                }
                let end = (start + chunk).min(items.len());
                for (index, item) in items.iter().enumerate().take(end).skip(start) {
                    local.push((index, run_one(state, item)));
                }
            }
        };
        self.workers
            .get_or_init(|| Workers::spawn(self.jobs.min(Self::available_parallelism()) - 1))
            .run(workers, &drain);

        // Stitch results back into input order. Every index appears
        // exactly once, so a by-index sort restores determinism.
        let mut tagged: Tagged<R> = Vec::with_capacity(items.len());
        for lane in lanes {
            let (_, local) = lane.into_inner().unwrap_or_else(PoisonError::into_inner);
            tagged.extend(local);
        }
        tagged.sort_unstable_by_key(|(index, _)| *index);
        tagged.into_iter().map(|(_, result)| result).collect()
    }
}

impl Default for Executor {
    /// An executor using every available hardware thread.
    fn default() -> Self {
        Executor::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let executor = Executor::new(0);
        assert_eq!(executor.jobs(), Executor::available_parallelism());
        assert!(executor.jobs() >= 1);
    }

    #[test]
    fn map_preserves_input_order_at_any_width() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 4, 16] {
            let got = Executor::new(jobs).map(&items, |&x| x * 3 + 1);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn map_handles_empty_and_single_item_inputs() {
        let executor = Executor::new(8);
        assert_eq!(executor.map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(executor.map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn map_visits_every_item_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<usize> = (0..100).collect();
        let results = Executor::new(4).map(&items, |&i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(results, items);
    }

    #[test]
    fn map_works_with_fallible_results() {
        let items = [1i64, -2, 3];
        let results =
            Executor::new(2).map(&items, |&x| if x < 0 { Err("negative") } else { Ok(x * 2) });
        assert_eq!(results, vec![Ok(2), Err("negative"), Ok(6)]);
    }

    #[test]
    fn chunk_sizes_amortize_without_starving() {
        assert_eq!(Executor::chunk(8, 8), 1); // small sweeps: per-item
        assert_eq!(Executor::chunk(1000, 4), 62); // big inputs: coarse
        assert_eq!(Executor::chunk(1, 16), 1);
    }

    #[test]
    fn map_with_preserves_order_and_confines_states_to_workers() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 7).collect();
        for jobs in [1, 2, 4, 16] {
            // Each worker state counts how many items it handled; the
            // counts must sum to the item count (every item exactly once).
            let mut states = vec![0u64; 4];
            let got = Executor::new(jobs).map_with(&mut states, &items, |count, &x| {
                *count += 1;
                x * 7
            });
            assert_eq!(got, expected, "jobs={jobs}");
            assert_eq!(states.iter().sum::<u64>(), 100, "jobs={jobs}");
        }
    }

    #[test]
    fn map_with_handles_empty_input_without_states() {
        let got = Executor::new(4).map_with(&mut [] as &mut [u8], &[] as &[u64], |_, &x| x);
        assert_eq!(got, Vec::<u64>::new());
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn map_with_rejects_missing_states() {
        let _ = Executor::new(4).map_with(&mut [] as &mut [u8], &[1u64], |_, &x| x);
    }

    #[test]
    #[should_panic(expected = "executor worker panicked")]
    fn worker_panics_propagate() {
        let items = [1u64, 2, 3, 4];
        let _ = Executor::new(2).map(&items, |&x| {
            assert!(x < 3, "boom");
            x
        });
    }

    #[test]
    fn catch_isolates_a_panicking_item_from_the_rest() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 4] {
            let mut states = vec![(); 4];
            let results = Executor::new(jobs).map_with_catch(&mut states, &items, |_, &x| {
                if x == 13 {
                    panic!("boom on {x}");
                }
                x * 2
            });
            assert_eq!(results.len(), 100, "jobs={jobs}");
            for (i, result) in results.iter().enumerate() {
                if i == 13 {
                    let msg = result.as_ref().unwrap_err();
                    assert!(msg.contains("boom on 13"), "jobs={jobs}: {msg}");
                } else {
                    assert_eq!(result.as_ref().unwrap(), &(i as u64 * 2), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn workers_keep_draining_after_a_caught_panic() {
        // Panic on several items spread across chunks; every remaining
        // item must still be visited exactly once (no worker dies, no
        // chunk is abandoned).
        let items: Vec<u64> = (0..64).collect();
        let visited = AtomicU64::new(0);
        let mut states = vec![0u64; 4];
        let results = Executor::new(4).map_with_catch(&mut states, &items, |count, &x| {
            visited.fetch_add(1, Ordering::Relaxed);
            *count += 1;
            assert!(x % 10 != 7, "unlucky item");
            x
        });
        assert_eq!(visited.load(Ordering::Relaxed), 64);
        assert_eq!(states.iter().sum::<u64>(), 64);
        let failures = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(failures, 6); // 7, 17, 27, 37, 47, 57
        assert!(results[7].as_ref().unwrap_err().contains("unlucky item"));
    }

    /// Arrive, then wait until `n` callers have arrived. Gives up after
    /// 10 s, so a broken executor fails an assertion instead of hanging.
    fn rendezvous(arrived: &AtomicUsize, n: usize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while arrived.load(Ordering::SeqCst) < n && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    /// Run a two-item fan-out whose items wait for each other, so both
    /// lanes must take part, and return what `probe` saw on each.
    fn both_lanes<P: Send>(executor: &Executor, probe: impl Fn() -> P + Sync) -> Vec<P> {
        let arrived = AtomicUsize::new(0);
        executor.map(&[0u8, 1], |_| {
            rendezvous(&arrived, 2);
            probe()
        })
    }

    /// Parked workers need a second core: on one core every fan-out is
    /// serial and the worker-set tests have nothing to observe.
    fn single_core() -> bool {
        Executor::available_parallelism() < 2
    }

    #[test]
    fn parked_worker_persists_across_fan_outs() {
        if single_core() {
            return;
        }
        let executor = Executor::new(2);
        let me = std::thread::current().id();
        let mut workers = std::collections::HashSet::new();
        for round in 0..100 {
            let ids = both_lanes(&executor, || std::thread::current().id());
            assert!(ids.contains(&me), "round {round}: the caller runs lane 0");
            workers.extend(ids.into_iter().filter(|&id| id != me));
        }
        assert_eq!(workers.len(), 1, "one parked worker served all 100 rounds");
        // A clone spawns its own worker rather than sharing the set.
        let clone = executor.clone();
        let theirs: Vec<_> = both_lanes(&clone, || std::thread::current().id())
            .into_iter()
            .filter(|&id| id != me)
            .collect();
        assert_eq!(theirs.len(), 1);
        assert!(!workers.contains(&theirs[0]));
    }

    /// The kernel id of the calling thread.
    #[cfg(target_os = "linux")]
    fn os_thread_id() -> std::ffi::OsString {
        let link = std::fs::read_link("/proc/thread-self").expect("procfs");
        link.file_name().expect("task id").to_owned()
    }

    /// Whether the kernel thread `tid` of this process still exists,
    /// allowing the kernel a moment to reap a just-joined thread.
    #[cfg(target_os = "linux")]
    fn thread_outlives(tid: &std::ffi::OsStr) -> bool {
        let task = std::path::Path::new("/proc/self/task").join(tid);
        let deadline = Instant::now() + Duration::from_secs(5);
        while task.exists() {
            if Instant::now() >= deadline {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn dropping_the_executor_joins_its_workers() {
        if single_core() {
            return;
        }
        let me = os_thread_id();
        let executor = Executor::new(2);
        let workers: Vec<_> = both_lanes(&executor, os_thread_id)
            .into_iter()
            .filter(|tid| *tid != me)
            .collect();
        assert_eq!(workers.len(), 1);
        let task = std::path::Path::new("/proc/self/task").join(&workers[0]);
        assert!(task.exists(), "the worker stays parked between fan-outs");
        drop(executor);
        assert!(!thread_outlives(&workers[0]), "drop joined the worker");
    }

    #[test]
    fn a_panic_in_a_parked_lane_leaves_the_set_usable() {
        if single_core() {
            return;
        }
        let executor = Executor::new(2);
        let me = std::thread::current().id();
        for round in 0..3 {
            let arrived = AtomicUsize::new(0);
            let mut states = [(), ()];
            let results = executor.map_with_catch(&mut states, &[0u8, 1], |_, _| {
                rendezvous(&arrived, 2);
                assert_eq!(std::thread::current().id(), me, "parked lane {round}");
            });
            let failures: Vec<_> = results.iter().filter_map(|r| r.as_ref().err()).collect();
            assert_eq!(
                failures.len(),
                1,
                "round {round}: exactly the parked item failed"
            );
            assert!(failures[0].contains("parked lane"), "{}", failures[0]);
        }
        let ids = both_lanes(&executor, || std::thread::current().id());
        assert_eq!(ids.iter().filter(|&&id| id != me).count(), 1);
    }

    #[test]
    fn re_entrant_fan_out_completes() {
        let executor = Executor::new(2);
        let items: Vec<u64> = (1..=8).collect();
        let inner: Vec<u64> = (1..=5).collect();
        let sums = executor.map(&items, |&x| {
            executor.map(&inner, |&y| x * y).iter().sum::<u64>()
        });
        assert_eq!(sums, items.iter().map(|x| x * 15).collect::<Vec<_>>());
    }

    #[test]
    fn a_contended_fan_out_runs_on_its_callers_thread() {
        // Thread A's fan-out holds the worker set until thread B's
        // fan-out on the same executor has finished, so B must run all of
        // its lanes itself rather than wait for the set.
        let executor = Executor::new(2);
        let (started, b_waits) = std::sync::mpsc::channel();
        let (finished, a_waits) = std::sync::mpsc::channel();
        let a_waits = Mutex::new(a_waits);
        std::thread::scope(|scope| {
            let executor = &executor;
            scope.spawn(move || {
                b_waits.recv().expect("A started");
                let me = std::thread::current().id();
                let ids = executor.map(&[0u8, 1, 2, 3], |_| std::thread::current().id());
                finished
                    .send(ids.iter().all(|&id| id == me))
                    .expect("A waits");
            });
            let got = executor.map(&[0u8, 1], |&i| {
                (i == 0).then(|| {
                    started.send(()).expect("B waits");
                    lock(&a_waits).recv_timeout(Duration::from_secs(10)).ok()
                })
            });
            assert_eq!(got[0], Some(Some(true)), "B finished on its own thread");
        });
    }
}
