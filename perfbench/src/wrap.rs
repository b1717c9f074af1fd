//! Wrappers that time calls into the library's public traits, and the
//! memory-backed store the daemon workload runs on.
//!
//! Each wrapper forwards every method unchanged and opens a span
//! (`trace.rs`) around the calls that do a layer's work, so a traced
//! unit computes exactly what an untraced one does.

use crate::trace;
use archgym_core::agent::Agent;
use archgym_core::env::{CloneEnvironment, Environment, Observation, StepResult};
use archgym_core::pool::{BatchEvaluator, EnvPool};
use archgym_core::screen::{ScreenPolicy, Screener};
use archgym_core::space::{Action, ParamSpace};
use archgym_core::storeio::{AppendFile, StoreIo};
use archgym_core::telemetry::Recorder;
use archgym_core::Result;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Proposals returned by every [`TracedAgent`] while tracing is on.
pub static PROPOSALS: AtomicU64 = AtomicU64::new(0);
/// Bytes appended through every [`TracedIo`] while tracing is on.
pub static APPEND_BYTES: AtomicU64 = AtomicU64::new(0);

/// The span name of a simulator step, by environment family.
fn step_span(env_spec: &str) -> &'static str {
    match env_spec.split('/').next().unwrap_or_default() {
        "dram" | "dramx" => "dram.step",
        "timeloop" => "accel.step",
        "maestro" => "mapping.step",
        "farsi" => "soc.step",
        _ => "other.step",
    }
}

/// An environment whose steps are spans.
#[derive(Clone)]
pub struct TracedEnv {
    inner: Box<dyn CloneEnvironment>,
    step_name: &'static str,
}

impl TracedEnv {
    /// Wrap `inner`, naming its step spans after `env_spec`'s family.
    pub fn new(inner: Box<dyn CloneEnvironment>, env_spec: &str) -> Self {
        TracedEnv {
            inner,
            step_name: step_span(env_spec),
        }
    }
}

impl Environment for TracedEnv {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }
    fn observation_labels(&self) -> Vec<String> {
        self.inner.observation_labels()
    }
    fn reset(&mut self) -> Observation {
        self.inner.reset()
    }
    fn step(&mut self, action: &Action) -> StepResult {
        let _span = trace::span(self.step_name);
        self.inner.step(action)
    }
    fn try_step(&mut self, action: &Action) -> Result<StepResult> {
        let _span = trace::span(self.step_name);
        self.inner.try_step(action)
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        Environment::set_telemetry(&mut *self.inner, recorder);
    }
}

/// An [`EnvPool`] whose batch fan-outs are spans; the workers' step
/// spans become their children.
pub struct TracedPool<E>(pub EnvPool<E>);

impl<E: Environment + Clone + Send> BatchEvaluator for TracedPool<E> {
    fn env_name(&self) -> &str {
        self.0.env_name()
    }
    fn reset_env(&mut self) -> Observation {
        self.0.reset_env()
    }
    fn eval_batch(&mut self, actions: &[Action]) -> Vec<StepResult> {
        let _span = trace::batch_span("pool.eval_batch");
        self.0.eval_batch(actions)
    }
    fn observation_width(&self) -> usize {
        self.0.observation_width()
    }
    fn try_eval_batch(&mut self, actions: &[Action]) -> Vec<Result<StepResult>> {
        let _span = trace::batch_span("pool.eval_batch");
        self.0.try_eval_batch(actions)
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        self.0.set_telemetry(recorder);
    }
}

/// Span names of one agent family.
fn agent_spans(family: &str) -> (&'static str, &'static str) {
    match family {
        "aco" => ("agents.aco.propose", "agents.aco.observe"),
        "bo" => ("agents.bo.propose", "agents.bo.observe"),
        "ga" => ("agents.ga.propose", "agents.ga.observe"),
        "rl" => ("agents.rl.propose", "agents.rl.observe"),
        "rw" => ("agents.rw.propose", "agents.rw.observe"),
        "sa" => ("agents.sa.propose", "agents.sa.observe"),
        "ppo" => ("agents.ppo.propose", "agents.ppo.observe"),
        _ => ("agents.other.propose", "agents.other.observe"),
    }
}

/// The agent families whose spans the traced run reports.
pub const FAMILIES: [&str; 7] = ["aco", "bo", "ga", "rl", "rw", "sa", "ppo"];

/// An agent whose proposals and observations are spans.
pub struct TracedAgent {
    inner: Box<dyn Agent + Send>,
    propose_name: &'static str,
    observe_name: &'static str,
}

impl TracedAgent {
    /// Wrap `inner`, an agent of `family` (`"ga"`, `"bo"`, ...).
    pub fn new(inner: Box<dyn Agent + Send>, family: &str) -> Self {
        let (propose_name, observe_name) = agent_spans(family);
        TracedAgent {
            inner,
            propose_name,
            observe_name,
        }
    }
}

impl Agent for TracedAgent {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn propose(&mut self, max_batch: usize) -> Vec<Action> {
        let _span = trace::span(self.propose_name);
        let batch = self.inner.propose(max_batch);
        if trace::enabled() {
            PROPOSALS.fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        batch
    }
    fn observe(&mut self, results: &[(Action, StepResult)]) {
        let _span = trace::span(self.observe_name);
        self.inner.observe(results);
    }
    fn batch_hint(&self) -> Option<usize> {
        self.inner.batch_hint()
    }
}

/// A proxy screener whose training (`observe`, which refits, and
/// `revalidate`) and ranking (`predict`) calls are spans.
pub struct TracedScreener(pub Box<dyn Screener + Send>);

impl Screener for TracedScreener {
    fn policy(&self) -> ScreenPolicy {
        self.0.policy()
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        self.0.set_telemetry(recorder);
    }
    fn observe(&mut self, actions: &[Action], rewards: &[f64]) {
        let _span = trace::span("proxy.observe");
        self.0.observe(actions, rewards);
    }
    fn is_ready(&self) -> bool {
        self.0.is_ready()
    }
    fn predict(&mut self, candidates: &[Action], means: &mut Vec<f64>, vars: &mut Vec<f64>) {
        let _span = trace::span("proxy.predict");
        self.0.predict(candidates, means, vars);
    }
    fn revalidate(&mut self, predicted: &[f64], actual: &[f64]) {
        let _span = trace::span("proxy.observe");
        self.0.revalidate(predicted, actual);
    }
    fn refits(&self) -> u64 {
        self.0.refits()
    }
}

type FileData = Arc<Mutex<Vec<u8>>>;

fn lock<T>(mutex: &Mutex<T>) -> io::Result<MutexGuard<'_, T>> {
    mutex
        .lock()
        .map_err(|_| io::Error::other("memory store lock poisoned"))
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{} not found", path.display()),
    )
}

/// A memory-backed filesystem behind the library's [`StoreIo`] seam:
/// the daemon's journals and store records live in process memory, so
/// the workload times the code that frames and writes them, not a
/// disk. Syncs are no-ops, as on tmpfs.
#[derive(Debug, Default)]
pub struct MemIo {
    files: Mutex<HashMap<PathBuf, FileData>>,
}

struct MemAppend(FileData);

impl AppendFile for MemAppend {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        lock(&self.0)?.extend_from_slice(data);
        Ok(())
    }
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl MemIo {
    /// Drop every file of `job` (`job-N.*` and `job-N-*`).
    pub fn forget_job(&self, job: &str) {
        let (dot, dash) = (format!("{job}."), format!("{job}-"));
        if let Ok(mut files) = lock(&self.files) {
            files.retain(|path, _| {
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default();
                !(name.starts_with(&dot) || name.starts_with(&dash))
            });
        }
    }
}

impl StoreIo for MemIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let file = lock(&self.files)?
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))?;
        let bytes = lock(&file)?.clone();
        String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
    fn write_file(&self, path: &Path, data: &[u8], _sync: bool) -> io::Result<()> {
        lock(&self.files)?.insert(path.to_path_buf(), Arc::new(Mutex::new(data.to_vec())));
        Ok(())
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = lock(&self.files)?;
        let file = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), file);
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        lock(&self.files)?
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = lock(&self.files)?
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))?;
        let len = usize::try_from(len).map_err(io::Error::other)?;
        lock(&file)?.truncate(len);
        Ok(())
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        let file = lock(&self.files)?
            .entry(path.to_path_buf())
            .or_default()
            .clone();
        Ok(Box::new(MemAppend(file)))
    }
    fn exists(&self, path: &Path) -> bool {
        lock(&self.files).is_ok_and(|files| files.contains_key(path))
    }
}

/// A [`StoreIo`] whose appends, syncs and whole-file writes are spans.
#[derive(Debug)]
pub struct TracedIo(pub Arc<dyn StoreIo>);

struct TracedAppend(Box<dyn AppendFile>);

impl AppendFile for TracedAppend {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let _span = trace::span("store.append");
        if trace::enabled() {
            APPEND_BYTES.fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        self.0.append(data)
    }
    fn sync(&mut self) -> io::Result<()> {
        let _span = trace::span("store.sync");
        self.0.sync()
    }
}

impl StoreIo for TracedIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.0.read_to_string(path)
    }
    fn write_file(&self, path: &Path, data: &[u8], sync: bool) -> io::Result<()> {
        let _span = trace::span("store.write");
        self.0.write_file(path, data, sync)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _span = trace::span("store.write");
        self.0.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let _span = trace::span("store.write");
        self.0.remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let _span = trace::span("store.write");
        self.0.truncate(path, len)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        Ok(Box::new(TracedAppend(self.0.open_append(path)?)))
    }
    fn exists(&self, path: &Path) -> bool {
        self.0.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_behaves_like_a_filesystem() {
        let io = MemIo::default();
        let (a, b) = (Path::new("s/a"), Path::new("s/b"));
        assert!(!io.exists(a));
        assert_eq!(
            io.read_to_string(a).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        io.write_file(a, b"one\n", true).unwrap();
        io.rename(a, b).unwrap();
        assert!(!io.exists(a) && io.exists(b));
        let mut handle = io.open_append(b).unwrap();
        handle.append(b"two\n").unwrap();
        handle.sync().unwrap();
        assert_eq!(io.read_to_string(b).unwrap(), "one\ntwo\n");
        io.truncate(b, 4).unwrap();
        assert_eq!(io.read_to_string(b).unwrap(), "one\n");
        io.remove_file(b).unwrap();
        assert!(io.rename(b, a).is_err());
        for name in [
            "job-1.job",
            "job-1.jsonl",
            "job-1-race-l000-r00.jsonl",
            "job-10.job",
        ] {
            io.write_file(&Path::new("s").join(name), b"x", false)
                .unwrap();
        }
        io.forget_job("job-1");
        let left: Vec<_> = io.files.lock().unwrap().keys().cloned().collect();
        assert_eq!(left, vec![PathBuf::from("s/job-10.job")]);
    }
}
