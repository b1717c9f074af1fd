//! `daemon-journal`: two clients of an in-process `archgymd` each loop
//! over submit, watch to `Done`, then a `status` read.
//!
//! Why: this is the write path. Journal framing, store records, the
//! protocol and dispatch take most of each job's time; no other
//! workload uses them. The daemon's state lives in a memory-backed
//! store behind the library's `StoreIo` seam, so the workload times
//! the code, not a disk.

use crate::harness::{closed_loop, scratch_dir, Checked, Limit, Phase, Progress};
use crate::stats::{unit_seed, Digest};
use crate::trace;
use crate::wrap::{MemIo, TracedAgent, TracedEnv, TracedIo};
use archgym_agents::factory::{build_agent, AgentKind};
use archgym_core::jobs::{JobId, JobSpec, JobState};
use archgym_core::prelude::*;
use archgym_core::storeio::StoreIo;
use archgymd::protocol::JobStatus;
use archgymd::spec::make_env;
use archgymd::{
    request_one, ConnectOptions, DaemonConfig, Request, Response, Server, WatchItem, WatchStream,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// True samples per job.
const BUDGET: u64 = 128;
const BATCH: usize = 16;
/// Concurrent closed-loop clients, one connection live per client.
const CLIENTS: u64 = 2;
/// (env spec, objective) of the jobs; objectives are the families'
/// defaults, spelled out because a submitted spec carries one.
const ENVS: [(&str, &str); 8] = [
    ("timeloop/alexnet", "latency:15"),
    ("timeloop/resnet50", "latency:15"),
    ("timeloop/mobilenet_v1", "latency:15"),
    ("maestro/resnet18/stage2", "runtime"),
    ("maestro/vgg16/conv1_2", "runtime"),
    ("farsi/audio-decoder", "budgets:4,300,8"),
    ("farsi/edge-detection", "budgets:8,300,10"),
    ("farsi/slam-lite", "budgets:14,350,10"),
];
const AGENTS: [&str; 2] = ["ga", "sa"];

/// The job unit `id` submits.
fn job_spec(seed: u64, id: u64) -> JobSpec {
    let (env, objective) = ENVS[(id % ENVS.len() as u64) as usize];
    let agent = AGENTS[(id / ENVS.len() as u64 % AGENTS.len() as u64) as usize];
    let mut spec = JobSpec::search(env, agent, BUDGET, unit_seed(seed, id));
    spec.objective = objective.to_owned();
    spec.batch = BATCH;
    spec
}

/// A running daemon and its state directory.
pub struct DaemonJournal {
    seed: u64,
    traced: bool,
    store: Arc<MemIo>,
    addr: SocketAddr,
    server: Option<JoinHandle<archgym_core::Result<()>>>,
    state_dir: PathBuf,
}

/// The `Done` frame of one job.
struct JobDone {
    job: JobId,
    state: JobState,
    best_reward: Option<f64>,
    samples: u64,
}

/// What a client saw of one job.
struct JobSeen {
    done: JobDone,
    status: Option<JobStatus>,
}

impl DaemonJournal {
    /// Bind the daemon (default workers and `batch` durability) on a
    /// loopback port and wait until it answers a ping.
    pub fn setup(seed: u64, traced: bool) -> Result<Self> {
        let state_dir = scratch_dir("daemon-state");
        let store = Arc::new(MemIo::default());
        let io: Arc<dyn StoreIo> = if traced {
            Arc::new(TracedIo(store.clone()))
        } else {
            store.clone()
        };
        let server = Server::bind_with_io(DaemonConfig::new("127.0.0.1:0", &state_dir), io)?;
        let addr = server.local_addr();
        let server = std::thread::spawn(move || server.run());
        let daemon = DaemonJournal {
            seed,
            traced,
            store,
            addr,
            server: Some(server),
            state_dir,
        };
        match request_one(&addr.to_string(), &Request::Ping)? {
            Response::Pong { .. } => Ok(daemon),
            other => Err(ArchGymError::InvalidConfig(format!(
                "daemon answered a ping with {other:?}"
            ))),
        }
    }

    /// Submit, watch to `Done` (the unit's time), then read `status`,
    /// one connection per request as the CLI's `submit`, `watch` and
    /// `status` commands make them.
    fn job(&self, client: u64, id: u64) -> Result<JobSeen> {
        let addr = self.addr.to_string();
        let done = {
            let _unit = trace::unit_span("job", id, false);
            let submit = trace::span("daemon.submit");
            let reply = request_one(
                &addr,
                &Request::Submit {
                    tenant: format!("client-{client}"),
                    name: None,
                    spec: job_spec(self.seed, id),
                },
            )?;
            let job = match reply {
                Response::Accepted { job, .. } => job,
                other => return Err(ArchGymError::EvalFailed(format!("submit: {other:?}"))),
            };
            drop(submit);
            let mut waiting = trace::span("daemon.first_event");
            let mut streaming = None;
            let mut watch = WatchStream::open(&addr, job, ConnectOptions::default(), id, 1);
            loop {
                match watch.next_item()? {
                    WatchItem::Event(_) => {
                        if waiting.take().is_some() {
                            streaming = trace::span("daemon.stream");
                        }
                    }
                    WatchItem::Done {
                        state,
                        best_reward,
                        samples,
                    } => {
                        drop((waiting, streaming));
                        break JobDone {
                            job,
                            state,
                            best_reward,
                            samples,
                        };
                    }
                }
            }
        };
        let status = {
            let _span = trace::span("daemon.status");
            match request_one(&addr, &Request::Status { job: done.job })? {
                Response::Status(status) => Some(status),
                _ => None,
            }
        };
        // The outcome is recorded before `Done` is sent, so the daemon
        // writes nothing more for this job and, in this process, never
        // reads its files again. Dropping them keeps the benchmark's
        // memory from growing with its throughput.
        self.store.forget_job(&done.job.to_string());
        Ok(JobSeen { done, status })
    }

    /// Run both clients until `limit`, then check every job against an
    /// untimed in-process run of the same spec and seed.
    pub fn run(&self, limit: Limit, progress: &Progress) -> Phase {
        let start = Instant::now();
        let mut timed: Vec<_> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let ids = (c..).step_by(CLIENTS as usize);
                    scope.spawn(move || {
                        closed_loop(limit, start, ids, progress, |id| self.job(c, id))
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        timed.sort_by_key(|t| t.id);
        let units = timed
            .into_iter()
            .map(|t| match t.out {
                Ok(seen) => {
                    let (result, samples, error) = self.check(t.id, &seen);
                    Checked {
                        id: t.id,
                        secs: t.secs,
                        samples,
                        result,
                        error,
                    }
                }
                Err(e) => Checked {
                    id: t.id,
                    secs: t.secs,
                    samples: 0,
                    result: 0,
                    error: Some(e.to_string()),
                },
            })
            .collect();
        Phase {
            units,
            wall_s,
            rss_mib: progress.rss_mib(),
            counts: Default::default(),
        }
    }

    /// The `Done` frame and the `status` read must both report state
    /// `done`, the full budget, and the best reward of an in-process run
    /// of the same spec, bit for bit. Returns the digest word, the
    /// samples settled and the error, if any.
    fn check(&self, id: u64, seen: &JobSeen) -> (u64, u64, Option<String>) {
        let JobDone {
            job,
            state,
            best_reward,
            samples,
        } = &seen.done;
        let reward = best_reward.unwrap_or(f64::NAN);
        let result = *Digest::default().float(reward).word(*samples);
        let fail = |msg: String| (result.value(), *samples, Some(format!("{job}: {msg}")));
        if *state != JobState::Done || *samples != BUDGET {
            return fail(format!(
                "{} with {samples} of {BUDGET} samples",
                state.name()
            ));
        }
        match &seen.status {
            Some(s)
                if s.state == JobState::Done
                    && s.samples == *samples
                    && s.best_reward.map(f64::to_bits) == Some(reward.to_bits()) => {}
            other => return fail(format!("status read {other:?} disagrees with Done")),
        }
        match self.replay(id) {
            Ok(r) if r.samples_used == *samples && r.best_reward.to_bits() == reward.to_bits() => {
                (result.value(), *samples, None)
            }
            Ok(r) => fail(format!(
                "in-process run gives {:e} over {} samples, daemon {reward:e}",
                r.best_reward, r.samples_used
            )),
            Err(e) => fail(format!("in-process run failed: {e}")),
        }
    }

    /// The job of unit `id` run in-process, as the daemon runs it but
    /// without the journal. Traced, its spans give the simulator, agent
    /// and search-loop times of the daemon's jobs, which the benchmark
    /// cannot wrap inside the daemon.
    fn replay(&self, id: u64) -> Result<RunResult> {
        let spec = job_spec(self.seed, id);
        let env = make_env(&spec.env, Some(&spec.objective))?;
        let agent = build_agent(
            AgentKind::parse(&spec.agent)?,
            env.space(),
            &HyperMap::new(),
            spec.seed,
        )?;
        let config = RunConfig::with_budget(spec.budget)
            .batch(spec.batch)
            .record(false)
            .jobs(spec.eval_jobs);
        if !self.traced {
            let mut agent = agent;
            return Ok(SearchLoop::new(config).run_pooled(&mut agent, env));
        }
        let _unit = trace::unit_span("replay", id, true);
        let mut agent = TracedAgent::new(agent, &spec.agent);
        Ok(SearchLoop::new(config).run_pooled(&mut agent, TracedEnv::new(env, &spec.env)))
    }

    /// Remove the state directory without stopping the daemon.
    pub fn abandon(self) {
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }

    /// Shut the daemon down, wait for it, and remove its directory.
    pub fn teardown(mut self) -> Result<()> {
        let reply = request_one(
            &self.addr.to_string(),
            &Request::Shutdown {
                drain: false,
                deadline_ms: 0,
            },
        )?;
        if let Some(server) = self.server.take() {
            server
                .join()
                .map_err(|_| ArchGymError::InvalidConfig("daemon thread panicked".into()))??;
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
        match reply {
            Response::Stopping => Ok(()),
            other => Err(ArchGymError::InvalidConfig(format!(
                "daemon answered shutdown with {other:?}"
            ))),
        }
    }
}
