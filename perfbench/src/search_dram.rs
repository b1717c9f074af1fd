//! `search-dram`: one client runs pooled DRAM searches back to back.
//!
//! Why: the DRAM simulator and the pool fan-out take most of the host
//! time, and the proxy, race, journal and daemon layers are absent.

use crate::harness::{closed_loop, Checked, Limit, Phase, Progress};
use crate::stats::{unit_seed, Digest};
use crate::trace;
use crate::wrap::{TracedAgent, TracedEnv, TracedPool};
use archgym_agents::factory::{build_agent, AgentKind};
use archgym_core::prelude::*;
use archgym_core::telemetry::Counter;
use archgymd::spec::make_env;
use std::time::Instant;

/// True samples per search.
const BUDGET: u64 = 2048;
const BATCH: usize = 16;
/// Pool replicas per search.
pub const JOBS: usize = 2;
/// (env spec, objective): the searches alternate between them.
const ENVS: [(&str, &str); 2] = [
    ("dram/stream", "power:1.0"),
    ("dramx/cloud-2", "joint:30,1.0"),
];
/// BO is left out: its GP proposal costs seconds per thousand samples
/// and would make the agents, not the simulator, the workload.
const AGENTS: [&str; 6] = ["aco", "ga", "rl", "sa", "ppo", "rw"];

/// The environments, built once.
pub struct SearchDram {
    seed: u64,
    traced: bool,
    envs: Vec<Box<dyn CloneEnvironment>>,
    recorder: Recorder,
}

/// Unit `id` runs agent `AGENTS[id % 6]` on `ENVS[(id / 6) % 2]`, so
/// every agent meets both environments.
fn plan(id: u64) -> (usize, &'static str) {
    (
        (id / AGENTS.len() as u64 % 2) as usize,
        AGENTS[(id % AGENTS.len() as u64) as usize],
    )
}

fn build_env(env: usize) -> Result<Box<dyn CloneEnvironment>> {
    let (spec, objective) = ENVS[env];
    make_env(spec, Some(objective))
}

impl SearchDram {
    /// Build the environments (and so their memoized traces).
    pub fn setup(seed: u64, traced: bool) -> Result<Self> {
        let envs = (0..ENVS.len()).map(build_env).collect::<Result<_>>()?;
        let recorder = if traced {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        Ok(SearchDram {
            seed,
            traced,
            envs,
            recorder,
        })
    }

    fn search(&self, id: u64) -> Result<RunResult> {
        let (env, family) = plan(id);
        let agent = build_agent(
            AgentKind::parse(family)?,
            self.envs[env].space(),
            &HyperMap::new(),
            unit_seed(self.seed, id),
        )?;
        let config = RunConfig::with_budget(BUDGET).batch(BATCH).jobs(JOBS);
        if !self.traced {
            let mut agent = agent;
            return Ok(SearchLoop::new(config).run_pooled(&mut agent, self.envs[env].clone()));
        }
        // `run_pooled` with jobs > 1 is `run` over an `EnvPool`; building
        // the pool here lets the benchmark time its fan-outs.
        let _unit = trace::unit_span("search", id, true);
        let mut agent = TracedAgent::new(agent, family);
        let replica = TracedEnv::new(self.envs[env].clone(), ENVS[env].0);
        let mut pool = TracedPool(EnvPool::new(replica, JOBS));
        Ok(SearchLoop::new(config)
            .with_telemetry(self.recorder.clone())
            .run(&mut agent, &mut pool))
    }

    /// Run searches until `limit`, then check each one.
    pub fn run(&self, limit: Limit, progress: &Progress) -> Phase {
        let start = Instant::now();
        let timed = closed_loop(limit, start, 0.., progress, |id| self.search(id));
        let wall_s = start.elapsed().as_secs_f64();
        let units = timed
            .into_iter()
            .map(|t| {
                let (samples, result, error) = match t.out {
                    Ok(r) => (r.samples_used, digest(&r), check(t.id, &r).err()),
                    Err(e) => (0, 0, Some(e.to_string())),
                };
                Checked {
                    id: t.id,
                    secs: t.secs,
                    samples,
                    result,
                    error,
                }
            })
            .collect();
        let counts = [("dram_decisions", Counter::DramDecisions)]
            .into_iter()
            .map(|(name, c)| (name, self.recorder.get(c)))
            .collect();
        Phase {
            units,
            wall_s,
            rss_mib: progress.rss_mib(),
            counts,
        }
    }
}

fn digest(r: &RunResult) -> u64 {
    let mut d = Digest::default();
    d.float(r.best_reward).word(r.samples_used);
    for &i in r.best_action.as_slice() {
        d.word(i as u64);
    }
    for &v in &r.best_observation {
        d.float(v);
    }
    d.value()
}

/// The search spent exactly its budget with no failed or degraded
/// samples, and its best design re-simulates on a fresh environment to
/// the same reward, bit for bit.
fn check(id: u64, r: &RunResult) -> std::result::Result<(), String> {
    if r.samples_used != BUDGET {
        return Err(format!("spent {} of {BUDGET} samples", r.samples_used));
    }
    if r.eval_failures + r.degraded_samples + r.eval_retries > 0 {
        return Err(format!(
            "{} failures, {} retries, {} degraded samples",
            r.eval_failures, r.eval_retries, r.degraded_samples
        ));
    }
    let mut fresh = build_env(plan(id).0).map_err(|e| e.to_string())?;
    let again = fresh.step(&r.best_action).reward;
    if again.to_bits() != r.best_reward.to_bits() {
        return Err(format!(
            "best design re-simulates to {again:e}, search reported {:e}",
            r.best_reward
        ));
    }
    Ok(())
}
