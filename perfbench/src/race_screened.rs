//! `race-screened`: one client runs proxy-screened roster races back
//! to back.
//!
//! Why: the simulators are a small share of host time; the rest goes to
//! proxy refits, BO and PPO proposals and race bookkeeping, which
//! `search-dram` never touches.

use crate::harness::{closed_loop, Checked, Limit, Phase, Progress};
use crate::stats::{unit_seed, Digest};
use crate::trace;
use crate::wrap::{TracedAgent, TracedEnv, TracedScreener};
use archgym_agents::factory::{build_agent, race_roster, RosterEntry};
use archgym_core::prelude::*;
use archgym_core::telemetry::Counter;
use archgym_proxy::OnlineProxy;
use archgymd::spec::make_env;
use std::time::Instant;

/// True samples per race.
const BUDGET: u64 = 384;
const ETA: usize = 3;
/// Configurations per agent family: 6 families x 4 = 24 lanes.
const ROSTER_CAP: usize = 4;
const BATCH: usize = 16;
/// One coordinator thread. With 2, the race buckets lanes statically
/// over two threads that meet at every rung, so a slowdown of either
/// core stalls the race: on a 2-core host, interleaved runs at jobs 2
/// spread 3x wider run to run than at jobs 1, for the same throughput.
const JOBS: usize = 1;
/// The races alternate between these environments. FARSI is left out:
/// its large design space makes a race take seconds without exercising
/// any layer these two do not.
const ENVS: [&str; 2] = ["timeloop/resnet50", "maestro/resnet18/stage2"];

/// The environments and the roster, built once.
pub struct RaceScreened {
    seed: u64,
    traced: bool,
    envs: Vec<Box<dyn CloneEnvironment>>,
    roster: Vec<RosterEntry>,
    recorder: Recorder,
}

fn build_env(env: usize) -> Result<Box<dyn CloneEnvironment>> {
    make_env(ENVS[env], None)
}

impl RaceScreened {
    /// Build the environments and the race roster.
    pub fn setup(seed: u64, traced: bool) -> Result<Self> {
        let envs = (0..ENVS.len()).map(build_env).collect::<Result<_>>()?;
        let recorder = if traced {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        Ok(RaceScreened {
            seed,
            traced,
            envs,
            roster: race_roster(ROSTER_CAP),
            recorder,
        })
    }

    /// One race: fresh agents and one online proxy per lane, all seeded
    /// from the unit seed, over `ENVS[id % 2]`.
    fn race(&self, id: u64) -> Result<RaceResult> {
        let _unit = trace::unit_span("race", id, true);
        let env = &self.envs[(id % ENVS.len() as u64) as usize];
        let seed = unit_seed(self.seed, id);
        let mut lanes = Vec::with_capacity(self.roster.len());
        for entry in &self.roster {
            let agent = build_agent(entry.kind, env.space(), &entry.hyper, seed)?;
            let proxy = Box::new(OnlineProxy::with_defaults(ScreenPolicy::default(), seed)?);
            lanes.push(if self.traced {
                RaceLane::new(
                    entry.name.clone(),
                    Box::new(TracedAgent::new(agent, entry.kind.name())),
                )
                .screened(Box::new(TracedScreener(proxy)))
            } else {
                RaceLane::new(entry.name.clone(), agent).screened(proxy)
            });
        }
        let race = Race::new(BUDGET, ETA).batch(BATCH).jobs(JOBS);
        if self.traced {
            let env = TracedEnv::new(env.clone(), ENVS[(id % ENVS.len() as u64) as usize]);
            race.with_telemetry(self.recorder.clone()).run(lanes, env)
        } else {
            race.run(lanes, env.clone())
        }
    }

    /// Run races until `limit`, then check each one.
    pub fn run(&self, limit: Limit, progress: &Progress) -> Phase {
        let start = Instant::now();
        let timed = closed_loop(limit, start, 0.., progress, |id| self.race(id));
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
        let counts = [
            ("proxy_screened", Counter::ProxyScreened),
            ("proxy_admitted", Counter::ProxyAdmitted),
            ("proxy_refits", Counter::ProxyRefits),
            ("race_lanes_eliminated", Counter::RaceLanesEliminated),
            ("degraded_samples", Counter::DegradedSamples),
        ]
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

fn digest(r: &RaceResult) -> u64 {
    let mut d = Digest::default();
    d.float(r.best_reward).word(r.samples_used);
    for &i in r.best_action.as_slice() {
        d.word(i as u64);
    }
    for lane in &r.lanes {
        d.float(lane.best_reward)
            .word(lane.samples_used)
            .word(lane.eliminated_at.map_or(u64::MAX, |r| r as u64));
    }
    for &v in &r.reward_history {
        d.float(v);
    }
    d.value()
}

/// The race spent exactly its budget across its lanes, every sample
/// settled to a finite reward, and the winning design re-simulates on
/// a fresh environment to the same reward, bit for bit.
fn check(id: u64, r: &RaceResult) -> std::result::Result<(), String> {
    let lane_samples: u64 = r.lanes.iter().map(|l| l.samples_used).sum();
    if r.samples_used != BUDGET || lane_samples != BUDGET {
        return Err(format!(
            "spent {} ({lane_samples} over lanes) of {BUDGET} samples",
            r.samples_used
        ));
    }
    if r.reward_history.len() as u64 != BUDGET || r.reward_history.iter().any(|v| !v.is_finite()) {
        return Err("reward history is short or holds a non-finite reward".into());
    }
    let mut fresh = build_env((id % ENVS.len() as u64) as usize).map_err(|e| e.to_string())?;
    let again = fresh.step(&r.best_action).reward;
    if again.to_bits() != r.best_reward.to_bits() {
        return Err(format!(
            "winning design re-simulates to {again:e}, race reported {:e}",
            r.best_reward
        ));
    }
    Ok(())
}
