//! Integration tests for in-run batch evaluation: a pooled run
//! (`jobs > 1`) must be point-for-point identical to a serial run for
//! every population agent on both a toy and a real simulator, and the
//! shared [`EvalCache`] must keep exact counters when a pool fans a
//! batch across workers.

use std::collections::HashSet;
use std::sync::Arc;

use archgym_agents::factory::{build_agent, AgentKind};
use archgym_core::cache::{CachedEnv, EvalCache};
use archgym_core::env::Environment;
use archgym_core::search::{RunConfig, RunResult, SearchLoop};
use archgym_core::toy::PeakEnv;
use archgym_dram::{DramEnv, DramWorkload, Objective};

/// GA proposes generations, ACO proposes ant cohorts, SA fills its
/// neighbor batch — the three population agents the pool accelerates.
const POPULATION_AGENTS: [AgentKind; 3] = [AgentKind::Ga, AgentKind::Aco, AgentKind::Sa];

fn run_with_jobs<E>(kind: AgentKind, env: &E, budget: u64, jobs: usize) -> RunResult
where
    E: Environment + Clone + Send,
{
    let mut agent = build_agent(kind, env.space(), &Default::default(), 11).unwrap();
    // batch = 0: let the agent pick its natural batch size.
    let config = RunConfig::with_budget(budget).batch(0).jobs(jobs);
    SearchLoop::new(config).run_pooled(&mut agent, env.clone())
}

/// Everything except wall-clock must match, including dataset order.
fn assert_identical(serial: &RunResult, pooled: &RunResult, label: &str) {
    assert_eq!(serial.best_reward, pooled.best_reward, "{label}");
    assert_eq!(serial.best_action, pooled.best_action, "{label}");
    assert_eq!(serial.best_observation, pooled.best_observation, "{label}");
    assert_eq!(serial.samples_used, pooled.samples_used, "{label}");
    assert_eq!(serial.reward_history, pooled.reward_history, "{label}");
    assert_eq!(serial.dataset, pooled.dataset, "{label}");
}

#[test]
fn population_agents_are_bit_identical_under_pooling_on_peak() {
    let env = PeakEnv::new(&[16, 16, 16], vec![4, 11, 7]);
    for kind in POPULATION_AGENTS {
        let serial = run_with_jobs(kind, &env, 160, 1);
        for jobs in [2, 4] {
            let pooled = run_with_jobs(kind, &env, 160, jobs);
            assert_identical(&serial, &pooled, &format!("{kind:?} jobs={jobs} on peak"));
        }
    }
}

#[test]
fn population_agents_are_bit_identical_under_pooling_on_dram() {
    let env = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
    for kind in POPULATION_AGENTS {
        let serial = run_with_jobs(kind, &env, 96, 1);
        let pooled = run_with_jobs(kind, &env, 96, 4);
        assert_identical(&serial, &pooled, &format!("{kind:?} jobs=4 on dram"));
    }
}

#[test]
fn eval_cache_counters_stay_exact_under_batch_parallelism() {
    let base = PeakEnv::new(&[8, 8], vec![3, 5]);
    let budget = 96u64;
    let run = |jobs: usize| {
        let cache = Arc::new(EvalCache::new());
        let env = CachedEnv::new(base.clone(), cache.clone());
        let mut agent = build_agent(AgentKind::Ga, base.space(), &Default::default(), 5).unwrap();
        let result = SearchLoop::new(RunConfig::with_budget(budget).batch(0).jobs(jobs))
            .run_pooled(&mut agent, env);
        (result, cache)
    };
    let (serial_result, serial_cache) = run(1);
    let (pooled_result, pooled_cache) = run(4);
    // Memoization must not perturb the search, pooled or not.
    assert_identical(&serial_result, &pooled_result, "cached GA jobs=4");

    let distinct: HashSet<&[usize]> = serial_result
        .dataset
        .iter()
        .map(|t| t.action.as_slice())
        .collect();
    let serial = serial_cache.stats();
    let pooled = pooled_cache.stats();
    // Serially, every repeat of a design is a hit — the counters are
    // fully determined by the proposal stream.
    assert_eq!(serial.hits + serial.misses, budget);
    assert_eq!(serial.misses, distinct.len() as u64);
    assert_eq!(serial.entries, distinct.len() as u64);
    // Pooled, a duplicate within one batch may race to a double miss,
    // but lookups are still counted one per evaluation and the memo
    // table still holds exactly the distinct designs.
    assert_eq!(pooled.hits + pooled.misses, budget);
    assert_eq!(pooled.entries, distinct.len() as u64);
    assert_eq!(pooled.inserts, pooled.misses);
}

#[test]
fn pooled_batches_stay_bit_identical_across_200_consecutive_fan_outs() {
    use archgym_core::pool::{BatchEvaluator, EnvPool};
    use archgym_core::space::Action;
    use rand::{rngs::StdRng, SeedableRng};

    // One pool serves every batch, so its parked workers are reused 200
    // times; batch sizes cycle through 1..=17 so some fan-outs have
    // fewer items than lanes.
    let env = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
    let mut rng = StdRng::seed_from_u64(29);
    let batches: Vec<Vec<Action>> = (0..200)
        .map(|i| {
            (0..1 + i % 17)
                .map(|_| env.space().sample(&mut rng))
                .collect()
        })
        .collect();
    let mut serial = env.clone();
    let expected: Vec<_> = batches.iter().map(|b| serial.eval_batch(b)).collect();
    for jobs in [1, 2, 3, 4, 16] {
        let mut pool = EnvPool::new(env.clone(), jobs);
        for (i, (batch, want)) in batches.iter().zip(&expected).enumerate() {
            assert_eq!(&pool.eval_batch(batch), want, "jobs={jobs} batch {i}");
        }
    }
}
