//! The shared evaluation contract and leave-one-out harness.
//!
//! Every system in the comparison — MetaDPA and all seven baselines —
//! implements [`Recommender`], so Table III, Figs. 3-5 and the
//! significance test all run through the same code path:
//!
//! 1. `fit` once on the scenario's meta-training tasks (built from `R_w`),
//! 2. per cold-start scenario, `fine_tune` on the testing tasks' support
//!    sets (the harness snapshots and restores model state around this),
//! 3. `score` each evaluation instance's candidates — through a frozen
//!    [`Scorer`] when the system offers one — and aggregate
//!    HR/MRR/NDCG/AUC.

use std::sync::Mutex;

use metadpa_data::domain::{Domain, World};
use metadpa_data::splits::Scenario;
use metadpa_data::task::Task;
use metadpa_metrics::MetricSummary;
use metadpa_tensor::{Matrix, Pool};

/// A recommendation system under the paper's protocol.
pub trait Recommender {
    /// Display name used in result tables.
    fn name(&self) -> String;

    /// Trains on the scenario's meta-training tasks (the warm ratings
    /// `R_w`). Cross-domain systems may also use the source domains in
    /// `world`.
    fn fit(&mut self, world: &World, scenario: &Scenario);

    /// Adapts to cold-start users/items using the testing tasks' support
    /// sets. Called at most once between `snapshot_state`/`restore_state`.
    fn fine_tune(&mut self, tasks: &[Task], domain: &Domain);

    /// Scores candidate items for a user; higher means more preferred.
    fn score(&mut self, domain: &Domain, user: usize, items: &[usize]) -> Vec<f32>;

    /// Copies out all trainable state (used to rewind fine-tuning).
    fn snapshot_state(&mut self) -> Vec<Matrix>;

    /// Restores state produced by [`Recommender::snapshot_state`].
    fn restore_state(&mut self, state: &[Matrix]);

    /// Freezes the *current* parameters into a score-only [`Scorer`] for
    /// `domain`, which the evaluation harness scores every instance
    /// through (and forks to fan scoring out across the pool). It must
    /// score bit-identically to [`Recommender::score`] at the moment it
    /// was built. Returning `None` (the default) makes the harness call
    /// `score` on `self`, so stateful or cheap recommenders need not
    /// implement it.
    fn fork_scorer<'d>(&mut self, _domain: &'d Domain) -> Option<Box<dyn Scorer<'d> + 'd>> {
        None
    }
}

/// A frozen, score-only view of a fitted recommender on one domain.
///
/// It owns a copy of the parameters it was built from, so nothing done to
/// the recommender afterwards — fine-tuning, `restore_state` — reaches it,
/// and whatever it precomputes from them (MetaDPA's item-embedding table)
/// never needs invalidating.
pub trait Scorer<'d>: Send {
    /// Scores candidate items for a user; higher means more preferred.
    fn score(&mut self, user: usize, items: &[usize]) -> Vec<f32>;

    /// An independent scorer with the same parameters for another pool
    /// worker, sharing whatever read-only state it can. Takes `&mut self`
    /// because reading a module's parameters does.
    fn fork(&mut self) -> Box<dyn Scorer<'d> + 'd>;
}

/// Evaluates a fitted recommender on one scenario at several cutoffs,
/// returning one [`MetricSummary`] per requested `k` (scores are computed
/// once per instance and reused across cutoffs — this is how the NDCG@k
/// curves of Figs. 3-4 are produced).
///
/// The recommender's state is snapshotted before fine-tuning and restored
/// afterwards, so one `fit` serves all four scenarios.
///
/// # Panics
/// Panics if `ks` is empty.
pub fn evaluate_scenario_at_ks(
    rec: &mut dyn Recommender,
    world: &World,
    scenario: &Scenario,
    ks: &[usize],
) -> Vec<MetricSummary> {
    assert!(!ks.is_empty(), "evaluate_scenario_at_ks: need at least one cutoff");
    let state = rec.snapshot_state();
    if !scenario.finetune_tasks.is_empty() {
        rec.fine_tune(&scenario.finetune_tasks, &world.target);
    }
    // Per-instance score vectors, computed serially or fanned out across
    // the pool, then aggregated below in instance order either way — the
    // summaries are bit-identical at any thread count.
    let per_instance: Vec<Vec<f32>> = match rec.fork_scorer(&world.target) {
        Some(scorer) => frozen_instance_scores(scorer, scenario),
        None => scenario
            .eval
            .iter()
            .map(|instance| rec.score(&world.target, instance.user, &instance.candidates()))
            .collect(),
    };

    let mut summaries = vec![MetricSummary::default(); ks.len()];
    for scores in &per_instance {
        let positive = scores[0];
        let negatives = &scores[1..];
        for (summary, &k) in summaries.iter_mut().zip(ks.iter()) {
            summary.add_instance(positive, negatives, k);
        }
    }
    rec.restore_state(&state);
    summaries
}

/// Scores every eval instance through a frozen scorer, one contiguous
/// chunk of instances per pool thread: `root` scores the first chunk and
/// a fork of it each other one, so a one-thread pool copies nothing.
fn frozen_instance_scores<'d>(
    mut root: Box<dyn Scorer<'d> + 'd>,
    scenario: &Scenario,
) -> Vec<Vec<f32>> {
    let pool = Pool::current();
    let chunks = pool.partition(scenario.eval.len());
    let forks: Vec<_> = (1..chunks.len()).map(|_| root.fork()).collect();
    let scorers: Vec<Mutex<Box<dyn Scorer<'d> + 'd>>> =
        std::iter::once(root).chain(forks).map(Mutex::new).collect();
    let per_chunk = pool.map_tasks(chunks.len(), |c| {
        let mut scorer = scorers[c].lock().expect("eval scorer poisoned");
        chunks[c]
            .clone()
            .map(|e| {
                let instance = &scenario.eval[e];
                let candidates = instance.candidates();
                let scores = scorer.score(instance.user, &candidates);
                debug_assert_eq!(scores.len(), candidates.len());
                scores
            })
            .collect::<Vec<_>>()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Evaluates at a single cutoff (the Table III setting is `k = 10`).
pub fn evaluate_scenario(
    rec: &mut dyn Recommender,
    world: &World,
    scenario: &Scenario,
    k: usize,
) -> MetricSummary {
    evaluate_scenario_at_ks(rec, world, scenario, &[k]).pop().expect("one summary per cutoff")
}

/// Produces a user's top-`k` recommendation list over the whole catalogue,
/// best first, excluding the user's already-rated items when
/// `exclude_rated` is set — the serving-side API a deployment would call.
pub fn recommend_top_k(
    rec: &mut dyn Recommender,
    domain: &Domain,
    user: usize,
    k: usize,
    exclude_rated: bool,
) -> Vec<(usize, f32)> {
    let candidates: Vec<usize> = if exclude_rated {
        (0..domain.n_items()).filter(|&i| !domain.has_interaction(user, i)).collect()
    } else {
        (0..domain.n_items()).collect()
    };
    if candidates.is_empty() {
        return Vec::new();
    }
    let scores = rec.score(domain, user, &candidates);
    metadpa_metrics::ranking::top_k_indices(&scores, k)
        .into_iter()
        .map(|idx| (candidates[idx], scores[idx]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadpa_data::generator::generate_world;
    use metadpa_data::presets::tiny_world;
    use metadpa_data::splits::{ScenarioKind, SplitConfig, Splitter};

    /// An oracle that scores an item 1 if the user actually interacted
    /// with it — ranks every eval positive first.
    struct Oracle;

    impl Recommender for Oracle {
        fn name(&self) -> String {
            "Oracle".into()
        }
        fn fit(&mut self, _world: &World, _scenario: &Scenario) {}
        fn fine_tune(&mut self, _tasks: &[Task], _domain: &Domain) {}
        fn score(&mut self, domain: &Domain, user: usize, items: &[usize]) -> Vec<f32> {
            items.iter().map(|&i| if domain.has_interaction(user, i) { 1.0 } else { 0.0 }).collect()
        }
        fn snapshot_state(&mut self) -> Vec<Matrix> {
            Vec::new()
        }
        fn restore_state(&mut self, _state: &[Matrix]) {}
    }

    /// A constant scorer — the pessimistic tie-breaking in the metrics
    /// must drive all its cutoff metrics to zero-ish and AUC to 0.5.
    struct Constant;

    impl Recommender for Constant {
        fn name(&self) -> String {
            "Constant".into()
        }
        fn fit(&mut self, _world: &World, _scenario: &Scenario) {}
        fn fine_tune(&mut self, _tasks: &[Task], _domain: &Domain) {}
        fn score(&mut self, _domain: &Domain, _user: usize, items: &[usize]) -> Vec<f32> {
            vec![0.5; items.len()]
        }
        fn snapshot_state(&mut self) -> Vec<Matrix> {
            Vec::new()
        }
        fn restore_state(&mut self, _state: &[Matrix]) {}
    }

    #[test]
    fn oracle_achieves_perfect_metrics() {
        let w = generate_world(&tiny_world(31));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let scenario = sp.scenario(ScenarioKind::Warm);
        let mut oracle = Oracle;
        let s = evaluate_scenario(&mut oracle, &w, &scenario, 10);
        assert_eq!(s.hr, 1.0);
        assert_eq!(s.mrr, 1.0);
        assert_eq!(s.ndcg, 1.0);
        assert_eq!(s.auc, 1.0);
        assert_eq!(s.count, scenario.eval.len());
    }

    #[test]
    fn constant_scorer_gets_chance_auc_and_zero_hits() {
        let w = generate_world(&tiny_world(32));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let scenario = sp.scenario(ScenarioKind::ColdUser);
        let mut rec = Constant;
        let s = evaluate_scenario(&mut rec, &w, &scenario, 10);
        assert_eq!(s.hr, 0.0, "ties rank the positive last");
        assert!((s.auc - 0.5).abs() < 1e-6);
    }

    #[test]
    fn multi_cutoff_evaluation_is_monotone_in_k() {
        let w = generate_world(&tiny_world(33));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let scenario = sp.scenario(ScenarioKind::Warm);
        let mut oracle = Oracle;
        let ks: Vec<usize> = (1..=10).collect();
        let summaries = evaluate_scenario_at_ks(&mut oracle, &w, &scenario, &ks);
        assert_eq!(summaries.len(), 10);
        for w in summaries.windows(2) {
            assert!(w[1].ndcg >= w[0].ndcg);
            assert!(w[1].hr >= w[0].hr);
        }
    }

    #[test]
    fn recommend_top_k_respects_exclusion_and_ordering() {
        let w = generate_world(&tiny_world(35));
        let mut oracle = Oracle;
        let user = 0;
        // Without exclusion the oracle surfaces the user's own rated items.
        let with_rated = recommend_top_k(&mut oracle, &w.target, user, 5, false);
        assert_eq!(with_rated.len(), 5);
        assert!(with_rated
            .iter()
            .take(w.target.interactions[user].len().min(5))
            .all(|&(i, s)| s == 1.0 && w.target.has_interaction(user, i)));
        // Scores are non-increasing.
        for pair in with_rated.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        // With exclusion none of the rated items appear.
        let without = recommend_top_k(&mut oracle, &w.target, user, 5, true);
        assert!(without.iter().all(|&(i, _)| !w.target.has_interaction(user, i)));
    }

    #[test]
    #[should_panic(expected = "at least one cutoff")]
    fn rejects_empty_cutoffs() {
        let w = generate_world(&tiny_world(34));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let scenario = sp.scenario(ScenarioKind::Warm);
        let _ = evaluate_scenario_at_ks(&mut Oracle, &w, &scenario, &[]);
    }
}
