//! Exact vs fused serving ranking: ranking-quality deltas per scenario.
//!
//! Trains one MetaDPA pipeline, exports one artifact, and rebuilds two
//! recommenders from it — one with the default exact ranking and one with
//! `--ranking fused` (fused-FMA serving kernels) — then replays every
//! evaluation instance of all four scenarios through both recommenders
//! and reports HR@10 / NDCG@10 side by side, plus the largest per-item
//! score divergence observed anywhere in the sweep.
//!
//! Both recommenders serve at θ (no per-request adaptation), which is
//! exactly the surface fused ranking changes.
//! The numbers this prints back the DESIGN.md §14 claim that the fused
//! kernels' one-rounding-per-mul-add drift is metric-invisible, and are
//! recorded in EXPERIMENTS.md.

use metadpa_bench::args::ExpArgs;
use metadpa_bench::harness::{build_scenarios, world_by_name};
use metadpa_bench::table::TextTable;
use metadpa_core::artifact::{ArtifactRecommender, Ranking};
use metadpa_core::{MetaDpa, MetaDpaConfig};
use metadpa_data::splits::Scenario;
use metadpa_metrics::MetricSummary;

const K: usize = 10;

/// Scores one scenario's eval instances at θ; also tracks the largest
/// absolute per-candidate score difference against `reference_scores`
/// (pass `None` for the first / reference recommender).
fn evaluate(
    rec: &mut ArtifactRecommender,
    scenario: &Scenario,
    mut per_instance_out: Option<&mut Vec<Vec<f32>>>,
    reference: Option<&[Vec<f32>]>,
    max_abs_delta: &mut f32,
) -> MetricSummary {
    let mut summary = MetricSummary::default();
    for (idx, instance) in scenario.eval.iter().enumerate() {
        rec.recommend(instance.user, 1, None).expect("warm scoring at theta");
        let all = rec.last_scores();
        let positive = all[instance.positive];
        let negatives: Vec<f32> = instance.negatives.iter().map(|&i| all[i]).collect();
        summary.add_instance(positive, &negatives, K);
        let mut candidate_scores = Vec::with_capacity(1 + negatives.len());
        candidate_scores.push(positive);
        candidate_scores.extend_from_slice(&negatives);
        if let Some(reference) = reference {
            for (a, b) in reference[idx].iter().zip(&candidate_scores) {
                *max_abs_delta = max_abs_delta.max((a - b).abs());
            }
        }
        if let Some(out) = per_instance_out.as_deref_mut() {
            out.push(candidate_scores);
        }
    }
    summary
}

fn main() {
    let args = ExpArgs::from_env();
    let _obs = metadpa_bench::obs_init("exp_precision", &args);
    println!(
        "== exact vs fused serving ranking: quality deltas (seed {}, fast={}) ==",
        args.seed, args.fast
    );

    let target = if args.fast { "tiny" } else { "books" };
    let world = world_by_name(target, args.seed);
    let scenarios = build_scenarios(&world, args.seed);

    let mut model = MetaDpa::new(MetaDpaConfig::fast());
    {
        use metadpa_core::eval::Recommender;
        model.fit(&world, &scenarios[0]);
    }
    let mut artifact = model.export_artifact(&world);

    let mut exact = artifact.clone().into_recommender().expect("exact recommender");
    artifact.meta.ranking = Ranking::Fused;
    let mut fused = artifact.into_recommender().expect("fused recommender");

    let mut table = TextTable::new(&[
        "Scenario",
        "HR@10 exact",
        "HR@10 fused",
        "dHR",
        "NDCG@10 exact",
        "NDCG@10 fused",
        "dNDCG",
    ]);
    let mut max_abs_delta = 0.0f32;
    for scenario in &scenarios {
        let mut reference_scores = Vec::with_capacity(scenario.eval.len());
        let a =
            evaluate(&mut exact, scenario, Some(&mut reference_scores), None, &mut max_abs_delta);
        let b = evaluate(&mut fused, scenario, None, Some(&reference_scores), &mut max_abs_delta);
        table.row(vec![
            scenario.kind.label().to_string(),
            format!("{:.4}", a.hr),
            format!("{:.4}", b.hr),
            format!("{:+.4}", b.hr - a.hr),
            format!("{:.4}", a.ndcg),
            format!("{:.4}", b.ndcg),
            format!("{:+.4}", b.ndcg - a.ndcg),
        ]);
    }
    println!("\n{}", table.render());
    println!(
        "max |score(fused) - score(exact)| over all candidates: {max_abs_delta:.3e}\n\
         Shape to check: every delta row is ~0 (the fused drift is orders of\n\
         magnitude below the score gaps that decide ranks); the max score\n\
         divergence stays within the DESIGN.md §14 epsilon."
    );
}
