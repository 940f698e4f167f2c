//! What a figure or table of the paper says, as a predicate over run
//! records that returns a [`Verdict`].
//!
//! Every tolerance is a constant fixed before anything runs. Two guards keep
//! accuracy verdicts honest: a task that nearest-class-mean already solves
//! ([`SEPARABLE`]) cannot order pruning methods, and two arms that trained
//! the same model are not a tie but no evidence at all.

use crate::table::Table;
use ft_fl::{ExperimentEnv, RunResult};
use std::fmt;

/// Nearest-class-mean accuracy from which a task is linearly separable: a
/// classifier with no learned parameters solves it, so no accuracy ordering
/// on it says anything about network capacity.
pub const SEPARABLE: f32 = 0.95;

/// How far below the arm it is compared with an arm may read and still
/// count as no worse: two test samples of the `lab` scale's 200.
pub const ACCURACY_TOLERANCE: f64 = 0.01;

/// What the records say about a claim.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// The records show what the paper shows.
    Reproduced,
    /// The records contradict it.
    NotReproduced,
    /// The records cannot tell, for the reason given.
    Inconclusive(String),
}

impl From<bool> for Verdict {
    fn from(holds: bool) -> Self {
        if holds {
            Verdict::Reproduced
        } else {
            Verdict::NotReproduced
        }
    }
}

/// One checked claim: the quantities it compared and what they show.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// Stable predicate id, `<artifact>.<statement>`.
    pub id: String,
    /// The figure or table the claim is about.
    pub artifact: &'static str,
    /// Every number the verdict read, by name.
    pub quantities: Vec<(String, f64)>,
    /// The slack the comparison allowed.
    pub tolerance: f64,
    /// The outcome.
    pub verdict: Verdict,
}

impl Claim {
    /// The claim over `quantities` whose verdict is whether it `holds`.
    pub fn judged(
        id: impl Into<String>,
        artifact: &'static str,
        quantities: Vec<(String, f64)>,
        tolerance: f64,
        holds: bool,
    ) -> Claim {
        Claim {
            id: id.into(),
            artifact,
            quantities,
            tolerance,
            verdict: holds.into(),
        }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match &self.verdict {
            Verdict::Reproduced => "reproduced".to_string(),
            Verdict::NotReproduced => "NOT reproduced".to_string(),
            Verdict::Inconclusive(why) => format!("inconclusive ({why})"),
        };
        write!(f, "claim {} [{}]: {verdict}\n    ", self.id, self.artifact)?;
        for (name, value) in &self.quantities {
            write!(f, "{name}: {value:.4}, ")?;
        }
        write!(f, "tolerance {}", self.tolerance)
    }
}

/// An arm of an accuracy comparison: its name and its record.
pub type Named<'a> = (String, &'a RunResult);

/// The accuracy claim "each pair's first arm reads no worse than its second,
/// within `tolerance`". `ncm` is the highest [`nearest_class_mean_accuracy`]
/// of the environments the arms ran on: from [`SEPARABLE`] the claim is
/// inconclusive, and so it is when a pair's arms trained the same model.
pub fn no_worse(
    id: &str,
    artifact: &'static str,
    ncm: f32,
    tolerance: f64,
    pairs: &[(Named, Named)],
) -> Claim {
    let mut quantities: Vec<(String, f64)> = vec![("nearest_class_mean".into(), ncm as f64)];
    for (name, r) in pairs.iter().flat_map(|(a, b)| [a, b]) {
        if !quantities.iter().any(|(n, _)| n == name) {
            quantities.push((name.clone(), r.accuracy as f64));
        }
    }
    let identical = pairs.iter().find(|((_, a), (_, b))| same_model(a, b));
    let verdict = if ncm >= SEPARABLE {
        Verdict::Inconclusive("task linearly separable".into())
    } else if let Some(((a, _), (b, _))) = identical {
        Verdict::Inconclusive(format!("{a} and {b} trained the same model"))
    } else {
        let holds = (pairs.iter())
            .all(|((_, a), (_, b))| a.accuracy as f64 >= b.accuracy as f64 - tolerance);
        holds.into()
    };
    Claim {
        id: id.into(),
        artifact,
        quantities,
        tolerance,
        verdict,
    }
}

/// Whether two runs ended in the same model, bit for bit: the same accuracy
/// at every evaluation and the same final density.
pub fn same_model(a: &RunResult, b: &RunResult) -> bool {
    let bits = |r: &RunResult| -> Vec<u32> {
        (r.history.iter().chain([&r.final_density]))
            .map(|v| v.to_bits())
            .collect()
    };
    bits(a) == bits(b)
}

/// The scheduler claim of the heterogeneity figure and of
/// `ft run --preset straggler`: on one fleet and one round budget, buffered
/// aggregation finishes in less simulated time than the deadline, and the
/// deadline in less than the synchronous barrier.
pub fn makespan_order(synchronous: f64, deadline: f64, buffered: f64) -> Claim {
    let quantities = vec![
        ("synchronous_s".into(), synchronous),
        ("deadline_s".into(), deadline),
        ("buffered_s".into(), buffered),
    ];
    let holds = buffered < deadline && deadline < synchronous;
    let id = "heterogeneity.makespan_order";
    Claim::judged(id, "Fig. heterogeneity", quantities, 0.0, holds)
}

/// Top-1 accuracy on the environment's test set of the classifier that
/// assigns each sample the class whose mean training sample (over every
/// device's partition) is nearest in squared distance. Classes absent from
/// training are never predicted.
pub fn nearest_class_mean_accuracy(env: &ExperimentEnv) -> f32 {
    let [c, h, w] = env.test.sample_shape();
    let dim = c * h * w;
    let classes = env.test.classes();
    let mut sums = vec![0.0f64; classes * dim];
    let mut counts = vec![0usize; classes];
    for part in &env.parts {
        let (x, labels) = part.full_batch();
        for (sample, &y) in x.data().chunks_exact(dim).zip(&labels) {
            counts[y] += 1;
            for (s, &v) in sums[y * dim..][..dim].iter_mut().zip(sample) {
                *s += v as f64;
            }
        }
    }
    let nearest = |sample: &[f32]| {
        (0..classes)
            .filter(|&k| counts[k] > 0)
            .map(|k| {
                let mean = &sums[k * dim..][..dim];
                let d: f64 = (mean.iter().zip(sample))
                    .map(|(&s, &v)| (s / counts[k] as f64 - v as f64).powi(2))
                    .sum();
                (d, k)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, k)| k)
    };
    let (x, labels) = env.test.full_batch();
    let hits = (x.data().chunks_exact(dim).zip(&labels))
        .filter(|&(sample, &y)| nearest(sample) == Some(y))
        .count();
    hits as f32 / labels.len().max(1) as f32
}

/// The highest [`nearest_class_mean_accuracy`] over `envs`: the one a claim
/// that reads all of them is guarded by.
pub fn nearest_class_mean_of<'a>(envs: impl IntoIterator<Item = &'a ExperimentEnv>) -> f32 {
    (envs.into_iter())
        .map(nearest_class_mean_accuracy)
        .fold(0.0, f32::max)
}

/// What a figure or table bench prints: its tables, then its claims.
#[derive(Default)]
pub struct Report {
    /// The rendered records.
    pub tables: Vec<Table>,
    /// The checked claims.
    pub claims: Vec<Claim>,
}

impl Report {
    /// Prints the tables, then one verdict per claim.
    pub fn print(&self) {
        self.tables.iter().for_each(Table::print);
        println!();
        for claim in &self.claims {
            println!("{claim}");
        }
    }
}
