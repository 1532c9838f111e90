//! Task-weight and node-speed generators for the heterogeneous experiments.

use lb_core::{InitialLoad, Speeds, Task, TaskId, Weight};
use rand::Rng;

/// How task weights are drawn when building a weighted workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WeightModel {
    /// All tasks have unit weight (tokens).
    Unit,
    /// Weights drawn uniformly from `1..=w_max`.
    UniformRange {
        /// Maximum task weight.
        w_max: Weight,
    },
    /// Most tasks are light (weight 1); a fraction `heavy_percent` of tasks
    /// have weight `w_max`.
    Bimodal {
        /// Maximum task weight carried by the heavy tasks.
        w_max: Weight,
        /// Percentage (0..=100) of heavy tasks.
        heavy_percent: u32,
    },
}

impl WeightModel {
    /// The maximum weight this model can produce.
    pub fn w_max(&self) -> Weight {
        match *self {
            WeightModel::Unit => 1,
            WeightModel::UniformRange { w_max } | WeightModel::Bimodal { w_max, .. } => w_max,
        }
    }

    /// Draws one task weight.
    pub fn sample(&self, rng: &mut impl Rng) -> Weight {
        match *self {
            WeightModel::Unit => 1,
            WeightModel::UniformRange { w_max } => rng.gen_range(1..=w_max.max(1)),
            WeightModel::Bimodal {
                w_max,
                heavy_percent,
            } => {
                if rng.gen_range(0..100) < heavy_percent {
                    w_max.max(1)
                } else {
                    1
                }
            }
        }
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            WeightModel::Unit => "unit".to_string(),
            WeightModel::UniformRange { w_max } => format!("uniform[1..={w_max}]"),
            WeightModel::Bimodal {
                w_max,
                heavy_percent,
            } => format!("bimodal(w_max={w_max}, heavy={heavy_percent}%)"),
        }
    }
}

/// Builds a weighted workload: `tasks_per_node[i]` tasks on node `i`, each
/// with a weight drawn from `model`.
pub fn weighted_load(
    tasks_per_node: &[u64],
    model: WeightModel,
    rng: &mut impl Rng,
) -> InitialLoad {
    let mut next_id = 0u64;
    let tasks = tasks_per_node
        .iter()
        .map(|&count| {
            (0..count)
                .map(|_| {
                    let t = Task::new(TaskId(next_id), model.sample(rng));
                    next_id += 1;
                    t
                })
                .collect()
        })
        .collect();
    InitialLoad::from_tasks(tasks)
}

/// How node speeds are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpeedModel {
    /// Every node has speed 1.
    Uniform,
    /// Speeds drawn uniformly from `1..=s_max`.
    UniformRange {
        /// Maximum node speed.
        s_max: u64,
    },
    /// Speeds are powers of two `1, 2, 4, …` assigned round-robin, a
    /// deterministic strongly-heterogeneous profile.
    PowersOfTwo {
        /// Number of distinct speed classes (so the maximum speed is
        /// `2^(classes-1)`).
        classes: u32,
    },
}

impl SpeedModel {
    /// Materialises speeds for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if a `PowersOfTwo` model is asked for 0 classes or more than
    /// 64 (its fastest speed, `2^(classes-1)`, must fit in a `u64`).
    pub fn generate(&self, n: usize, rng: &mut impl Rng) -> Speeds {
        let values: Vec<u64> = match *self {
            SpeedModel::Uniform => vec![1; n],
            SpeedModel::UniformRange { s_max } => {
                (0..n).map(|_| rng.gen_range(1..=s_max.max(1))).collect()
            }
            SpeedModel::PowersOfTwo { classes } => {
                assert!(
                    (1..=u64::BITS).contains(&classes),
                    "need 1..=64 speed classes, got {classes}"
                );
                (0..n).map(|i| 1u64 << (i as u32 % classes)).collect()
            }
        };
        // lint: allow(R03, every generator arm above yields positive speeds)
        Speeds::new(values).expect("generated speeds are always positive")
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            SpeedModel::Uniform => "uniform".to_string(),
            SpeedModel::UniformRange { s_max } => format!("uniform[1..={s_max}]"),
            SpeedModel::PowersOfTwo { classes } => format!("powers_of_two({classes})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unit_model_produces_tokens() {
        let mut rng = StdRng::seed_from_u64(0);
        let load = weighted_load(&[3, 2], WeightModel::Unit, &mut rng);
        assert!(load.is_unit_weight());
        assert_eq!(load.task_count(), 5);
        assert_eq!(load.max_weight(), 1);
        assert_eq!(WeightModel::Unit.w_max(), 1);
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = WeightModel::UniformRange { w_max: 5 };
        let load = weighted_load(&[200], model, &mut rng);
        assert!(load.max_weight() <= 5);
        assert!(load.total_weight() >= 200);
        assert_eq!(model.w_max(), 5);
        for t in load.tasks_of(0) {
            assert!((1..=5).contains(&t.weight()));
        }
    }

    #[test]
    fn bimodal_has_only_two_weight_levels() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = WeightModel::Bimodal {
            w_max: 8,
            heavy_percent: 25,
        };
        let load = weighted_load(&[400], model, &mut rng);
        let mut saw_heavy = false;
        for t in load.tasks_of(0) {
            assert!(t.weight() == 1 || t.weight() == 8);
            saw_heavy |= t.weight() == 8;
        }
        assert!(saw_heavy, "25% heavy share should appear in 400 samples");
    }

    #[test]
    fn speed_models_generate_valid_speeds() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = SpeedModel::Uniform.generate(5, &mut rng);
        assert!(s.is_uniform());

        let s = SpeedModel::UniformRange { s_max: 4 }.generate(100, &mut rng);
        assert!(s.max() <= 4);
        assert!(s.as_slice().iter().all(|&v| v >= 1));

        let s = SpeedModel::PowersOfTwo { classes: 3 }.generate(6, &mut rng);
        assert_eq!(s.as_slice(), &[1, 2, 4, 1, 2, 4]);
    }

    #[test]
    fn labels_are_informative() {
        assert!(WeightModel::UniformRange { w_max: 7 }.label().contains('7'));
        assert!(SpeedModel::PowersOfTwo { classes: 4 }.label().contains('4'));
        assert_eq!(SpeedModel::Uniform.label(), "uniform");
        assert!(WeightModel::Bimodal {
            w_max: 3,
            heavy_percent: 10
        }
        .label()
        .contains("10%"));
    }

    #[test]
    fn weight_samples_are_deterministic_per_seed() {
        let model = WeightModel::UniformRange { w_max: 9 };
        let a = weighted_load(&[50], model, &mut StdRng::seed_from_u64(7));
        let b = weighted_load(&[50], model, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
