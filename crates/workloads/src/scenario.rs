//! Dynamic-workload scenarios: a declarative spec for "what happens each
//! round" — task arrivals, task completions and topology churn — plus a
//! deterministic event stream that materialises the spec.
//!
//! A [`Scenario`] serialises to and from JSON through [`lb_analysis::Json`]
//! (the workspace builds offline, without serde), so scenario files can be
//! committed, diffed and replayed: the same spec and seed produce
//! bit-identical event streams and therefore bit-identical trajectories.
//! The JSON schema is documented in ROADMAP.md (`## Scenario spec`), with a
//! runnable example at `examples/scenario_poisson.json`.
//!
//! The spec layer is engine-agnostic: it produces [`RoundEvents`] batches
//! and leaves graph construction and engine choice to the driver
//! (`lb-bench`'s `lb run`).

use lb_analysis::Json;
use lb_core::discrete::RoundEvents;
use lb_core::{Speeds, Task, TaskId, Weight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distributions::TokenDistribution;

/// Which discrete algorithm a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// Algorithm 1 — deterministic flow imitation.
    Alg1,
    /// Algorithm 2 — randomized flow imitation (unit tasks only).
    Alg2,
}

impl AlgorithmSpec {
    /// The JSON string form.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlgorithmSpec::Alg1 => "alg1",
            AlgorithmSpec::Alg2 => "alg2",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "alg1" => Ok(AlgorithmSpec::Alg1),
            "alg2" => Ok(AlgorithmSpec::Alg2),
            other => Err(format!("unknown algorithm {other:?} (want alg1|alg2)")),
        }
    }
}

/// Which continuous twin the discretizer imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// First-order diffusion.
    Fos,
    /// Second-order diffusion with the optimal β.
    Sos,
}

impl ModelSpec {
    /// The JSON string form.
    pub fn as_str(&self) -> &'static str {
        match self {
            ModelSpec::Fos => "fos",
            ModelSpec::Sos => "sos",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fos" => Ok(ModelSpec::Fos),
            "sos" => Ok(ModelSpec::Sos),
            other => Err(format!("unknown model {other:?} (want fos|sos)")),
        }
    }
}

/// The network a scenario runs on. `family` names a graph class of the
/// experiment harness (`arbitrary`, `expander`, `hypercube`, `torus`,
/// `ring_of_cliques`, `cycle`); the driver resolves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySpec {
    /// Graph family name (resolved by the driver's graph-class registry).
    pub family: String,
    /// Target node count (rounded to whatever the family supports).
    pub target_n: usize,
}

/// How node speeds are assigned (mirrors [`crate::SpeedModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedSpec {
    /// Every node has speed 1.
    Uniform,
    /// Speeds drawn uniformly from `1..=s_max`.
    UniformRange {
        /// Maximum node speed.
        s_max: u64,
    },
    /// Powers of two assigned round-robin over `classes` classes.
    PowersOfTwo {
        /// Number of speed classes.
        classes: u32,
    },
}

impl SpeedSpec {
    /// The equivalent workload-generator model.
    pub fn to_model(self) -> crate::SpeedModel {
        match self {
            SpeedSpec::Uniform => crate::SpeedModel::Uniform,
            SpeedSpec::UniformRange { s_max } => crate::SpeedModel::UniformRange { s_max },
            SpeedSpec::PowersOfTwo { classes } => crate::SpeedModel::PowersOfTwo { classes },
        }
    }
}

/// Initial load: a token distribution scaled to `tokens_per_node · n` total
/// tokens, plus `pad` extra tokens per node and speed unit (the
/// sufficient-initial-load padding of Theorems 3(2)/8(2); `"pad": "degree"`
/// resolves to `d · w_max` at build time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitialSpec {
    /// Where the initial tokens go.
    pub distribution: TokenDistribution,
    /// Average tokens per node (total = `tokens_per_node · n`).
    pub tokens_per_node: u64,
    /// Per-node, per-speed-unit padding.
    pub pad: PadSpec,
}

/// The padding rule of an [`InitialSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PadSpec {
    /// A fixed number of tokens per speed unit.
    Tokens(u64),
    /// `d · w_max` tokens per speed unit — the Theorem 3(2) sufficient-load
    /// condition, resolved against the built graph.
    Degree,
}

/// Per-round task arrival model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// No arrivals (the paper's static-drain setting).
    None,
    /// Poisson(`rate_per_node · n`) tasks per round, each landing on a
    /// uniformly random node.
    Poisson {
        /// Expected arrivals per node per round.
        rate_per_node: f64,
        /// Task weights drawn uniformly from `1..=max_weight`.
        max_weight: Weight,
    },
    /// Quiet rounds punctuated by bursts: every `period` rounds, `burst`
    /// tasks all land on one uniformly chosen node.
    Bursty {
        /// Rounds between bursts.
        period: usize,
        /// Tasks per burst.
        burst: u64,
        /// Task weights drawn uniformly from `1..=max_weight`.
        max_weight: Weight,
    },
    /// Adversarial sustained hot-spot: Poisson(`rate`) tasks per round, all
    /// landing on one fixed node.
    HotSpot {
        /// Expected arrivals per round.
        rate: f64,
        /// The hot node (taken modulo the current node count after churn).
        node: usize,
        /// Task weights drawn uniformly from `1..=max_weight`.
        max_weight: Weight,
    },
}

impl ArrivalSpec {
    /// The heaviest task this model can produce.
    pub fn max_weight(&self) -> Weight {
        match *self {
            ArrivalSpec::None => 1,
            ArrivalSpec::Poisson { max_weight, .. }
            | ArrivalSpec::Bursty { max_weight, .. }
            | ArrivalSpec::HotSpot { max_weight, .. } => max_weight,
        }
    }
}

/// Per-round task completion (service) model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceSpec {
    /// No completions: arrived work stays in the system.
    None,
    /// Every node completes up to `weight_per_speed · s_i` task weight per
    /// round (whole tasks, in pick order).
    Uniform {
        /// Completion budget per speed unit per round.
        weight_per_speed: u64,
    },
}

/// A topology-churn event, applied before the round it names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The round before which the event fires.
    pub round: usize,
    /// What happens.
    pub kind: ChurnKind,
}

/// The kinds of topology churn a scenario can schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnKind {
    /// Rebuild the same family and size with a new generator seed (edge
    /// churn; deterministic families rebuild identically). The driver
    /// computes the old-to-new edge delta and patches the topology in place.
    Rewire {
        /// Generator seed for the rebuilt graph.
        seed: u64,
    },
    /// Rebuild the family at a new size (node churn: nodes join or leave;
    /// orphaned tasks are re-queued on node 0). Always a full rebuild.
    Resize {
        /// New target node count.
        target_n: usize,
        /// Generator seed for the rebuilt graph.
        seed: u64,
    },
    /// Explicit edge churn: splice the listed `(u, v)` pairs out of and
    /// into the current topology (no family generator; the graph and the
    /// diffusion matrix are rebuilt in `O(m)`).
    /// Pairs are canonicalised to `u < v`; endpoints are validated against
    /// the current node count when the event is applied.
    Delta {
        /// Edges to insert.
        add: Vec<(usize, usize)>,
        /// Edges to remove.
        remove: Vec<(usize, usize)>,
    },
}

/// Upper bound on a scenario's `shards`: every shard beyond the first is a
/// persistent OS thread, so an absurd count must be a validation error, not
/// a `thread::spawn` resource-exhaustion abort mid-run.
pub const MAX_SHARDS: usize = 256;

/// Upper bound on an arrival rate (`arrivals.rate_per_node`, and the
/// hot-spot's `arrivals.rate`). The Poisson sampler lowers its mean in
/// chunks of 16, so the mean must be finite and small enough for each chunk
/// to lower it: at 2^20 per node, a graph below 2^33 nodes keeps the mean
/// under 2^53, where the subtraction is exact.
pub const MAX_ARRIVAL_RATE: f64 = 1_048_576.0;

/// Upper bound on a scenario's `federation`: every partition is a full OS
/// process, so an absurd count must be a validation error, not a fork bomb.
pub const MAX_FEDERATION: usize = 64;

/// A complete dynamic-workload scenario.
///
/// See the module docs for the JSON schema; [`Scenario::parse`] /
/// [`Scenario::render_pretty`] round-trip losslessly.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in reports and output file names).
    pub name: String,
    /// Master seed: event stream, speeds, initial distribution and graph
    /// construction all derive deterministic sub-seeds from it.
    pub seed: u64,
    /// Number of balancing rounds.
    pub rounds: usize,
    /// Metric sampling period (round 0 and the final round always sample).
    pub sample_every: usize,
    /// Which discrete algorithm runs.
    pub algorithm: AlgorithmSpec,
    /// Which continuous twin it imitates.
    pub model: ModelSpec,
    /// The network.
    pub topology: TopologySpec,
    /// Node speeds.
    pub speeds: SpeedSpec,
    /// Initial load.
    pub initial: InitialSpec,
    /// Arrival process.
    pub arrivals: ArrivalSpec,
    /// Completion process.
    pub completions: ServiceSpec,
    /// Scheduled topology churn, sorted by round.
    pub churn: Vec<ChurnEvent>,
    /// Intra-instance parallelism: how many node-range shards the engine
    /// splits each round across (1 = sequential). Trajectories are
    /// bit-identical for every shard count; this only trades wall-clock time.
    pub shards: usize,
    /// Inter-process parallelism: how many federated partitions (worker
    /// processes) `lb federate` splits the simulation across (1 = a single
    /// process). Like `shards`, this never changes the result — `lb run`
    /// ignores it and a federated run is bit-identical to a sequential one —
    /// so it is exempt from trace-header authentication.
    pub federation: usize,
}

impl Scenario {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if self.rounds == 0 {
            return Err("rounds must be positive".into());
        }
        if self.sample_every == 0 {
            return Err("sample_every must be positive".into());
        }
        if self.shards == 0 {
            return Err("shards must be at least 1".into());
        }
        if self.shards > MAX_SHARDS {
            return Err(format!(
                "shards is {}, above the maximum of {MAX_SHARDS} (each shard beyond the \
                 first is an OS thread)",
                self.shards
            ));
        }
        if self.federation == 0 {
            return Err("federation must be at least 1".into());
        }
        if self.federation > MAX_FEDERATION {
            return Err(format!(
                "federation is {}, above the maximum of {MAX_FEDERATION} (each partition \
                 is an OS process)",
                self.federation
            ));
        }
        if self.topology.target_n < 2 {
            return Err("topology.target_n must be at least 2".into());
        }
        if self.topology.family.is_empty() {
            return Err("topology.family must not be empty".into());
        }
        if let SpeedSpec::PowersOfTwo { classes } = self.speeds {
            if !(1..=u64::BITS).contains(&classes) {
                return Err(format!(
                    "speeds.classes is {classes}, outside 1..={} (the fastest class is \
                     2^(classes - 1), a u64)",
                    u64::BITS
                ));
            }
        }
        let rates = 0.0..=MAX_ARRIVAL_RATE;
        match self.arrivals {
            ArrivalSpec::Poisson { rate_per_node, .. } if !rates.contains(&rate_per_node) => {
                return Err(format!(
                    "arrivals.rate_per_node must be a number in 0..={MAX_ARRIVAL_RATE}"
                ));
            }
            ArrivalSpec::HotSpot { rate, .. } if !rates.contains(&rate) => {
                return Err(format!(
                    "arrivals.rate must be a number in 0..={MAX_ARRIVAL_RATE}"
                ));
            }
            ArrivalSpec::Bursty { period: 0, .. } => {
                return Err("arrivals.period must be positive".into());
            }
            _ => {}
        }
        if self.arrivals.max_weight() == 0 {
            return Err("arrivals.max_weight must be at least 1".into());
        }
        if self.algorithm == AlgorithmSpec::Alg2 && self.arrivals.max_weight() != 1 {
            return Err("alg2 requires unit-weight arrivals (max_weight = 1)".into());
        }
        let mut last = 0usize;
        for event in &self.churn {
            if event.round < last {
                return Err("churn events must be sorted by round".into());
            }
            if event.round >= self.rounds {
                return Err(format!(
                    "churn event at round {} is beyond the run ({} rounds)",
                    event.round, self.rounds
                ));
            }
            match &event.kind {
                ChurnKind::Resize { target_n, .. } => {
                    if *target_n < 2 {
                        return Err("churn resize target_n must be at least 2".into());
                    }
                }
                ChurnKind::Delta { add, remove } => {
                    // Endpoint range depends on the node count at apply time
                    // (earlier resizes may change it), so only shape errors
                    // are catchable here; range errors surface when the
                    // delta is applied.
                    for &(u, v) in add.iter().chain(remove) {
                        if u == v {
                            return Err(format!("churn delta edge ({u}, {v}) is a self-loop"));
                        }
                    }
                }
                ChurnKind::Rewire { .. } => {}
            }
            last = event.round;
        }
        Ok(())
    }

    /// Parses a scenario from JSON text and validates it.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or schema error.
    pub fn parse(text: &str) -> Result<Self, String> {
        let scenario = Self::from_json(&Json::parse(text)?)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Renders the scenario as pretty-printed JSON.
    pub fn render_pretty(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Builds the JSON representation.
    pub fn to_json(&self) -> Json {
        let arrivals = match self.arrivals {
            ArrivalSpec::None => Json::obj([("model", Json::from("none"))]),
            ArrivalSpec::Poisson {
                rate_per_node,
                max_weight,
            } => Json::obj([
                ("model", Json::from("poisson")),
                ("rate_per_node", Json::from(rate_per_node)),
                ("max_weight", Json::from(max_weight)),
            ]),
            ArrivalSpec::Bursty {
                period,
                burst,
                max_weight,
            } => Json::obj([
                ("model", Json::from("bursty")),
                ("period", Json::from(period)),
                ("burst", Json::from(burst)),
                ("max_weight", Json::from(max_weight)),
            ]),
            ArrivalSpec::HotSpot {
                rate,
                node,
                max_weight,
            } => Json::obj([
                ("model", Json::from("hotspot")),
                ("rate", Json::from(rate)),
                ("node", Json::from(node)),
                ("max_weight", Json::from(max_weight)),
            ]),
        };
        let completions = match self.completions {
            ServiceSpec::None => Json::obj([("model", Json::from("none"))]),
            ServiceSpec::Uniform { weight_per_speed } => Json::obj([
                ("model", Json::from("uniform")),
                ("weight_per_speed", Json::from(weight_per_speed)),
            ]),
        };
        let speeds = match self.speeds {
            SpeedSpec::Uniform => Json::obj([("model", Json::from("uniform"))]),
            SpeedSpec::UniformRange { s_max } => Json::obj([
                ("model", Json::from("uniform_range")),
                ("s_max", Json::from(s_max)),
            ]),
            SpeedSpec::PowersOfTwo { classes } => Json::obj([
                ("model", Json::from("powers_of_two")),
                ("classes", Json::from(u64::from(classes))),
            ]),
        };
        let distribution = match self.initial.distribution {
            TokenDistribution::SingleSource { source } => Json::obj([
                ("model", Json::from("single_source")),
                ("source", Json::from(source)),
            ]),
            TokenDistribution::UniformRandom => {
                Json::obj([("model", Json::from("uniform_random"))])
            }
            TokenDistribution::AlmostBalanced => {
                Json::obj([("model", Json::from("almost_balanced"))])
            }
            TokenDistribution::Geometric { ratio_percent } => Json::obj([
                ("model", Json::from("geometric")),
                ("ratio_percent", Json::from(u64::from(ratio_percent))),
            ]),
        };
        let pad = match self.initial.pad {
            PadSpec::Tokens(t) => Json::from(t),
            PadSpec::Degree => Json::from("degree"),
        };
        let edge_list = |pairs: &[(usize, usize)]| {
            Json::Arr(
                pairs
                    .iter()
                    .map(|&(u, v)| Json::Arr(vec![Json::from(u), Json::from(v)]))
                    .collect(),
            )
        };
        let churn = self
            .churn
            .iter()
            .map(|event| match &event.kind {
                ChurnKind::Rewire { seed } => Json::obj([
                    ("round", Json::from(event.round)),
                    ("kind", Json::from("rewire")),
                    ("seed", Json::from(*seed)),
                ]),
                ChurnKind::Resize { target_n, seed } => Json::obj([
                    ("round", Json::from(event.round)),
                    ("kind", Json::from("resize")),
                    ("target_n", Json::from(*target_n)),
                    ("seed", Json::from(*seed)),
                ]),
                ChurnKind::Delta { add, remove } => Json::obj([
                    ("round", Json::from(event.round)),
                    ("kind", Json::from("delta")),
                    ("add", edge_list(add)),
                    ("remove", edge_list(remove)),
                ]),
            })
            .collect();
        Json::obj([
            ("name", Json::from(self.name.clone())),
            ("seed", Json::from(self.seed)),
            ("rounds", Json::from(self.rounds)),
            ("sample_every", Json::from(self.sample_every)),
            ("shards", Json::from(self.shards)),
            ("federation", Json::from(self.federation)),
            ("algorithm", Json::from(self.algorithm.as_str())),
            ("model", Json::from(self.model.as_str())),
            (
                "topology",
                Json::obj([
                    ("family", Json::from(self.topology.family.clone())),
                    ("target_n", Json::from(self.topology.target_n)),
                ]),
            ),
            ("speeds", speeds),
            (
                "initial",
                Json::obj([
                    ("distribution", distribution),
                    ("tokens_per_node", Json::from(self.initial.tokens_per_node)),
                    ("pad", pad),
                ]),
            ),
            ("arrivals", arrivals),
            ("completions", completions),
            ("churn", Json::Arr(churn)),
        ])
    }

    /// Builds a scenario from its JSON representation. Optional sections
    /// (`speeds`, `arrivals`, `completions`, `churn`, `shards`,
    /// `federation`) default to uniform speeds, no arrivals, no completions,
    /// no churn, one shard and one partition.
    ///
    /// # Errors
    ///
    /// Returns the first schema violation.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let str_field = |obj: &Json, key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {key:?}"))
        };
        let u64_field = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        };
        let u32_field = |obj: &Json, key: &str| -> Result<u32, String> {
            let value = u64_field(obj, key)?;
            u32::try_from(value)
                .map_err(|_| format!("field {key:?} is {value}, out of range (max {})", u32::MAX))
        };
        let usize_field = |obj: &Json, key: &str| -> Result<usize, String> {
            obj.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        };
        let f64_field = |obj: &Json, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
        };
        let weight_or_one = |obj: &Json| -> Result<Weight, String> {
            match obj.get("max_weight") {
                None => Ok(1),
                Some(w) => w.as_u64().ok_or("max_weight must be an integer".into()),
            }
        };

        let topology = json.get("topology").ok_or("missing field \"topology\"")?;
        let speeds = match json.get("speeds") {
            None => SpeedSpec::Uniform,
            Some(spec) => match str_field(spec, "model")?.as_str() {
                "uniform" => SpeedSpec::Uniform,
                "uniform_range" => SpeedSpec::UniformRange {
                    s_max: u64_field(spec, "s_max")?,
                },
                "powers_of_two" => SpeedSpec::PowersOfTwo {
                    classes: u32_field(spec, "classes")?,
                },
                other => return Err(format!("unknown speeds.model {other:?}")),
            },
        };
        let initial = json.get("initial").ok_or("missing field \"initial\"")?;
        let dist_spec = initial
            .get("distribution")
            .ok_or("missing field initial.distribution")?;
        let distribution = match str_field(dist_spec, "model")?.as_str() {
            "single_source" => TokenDistribution::SingleSource {
                source: match dist_spec.get("source") {
                    None => 0,
                    Some(s) => s.as_usize().ok_or("source must be an integer")?,
                },
            },
            "uniform_random" => TokenDistribution::UniformRandom,
            "almost_balanced" => TokenDistribution::AlmostBalanced,
            "geometric" => TokenDistribution::Geometric {
                ratio_percent: u32_field(dist_spec, "ratio_percent")?,
            },
            other => return Err(format!("unknown initial.distribution.model {other:?}")),
        };
        let pad = match initial.get("pad") {
            None => PadSpec::Tokens(0),
            Some(Json::Str(s)) if s == "degree" => PadSpec::Degree,
            Some(v) => PadSpec::Tokens(v.as_u64().ok_or("pad must be an integer or \"degree\"")?),
        };
        let arrivals = match json.get("arrivals") {
            None => ArrivalSpec::None,
            Some(spec) => match str_field(spec, "model")?.as_str() {
                "none" => ArrivalSpec::None,
                "poisson" => ArrivalSpec::Poisson {
                    rate_per_node: f64_field(spec, "rate_per_node")?,
                    max_weight: weight_or_one(spec)?,
                },
                "bursty" => ArrivalSpec::Bursty {
                    period: usize_field(spec, "period")?,
                    burst: u64_field(spec, "burst")?,
                    max_weight: weight_or_one(spec)?,
                },
                "hotspot" => ArrivalSpec::HotSpot {
                    rate: f64_field(spec, "rate")?,
                    node: usize_field(spec, "node")?,
                    max_weight: weight_or_one(spec)?,
                },
                other => return Err(format!("unknown arrivals.model {other:?}")),
            },
        };
        let completions = match json.get("completions") {
            None => ServiceSpec::None,
            Some(spec) => match str_field(spec, "model")?.as_str() {
                "none" => ServiceSpec::None,
                "uniform" => ServiceSpec::Uniform {
                    weight_per_speed: u64_field(spec, "weight_per_speed")?,
                },
                other => return Err(format!("unknown completions.model {other:?}")),
            },
        };
        let churn = match json.get("churn") {
            None => Vec::new(),
            Some(events) => events
                .as_array()
                .ok_or("churn must be an array")?
                .iter()
                .map(|event| {
                    let round = usize_field(event, "round")?;
                    let kind = match str_field(event, "kind")?.as_str() {
                        "rewire" => ChurnKind::Rewire {
                            seed: u64_field(event, "seed")?,
                        },
                        "resize" => ChurnKind::Resize {
                            target_n: usize_field(event, "target_n")?,
                            seed: u64_field(event, "seed")?,
                        },
                        "delta" => {
                            let edge_list = |key: &str| -> Result<Vec<(usize, usize)>, String> {
                                match event.get(key) {
                                    None => Ok(Vec::new()),
                                    Some(list) => list
                                        .as_array()
                                        .ok_or_else(|| {
                                            format!("churn delta {key:?} must be an array")
                                        })?
                                        .iter()
                                        .map(|pair| {
                                            let pair = pair.as_array().filter(|p| p.len() == 2);
                                            match pair {
                                                Some(p) => {
                                                    let u = p[0].as_usize();
                                                    let v = p[1].as_usize();
                                                    match (u, v) {
                                                        (Some(u), Some(v)) => Ok((u, v)),
                                                        _ => Err(format!(
                                                            "churn delta {key:?} entries must \
                                                             hold two non-negative integers"
                                                        )),
                                                    }
                                                }
                                                None => Err(format!(
                                                    "churn delta {key:?} entries must be \
                                                     [u, v] pairs"
                                                )),
                                            }
                                        })
                                        .collect(),
                                }
                            };
                            ChurnKind::Delta {
                                add: edge_list("add")?,
                                remove: edge_list("remove")?,
                            }
                        }
                        other => return Err(format!("unknown churn kind {other:?}")),
                    };
                    Ok(ChurnEvent { round, kind })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };

        Ok(Scenario {
            name: str_field(json, "name")?,
            seed: u64_field(json, "seed")?,
            rounds: usize_field(json, "rounds")?,
            sample_every: usize_field(json, "sample_every")?,
            shards: match json.get("shards") {
                None => 1,
                Some(_) => usize_field(json, "shards")?,
            },
            federation: match json.get("federation") {
                None => 1,
                Some(_) => usize_field(json, "federation")?,
            },
            algorithm: AlgorithmSpec::parse(&str_field(json, "algorithm")?)?,
            model: ModelSpec::parse(&str_field(json, "model")?)?,
            topology: TopologySpec {
                family: str_field(topology, "family")?,
                target_n: usize_field(topology, "target_n")?,
            },
            speeds,
            initial: InitialSpec {
                distribution,
                tokens_per_node: u64_field(initial, "tokens_per_node")?,
                pad,
            },
            arrivals,
            completions,
            churn,
        })
    }
}

/// Draws one Poisson(`lambda`) sample via chunked Knuth multiplication —
/// exact in distribution (a Poisson sum of Poissons), numerically safe for
/// large means, and deterministic per RNG state.
fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    let mut remaining = lambda;
    let mut total = 0u64;
    while remaining > 0.0 {
        let chunk = remaining.min(16.0);
        remaining -= chunk;
        let limit = (-chunk).exp();
        let mut product: f64 = rng.gen_range(0.0..1.0);
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen_range(0.0..1.0);
            count += 1;
        }
        total += count;
    }
    total
}

/// Materialises a scenario's arrival and completion streams as per-round
/// [`RoundEvents`] batches, deterministically per seed.
///
/// The stream is topology-aware: after churn, call
/// [`set_topology`](ScenarioEvents::set_topology) so arrivals target the new
/// node range and completion budgets follow the new speeds.
#[derive(Debug, Clone)]
pub struct ScenarioEvents {
    rng: StdRng,
    arrivals: ArrivalSpec,
    completions: ServiceSpec,
    next_task_id: u64,
    speeds: Vec<u64>,
}

impl ScenarioEvents {
    /// Creates the stream for `scenario` on a built topology with `speeds`.
    /// `first_task_id` must exceed every id in the initial load so arrival
    /// ids never collide.
    pub fn new(scenario: &Scenario, speeds: &Speeds, first_task_id: u64) -> Self {
        ScenarioEvents {
            // A fixed offset decorrelates the event stream from the other
            // consumers of the master seed (graph build, speeds, initial).
            rng: StdRng::seed_from_u64(scenario.seed.wrapping_add(0x5EED_E4E7)),
            arrivals: scenario.arrivals,
            completions: scenario.completions,
            next_task_id: first_task_id,
            speeds: speeds.as_slice().to_vec(),
        }
    }

    /// Updates node count and speeds after topology churn.
    pub fn set_topology(&mut self, speeds: &Speeds) {
        self.speeds.clear();
        self.speeds.extend_from_slice(speeds.as_slice());
    }

    /// The id the next arriving task will get.
    pub fn next_task_id(&self) -> u64 {
        self.next_task_id
    }

    /// Fills `out` with the events of round `round` (cleared first). The
    /// batch lists completions before arrivals, matching the order
    /// `apply_events` consumes them in.
    pub fn fill_round(&mut self, round: usize, out: &mut RoundEvents) {
        out.clear();
        let n = self.speeds.len();
        match self.completions {
            ServiceSpec::None => {}
            ServiceSpec::Uniform { weight_per_speed } => {
                if weight_per_speed > 0 {
                    for (node, &speed) in self.speeds.iter().enumerate() {
                        // A budget beyond u64 completes everything.
                        let budget = weight_per_speed.saturating_mul(speed);
                        out.completions.push((node, budget));
                    }
                }
            }
        }
        let mut push_arrival = |rng: &mut StdRng, next_id: &mut u64, node: usize, wmax: Weight| {
            let weight = if wmax <= 1 {
                1
            } else {
                rng.gen_range(1..=wmax)
            };
            let task = Task::new(TaskId(*next_id), weight);
            *next_id += 1;
            out.arrivals.push((node, task));
        };
        match self.arrivals {
            ArrivalSpec::None => {}
            ArrivalSpec::Poisson {
                rate_per_node,
                max_weight,
            } => {
                let count = poisson(&mut self.rng, rate_per_node * n as f64);
                for _ in 0..count {
                    let node = self.rng.gen_range(0..n);
                    push_arrival(&mut self.rng, &mut self.next_task_id, node, max_weight);
                }
            }
            ArrivalSpec::Bursty {
                period,
                burst,
                max_weight,
            } => {
                if (round + 1).is_multiple_of(period) {
                    let node = self.rng.gen_range(0..n);
                    for _ in 0..burst {
                        push_arrival(&mut self.rng, &mut self.next_task_id, node, max_weight);
                    }
                }
            }
            ArrivalSpec::HotSpot {
                rate,
                node,
                max_weight,
            } => {
                let count = poisson(&mut self.rng, rate);
                let node = node % n;
                for _ in 0..count {
                    push_arrival(&mut self.rng, &mut self.next_task_id, node, max_weight);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario() -> Scenario {
        Scenario {
            name: "test".into(),
            seed: 7,
            rounds: 100,
            sample_every: 10,
            algorithm: AlgorithmSpec::Alg1,
            model: ModelSpec::Fos,
            topology: TopologySpec {
                family: "torus".into(),
                target_n: 64,
            },
            speeds: SpeedSpec::PowersOfTwo { classes: 2 },
            initial: InitialSpec {
                distribution: TokenDistribution::SingleSource { source: 3 },
                tokens_per_node: 8,
                pad: PadSpec::Degree,
            },
            arrivals: ArrivalSpec::Poisson {
                rate_per_node: 0.5,
                max_weight: 2,
            },
            completions: ServiceSpec::Uniform {
                weight_per_speed: 1,
            },
            churn: vec![
                ChurnEvent {
                    round: 40,
                    kind: ChurnKind::Rewire { seed: 11 },
                },
                ChurnEvent {
                    round: 55,
                    kind: ChurnKind::Delta {
                        add: vec![(0, 9), (3, 17)],
                        remove: vec![(1, 2)],
                    },
                },
                ChurnEvent {
                    round: 70,
                    kind: ChurnKind::Resize {
                        target_n: 32,
                        seed: 12,
                    },
                },
            ],
            shards: 1,
            federation: 1,
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let scenario = sample_scenario();
        let text = scenario.render_pretty();
        let parsed = Scenario::parse(&text).expect("round-trips");
        assert_eq!(parsed, scenario);
    }

    #[test]
    fn churn_delta_lists_default_to_empty_and_self_loops_are_rejected() {
        let text = r#"{
            "name": "d", "seed": 1, "rounds": 10, "sample_every": 2,
            "algorithm": "alg1", "model": "fos",
            "topology": {"family": "torus", "target_n": 16},
            "initial": {"distribution": {"model": "uniform_random"}, "tokens_per_node": 4},
            "churn": [{"round": 4, "kind": "delta"}]
        }"#;
        let scenario = Scenario::parse(text).expect("delta without lists parses");
        assert_eq!(
            scenario.churn[0].kind,
            ChurnKind::Delta {
                add: vec![],
                remove: vec![]
            }
        );

        let mut bad = sample_scenario();
        bad.churn = vec![ChurnEvent {
            round: 4,
            kind: ChurnKind::Delta {
                add: vec![(3, 3)],
                remove: vec![],
            },
        }];
        let err = bad.validate().expect_err("self-loop rejected");
        assert!(err.contains("self-loop"), "{err}");
    }

    #[test]
    fn optional_sections_default() {
        let text = r#"{
            "name": "minimal", "seed": 1, "rounds": 10, "sample_every": 2,
            "algorithm": "alg2", "model": "sos",
            "topology": {"family": "hypercube", "target_n": 16},
            "initial": {"distribution": {"model": "uniform_random"}, "tokens_per_node": 4}
        }"#;
        let scenario = Scenario::parse(text).expect("minimal scenario parses");
        assert_eq!(scenario.speeds, SpeedSpec::Uniform);
        assert_eq!(scenario.arrivals, ArrivalSpec::None);
        assert_eq!(scenario.completions, ServiceSpec::None);
        assert!(scenario.churn.is_empty());
        assert_eq!(scenario.initial.pad, PadSpec::Tokens(0));
        assert_eq!(scenario.shards, 1, "shards defaults to sequential");
        assert_eq!(scenario.federation, 1, "federation defaults to one process");
    }

    #[test]
    fn out_of_range_federation_is_rejected() {
        let mut s = sample_scenario();
        s.federation = 0;
        let err = s.validate().expect_err("zero federation rejected");
        assert!(err.contains("federation"), "{err}");
        let mut s = sample_scenario();
        s.federation = MAX_FEDERATION + 1;
        let err = s.validate().expect_err("oversized federation rejected");
        assert!(err.contains("maximum"), "{err}");
        let mut s = sample_scenario();
        s.federation = 4;
        s.validate().expect("a 4-partition scenario is valid");
        let parsed = Scenario::parse(&s.render_pretty()).expect("federation round-trips");
        assert_eq!(parsed.federation, 4);
    }

    #[test]
    fn big_seeds_round_trip_exactly() {
        // Seeds above 2^53 used to be rounded through f64 by the JSON layer;
        // the exact integer path must preserve every u64 bit for bit.
        for seed in [(1u64 << 53) + 1, u64::MAX, 0xDEAD_BEEF_DEAD_BEEF] {
            let scenario = Scenario {
                seed,
                ..sample_scenario()
            };
            let parsed = Scenario::parse(&scenario.render_pretty()).expect("round-trips");
            assert_eq!(parsed.seed, seed, "seed {seed} must survive a round trip");
            assert_eq!(parsed, scenario);
        }
    }

    #[test]
    fn out_of_range_u32_fields_are_parse_errors() {
        // `classes` and `ratio_percent` are u32 in the spec types; values
        // beyond u32::MAX used to truncate silently through `as u32`.
        let mut scenario = sample_scenario();
        scenario.churn.clear();
        let base = scenario.render_pretty();

        let too_many_classes = base.replace(
            r#""model": "powers_of_two",
    "classes": 2"#,
            r#""model": "powers_of_two",
    "classes": 4294967296"#,
        );
        assert_ne!(too_many_classes, base, "replacement must hit the document");
        let err = Scenario::parse(&too_many_classes).expect_err("rejects 2^32 classes");
        assert!(
            err.contains("classes") && err.contains("out of range"),
            "{err}"
        );

        let geometric = base.replace(
            r#""model": "single_source",
      "source": 3"#,
            r#""model": "geometric",
      "ratio_percent": 4294967297"#,
        );
        assert_ne!(geometric, base, "replacement must hit the document");
        let err = Scenario::parse(&geometric).expect_err("rejects out-of-range ratio_percent");
        assert!(
            err.contains("ratio_percent") && err.contains("out of range"),
            "{err}"
        );

        // In-range values still parse.
        let ok = base.replace(
            r#""model": "single_source",
      "source": 3"#,
            r#""model": "geometric",
      "ratio_percent": 55"#,
        );
        let parsed = Scenario::parse(&ok).expect("in-range ratio_percent parses");
        assert_eq!(
            parsed.initial.distribution,
            TokenDistribution::Geometric { ratio_percent: 55 }
        );
    }

    #[test]
    fn zero_period_bursts_are_rejected() {
        // `period: 0` would make `(round + 1).is_multiple_of(0)` never true:
        // the burst silently never fires. Validation must reject it instead.
        let mut s = sample_scenario();
        s.arrivals = ArrivalSpec::Bursty {
            period: 0,
            burst: 10,
            max_weight: 1,
        };
        let err = s.validate().expect_err("zero period rejected");
        assert!(err.contains("period"), "{err}");
        // And the parse entry point applies validation too.
        let text = s.render_pretty();
        assert!(Scenario::parse(&text).is_err(), "parse validates period");
    }

    #[test]
    fn out_of_range_shards_are_rejected() {
        let mut s = sample_scenario();
        s.shards = 0;
        let err = s.validate().expect_err("zero shards rejected");
        assert!(err.contains("shards"), "{err}");
        // Every shard beyond the first is an OS thread: absurd counts must
        // fail validation instead of aborting in `thread::spawn`.
        let mut s = sample_scenario();
        s.shards = MAX_SHARDS + 1;
        let err = s.validate().expect_err("oversized shards rejected");
        assert!(err.contains("maximum"), "{err}");
        let mut s = sample_scenario();
        s.shards = MAX_SHARDS;
        s.validate().expect("maximum shard count is allowed");
        s.shards = 7;
        let parsed = Scenario::parse(&s.render_pretty()).expect("shards round-trip");
        assert_eq!(parsed.shards, 7);
    }

    #[test]
    fn speed_classes_outside_one_to_64_are_rejected() {
        // 0 classes divides by zero in the generator; above 64 the shift
        // `1u64 << class` overflows.
        for classes in [0, 65, 70, u32::MAX] {
            let mut s = sample_scenario();
            s.speeds = SpeedSpec::PowersOfTwo { classes };
            let err = s.validate().expect_err("out-of-range classes rejected");
            assert!(err.contains("speeds.classes"), "{classes}: {err}");
            let err = Scenario::parse(&s.render_pretty()).expect_err("parse validates classes");
            assert!(err.contains("speeds.classes"), "{classes}: {err}");
        }
        for classes in [1, 64] {
            let mut s = sample_scenario();
            s.speeds = SpeedSpec::PowersOfTwo { classes };
            s.validate().expect("classes in 1..=64 are valid");
        }
    }

    #[test]
    fn arrival_rates_must_be_finite_and_bounded() {
        // An infinite or huge mean never shrinks under the sampler's
        // `remaining -= 16.0`, so the run would hang before round 0.
        let poisson = |rate_per_node| ArrivalSpec::Poisson {
            rate_per_node,
            max_weight: 1,
        };
        let hotspot = |rate| ArrivalSpec::HotSpot {
            rate,
            node: 0,
            max_weight: 1,
        };
        let bad = [f64::NAN, f64::INFINITY, 1e300, MAX_ARRIVAL_RATE * 2.0, -1.0];
        for rate in bad {
            for (arrivals, field) in [
                (poisson(rate), "arrivals.rate_per_node"),
                (hotspot(rate), "arrivals.rate"),
            ] {
                let mut s = sample_scenario();
                s.arrivals = arrivals;
                let err = s.validate().expect_err("bad rate rejected");
                assert!(err.contains(field), "{rate}: {err}");
            }
        }
        for rate in [0.0, 0.5, MAX_ARRIVAL_RATE] {
            for arrivals in [poisson(rate), hotspot(rate)] {
                let mut s = sample_scenario();
                s.arrivals = arrivals;
                s.validate().expect("a bounded rate is valid");
            }
        }
        // `1e400` parses as +inf, which validation rejects.
        let mut s = sample_scenario();
        s.churn.clear();
        let text = s.render_pretty();
        let text_inf = text.replace(r#""rate_per_node": 0.5"#, r#""rate_per_node": 1e400"#);
        assert_ne!(text_inf, text, "replacement must hit the document");
        let err = Scenario::parse(&text_inf).expect_err("an infinite rate fails to parse");
        assert!(err.contains("arrivals.rate_per_node"), "{err}");
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut s = sample_scenario();
        s.rounds = 0;
        assert!(s.validate().is_err());

        let mut s = sample_scenario();
        s.churn[0].round = 99999;
        assert!(s.validate().is_err());

        let mut s = sample_scenario();
        s.churn.swap(0, 1);
        assert!(s.validate().is_err(), "unsorted churn rejected");

        let mut s = sample_scenario();
        s.algorithm = AlgorithmSpec::Alg2;
        assert!(
            s.validate().is_err(),
            "alg2 with weighted arrivals rejected"
        );

        let mut s = sample_scenario();
        s.arrivals = ArrivalSpec::Poisson {
            rate_per_node: f64::NAN,
            max_weight: 1,
        };
        assert!(s.validate().is_err(), "NaN rate rejected");
    }

    #[test]
    fn event_stream_is_deterministic_per_seed() {
        let scenario = sample_scenario();
        let speeds = Speeds::uniform(64);
        let mut a = ScenarioEvents::new(&scenario, &speeds, 1_000);
        let mut b = ScenarioEvents::new(&scenario, &speeds, 1_000);
        let mut ea = RoundEvents::default();
        let mut eb = RoundEvents::default();
        for round in 0..50 {
            a.fill_round(round, &mut ea);
            b.fill_round(round, &mut eb);
            assert_eq!(ea.arrivals, eb.arrivals, "round {round}");
            assert_eq!(ea.completions, eb.completions, "round {round}");
        }
        assert_eq!(a.next_task_id(), b.next_task_id());
        assert!(a.next_task_id() > 1_000, "some arrivals were generated");
    }

    #[test]
    fn poisson_mean_is_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        for &lambda in &[0.5, 4.0, 40.0] {
            let trials = 2_000;
            let total: u64 = (0..trials).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / trials as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.15,
                "lambda {lambda}: empirical mean {mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn bursts_land_on_a_single_node() {
        let scenario = Scenario {
            arrivals: ArrivalSpec::Bursty {
                period: 10,
                burst: 25,
                max_weight: 1,
            },
            completions: ServiceSpec::None,
            ..sample_scenario()
        };
        let speeds = Speeds::uniform(64);
        let mut events = ScenarioEvents::new(&scenario, &speeds, 0);
        let mut out = RoundEvents::default();
        let mut burst_rounds = 0;
        for round in 0..40 {
            events.fill_round(round, &mut out);
            if !out.arrivals.is_empty() {
                burst_rounds += 1;
                assert_eq!(out.arrivals.len(), 25);
                let node = out.arrivals[0].0;
                assert!(out.arrivals.iter().all(|&(v, _)| v == node));
            }
        }
        assert_eq!(burst_rounds, 4, "one burst per period");
    }

    #[test]
    fn completion_budgets_follow_speeds() {
        let scenario = Scenario {
            arrivals: ArrivalSpec::None,
            ..sample_scenario()
        };
        let speeds = Speeds::new(vec![1, 2, 4]).unwrap();
        let mut events = ScenarioEvents::new(&scenario, &speeds, 0);
        let mut out = RoundEvents::default();
        events.fill_round(0, &mut out);
        assert_eq!(out.completions, vec![(0, 1), (1, 2), (2, 4)]);
        // Topology change: budgets follow the new speeds.
        events.set_topology(&Speeds::uniform(2));
        events.fill_round(1, &mut out);
        assert_eq!(out.completions, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn completion_budgets_saturate_instead_of_wrapping() {
        // 2^63 · 2 wrapped to 0 in release builds, so a larger budget
        // completed less; a budget beyond u64 now completes everything.
        let scenario = Scenario {
            arrivals: ArrivalSpec::None,
            completions: ServiceSpec::Uniform {
                weight_per_speed: 1 << 63,
            },
            ..sample_scenario()
        };
        let speeds = Speeds::new(vec![1, 2, 4]).unwrap();
        let mut events = ScenarioEvents::new(&scenario, &speeds, 0);
        let mut out = RoundEvents::default();
        events.fill_round(0, &mut out);
        assert_eq!(
            out.completions,
            vec![(0, 1 << 63), (1, u64::MAX), (2, u64::MAX)]
        );
    }
}
