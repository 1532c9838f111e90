//! The four engine combinations a scenario can request, rebuilt here from
//! public `lb-core` constructors (`lb_bench::dynamic`'s own engine enum is
//! private to `lb-bench`), plus the continuous process and twin they carry.

use std::sync::Arc;

use lb_core::continuous::{ContinuousRunner, Fos, Sos};
use lb_core::discrete::{
    DiscreteBalancer, DynamicBalancer, FlowImitation, RandomizedImitation, RoundEvents, TaskPicker,
};
use lb_core::federate::FederateLink;
use lb_core::snapshot::{DiscreteState, EngineState, SnapshotError};
use lb_core::{CoreError, FederatedExecutor, InitialLoad, ShardedExecutor, Speeds};
use lb_graph::{AlphaScheme, Graph, GraphDelta};
use lb_workloads::{AlgorithmSpec, ModelSpec};

/// The diffusion scheme every scenario engine uses.
pub const SCHEME: AlphaScheme = AlphaScheme::MaxDegreePlusOne;

/// A continuous process of either model.
#[derive(Clone)]
pub enum Process {
    Fos(Fos),
    Sos(Sos),
}

impl Process {
    /// Builds the model's process from scratch (SOS estimates `β`).
    pub fn build(model: ModelSpec, graph: Arc<Graph>, speeds: &Speeds) -> Result<Self, CoreError> {
        Ok(match model {
            ModelSpec::Fos => Process::Fos(Fos::new(graph, speeds, SCHEME)?),
            ModelSpec::Sos => Process::Sos(Sos::with_optimal_beta(graph, speeds, SCHEME)?),
        })
    }
}

/// A standalone continuous twin, stepped beside the engine so the twin's
/// share of a round can be timed on its own.
pub enum Twin {
    Fos(ContinuousRunner<Fos>),
    Sos(ContinuousRunner<Sos>),
}

impl Twin {
    pub fn new(process: Process, loads: Vec<f64>) -> Self {
        match process {
            Process::Fos(p) => Twin::Fos(ContinuousRunner::new(p, loads)),
            Process::Sos(p) => Twin::Sos(ContinuousRunner::new(p, loads)),
        }
    }

    pub fn step(&mut self) {
        match self {
            Twin::Fos(r) => {
                std::hint::black_box(r.step());
            }
            Twin::Sos(r) => {
                std::hint::black_box(r.step());
            }
        }
    }
}

pub enum Engine {
    Alg1Fos(FlowImitation<Fos>),
    Alg1Sos(FlowImitation<Sos>),
    Alg2Fos(RandomizedImitation<Fos>),
    Alg2Sos(RandomizedImitation<Sos>),
}

macro_rules! with_engine {
    ($self:expr, $e:ident => $body:expr) => {
        match $self {
            Engine::Alg1Fos($e) => $body,
            Engine::Alg1Sos($e) => $body,
            Engine::Alg2Fos($e) => $body,
            Engine::Alg2Sos($e) => $body,
        }
    };
}

fn mismatch() -> CoreError {
    CoreError::invalid_parameter("process model does not match the engine")
}

impl Engine {
    /// Wraps an already built process in the scenario's discretizer.
    pub fn new(
        algorithm: AlgorithmSpec,
        process: Process,
        initial: &InitialLoad,
        speeds: &Speeds,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let speeds = speeds.clone();
        Ok(match (algorithm, process) {
            (AlgorithmSpec::Alg1, Process::Fos(p)) => {
                Engine::Alg1Fos(FlowImitation::new(p, initial, speeds, TaskPicker::Fifo)?)
            }
            (AlgorithmSpec::Alg1, Process::Sos(p)) => {
                Engine::Alg1Sos(FlowImitation::new(p, initial, speeds, TaskPicker::Fifo)?)
            }
            (AlgorithmSpec::Alg2, Process::Fos(p)) => {
                Engine::Alg2Fos(RandomizedImitation::new(p, initial, speeds, seed)?)
            }
            (AlgorithmSpec::Alg2, Process::Sos(p)) => {
                Engine::Alg2Sos(RandomizedImitation::new(p, initial, speeds, seed)?)
            }
        })
    }

    pub fn name(&self) -> &str {
        with_engine!(self, e => e.name())
    }

    pub fn step(&mut self) {
        with_engine!(self, e => e.step())
    }

    pub fn step_sharded(&mut self, exec: &mut ShardedExecutor) {
        with_engine!(self, e => e.step_sharded(exec))
    }

    pub fn step_federated(
        &mut self,
        fed: &mut FederatedExecutor,
        link: &mut dyn FederateLink,
    ) -> Result<(), CoreError> {
        with_engine!(self, e => e.step_federated(fed, link))
    }

    pub fn apply_events(&mut self, events: &RoundEvents) -> Result<(), CoreError> {
        with_engine!(self, e => e.apply_events(events).map(|_| ()))
    }

    pub fn apply_events_federated(
        &mut self,
        events: &RoundEvents,
        fed: &mut FederatedExecutor,
    ) -> Result<(), CoreError> {
        with_engine!(self, e => e.apply_events_federated(events, fed).map(|_| ()))
    }

    pub fn loads(&self) -> Vec<f64> {
        with_engine!(self, e => e.loads())
    }

    pub fn real_loads(&self) -> Vec<f64> {
        with_engine!(self, e => e.real_loads())
    }

    pub fn dummy_load(&self) -> u64 {
        with_engine!(self, e => e.dummy_load())
    }

    pub fn dummy_holdings(&self) -> &[u64] {
        with_engine!(self, e => e.dummy_holdings())
    }

    pub fn dummy_created(&self) -> u64 {
        with_engine!(self, e => e.dummy_created())
    }

    pub fn speeds(&self) -> &Speeds {
        with_engine!(self, e => e.speeds())
    }

    pub fn node_count(&self) -> usize {
        with_engine!(self, e => e.graph().node_count())
    }

    pub fn arrived_weight(&self) -> u64 {
        with_engine!(self, e => DynamicBalancer::arrived_weight(e))
    }

    pub fn completed_weight(&self) -> u64 {
        with_engine!(self, e => DynamicBalancer::completed_weight(e))
    }

    /// Algorithm 1 counts its sends; Algorithm 2 keeps no counter (see
    /// [`discrete_flow`](Engine::discrete_flow)).
    pub fn items_sent(&self) -> Option<u64> {
        match self {
            Engine::Alg1Fos(e) => Some(e.items_sent()),
            Engine::Alg1Sos(e) => Some(e.items_sent()),
            Engine::Alg2Fos(_) | Engine::Alg2Sos(_) => None,
        }
    }

    /// Algorithm 2's per-edge discrete-flow ledger for the current topology
    /// epoch, read off a full capture.
    pub fn discrete_flow(&self) -> Vec<i64> {
        match self.capture().discrete {
            DiscreteState::Alg1(s) => s.discrete_flow,
            DiscreteState::Alg2(s) => s.discrete_flow,
        }
    }

    pub fn capture(&self) -> EngineState {
        with_engine!(self, e => e.capture())
    }

    pub fn restore(&mut self, state: &EngineState) -> Result<(), SnapshotError> {
        with_engine!(self, e => e.restore(state))
    }

    /// A copy of the continuous process the engine's twin runs, and the
    /// twin's current loads.
    pub fn twin(&self) -> (Process, Vec<f64>) {
        match self {
            Engine::Alg1Fos(e) => (
                Process::Fos(e.continuous().process().clone()),
                e.continuous().loads().to_vec(),
            ),
            Engine::Alg1Sos(e) => (
                Process::Sos(e.continuous().process().clone()),
                e.continuous().loads().to_vec(),
            ),
            Engine::Alg2Fos(e) => (
                Process::Fos(e.continuous().process().clone()),
                e.continuous().loads().to_vec(),
            ),
            Engine::Alg2Sos(e) => (
                Process::Sos(e.continuous().process().clone()),
                e.continuous().loads().to_vec(),
            ),
        }
    }

    /// Patches the engine's current process onto `graph` (the `lb run`
    /// churn path for same-size edge changes).
    pub fn patched(&self, graph: Arc<Graph>, delta: &GraphDelta) -> Result<Process, CoreError> {
        Ok(match self {
            Engine::Alg1Fos(e) => Process::Fos(e.continuous().process().patched(graph, delta)?),
            Engine::Alg1Sos(e) => Process::Sos(e.continuous().process().patched(graph, delta)?),
            Engine::Alg2Fos(e) => Process::Fos(e.continuous().process().patched(graph, delta)?),
            Engine::Alg2Sos(e) => Process::Sos(e.continuous().process().patched(graph, delta)?),
        })
    }

    /// Swaps in a churned process (the engine starts a new imitation epoch).
    pub fn replace_topology(&mut self, process: Process) -> Result<(), CoreError> {
        match (self, process) {
            (Engine::Alg1Fos(e), Process::Fos(p)) => e.replace_topology(p),
            (Engine::Alg1Sos(e), Process::Sos(p)) => e.replace_topology(p),
            (Engine::Alg2Fos(e), Process::Fos(p)) => e.replace_topology(p),
            (Engine::Alg2Sos(e), Process::Sos(p)) => e.replace_topology(p),
            _ => Err(mismatch()),
        }
    }
}
