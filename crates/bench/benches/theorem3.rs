//! Criterion bench for experiment E3 (Theorem 3): prints the quick-mode bound
//! check, then benchmarks Algorithm 1 with weighted tasks across the three
//! task-picking policies.

use criterion::{criterion_group, criterion_main, Criterion};
use lb_core::continuous::Fos;
use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
use lb_core::Speeds;
use lb_graph::{generators, AlphaScheme};
use lb_workloads::{pad_for_min_load, weighted_load, WeightModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_theorem3(c: &mut Criterion) {
    let report = lb_bench::experiments::theorem3::run(true);
    println!("{}", report.markdown);

    let graph = generators::hypercube(5).expect("hypercube builds");
    let n = graph.node_count();
    let d = graph.max_degree() as u64;
    let w_max = 4u64;
    let speeds = Speeds::uniform(n);
    let mut rng = StdRng::seed_from_u64(5);
    let mut per_node = vec![0u64; n];
    per_node[0] = 200;
    let initial = pad_for_min_load(
        weighted_load(&per_node, WeightModel::UniformRange { w_max }, &mut rng),
        &speeds,
        d * w_max,
    );

    let mut group = c.benchmark_group("theorem3_alg1_task_picker");
    group.sample_size(10);
    for picker in [
        TaskPicker::Fifo,
        TaskPicker::LargestFirst,
        TaskPicker::SmallestFirst,
    ] {
        group.bench_function(format!("{picker:?}"), |b| {
            b.iter(|| {
                let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne)
                    .expect("FOS constructs");
                let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), picker)
                    .expect("dimensions agree");
                alg1.run(200);
                alg1.metrics().max_min
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_theorem3);
criterion_main!(benches);
