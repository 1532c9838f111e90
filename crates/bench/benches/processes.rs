//! Micro-benchmarks of the substrate: one continuous FOS round, one Algorithm
//! 1 round, one Algorithm 2 round, spectral estimation and matching
//! generation. These are the building blocks every experiment pays for, so
//! their per-operation cost is tracked separately from the table-level
//! benches. The remaining experiment artefacts (E5–E8) are also regenerated
//! here in quick mode so `cargo bench` covers every artefact in the
//! `lb_bench::experiments` index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lb_core::continuous::{ContinuousRunner, Fos, Sos};
use lb_core::discrete::{DiscreteBalancer, FlowImitation, RandomizedImitation, TaskPicker};
use lb_core::{InitialLoad, Speeds};
use lb_graph::{
    generators, random_maximal_matching, AlphaScheme, DiffusionMatrix, GraphDelta,
    PeriodicMatchings, PowerIterationOptions,
};
use lb_workloads::SpeedModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn print_remaining_experiments() {
    for report in [
        lb_bench::experiments::trajectory::run(true),
        lb_bench::experiments::heterogeneous::run(true),
        lb_bench::experiments::dummy_ablation::run(true),
        lb_bench::experiments::fos_vs_sos::run(true),
    ] {
        println!("{}", report.markdown);
    }
}

fn bench_rounds(c: &mut Criterion) {
    print_remaining_experiments();

    let mut group = c.benchmark_group("single_round");
    group.sample_size(20);
    for dim in [6u32, 8, 10] {
        let graph = generators::hypercube(dim).expect("hypercube builds");
        let n = graph.node_count();
        let speeds = Speeds::uniform(n);
        let mut counts = vec![dim as u64; n];
        counts[0] += 32 * n as u64;
        let initial = InitialLoad::from_token_counts(counts);

        group.bench_with_input(BenchmarkId::new("continuous_fos", n), &n, |b, _| {
            let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
            let mut runner = ContinuousRunner::new(fos, initial.load_vector_f64());
            b.iter(|| {
                runner.step();
            });
        });
        group.bench_with_input(BenchmarkId::new("alg1_round", n), &n, |b, _| {
            let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
            let mut alg1 =
                FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
            b.iter(|| alg1.step());
        });
        group.bench_with_input(BenchmarkId::new("alg2_round", n), &n, |b, _| {
            let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
            let mut alg2 = RandomizedImitation::new(fos, &initial, speeds.clone(), 3).unwrap();
            b.iter(|| alg2.step());
        });
    }
    group.finish();
}

fn bench_substrate(c: &mut Criterion) {
    let graph = generators::torus(32, 32).expect("torus builds");
    let matrix = DiffusionMatrix::uniform(&graph, AlphaScheme::MaxDegreePlusOne).unwrap();

    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);
    group.bench_function("second_eigenvalue_torus_1024", |b| {
        b.iter(|| {
            lb_graph::spectral::second_eigenvalue(
                &graph,
                &matrix,
                &[],
                PowerIterationOptions {
                    max_iterations: 2_000,
                    tolerance: 1e-8,
                },
            )
        })
    });
    // The `churn_sos` benchmark graph: Q13 with three powers-of-two speed
    // classes (heterogeneous couplings) at the engine's default tolerance.
    let cube = generators::hypercube(13).expect("hypercube builds");
    let speeds = SpeedModel::PowersOfTwo { classes: 3 }
        .generate(cube.node_count(), &mut StdRng::seed_from_u64(0));
    let cube_matrix =
        DiffusionMatrix::new(&cube, &speeds.to_f64(), AlphaScheme::MaxDegreePlusOne).unwrap();
    group.bench_function("second_eigenvalue_hypercube_8192_pow2", |b| {
        b.iter(|| {
            lb_graph::spectral::second_eigenvalue(
                &cube,
                &cube_matrix,
                &[],
                PowerIterationOptions::default(),
            )
        })
    });
    // A delta patch and the rewire that reverts it on the same graph: each
    // warm-starts its β estimate from the previous one's vector.
    let world = Arc::new(cube);
    let sos =
        Sos::with_optimal_beta(Arc::clone(&world), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
    let delta = GraphDelta::new(world.node_count(), [(0, 3)], [(0, 1)]).unwrap();
    let patched = Arc::new(world.apply_delta(&delta).unwrap());
    let revert = patched.delta_to(&world).unwrap();
    group.bench_function("sos_patch_and_revert_hypercube_8192_pow2", |b| {
        b.iter(|| {
            let away = sos.patched(Arc::clone(&patched), &delta).unwrap();
            away.patched(Arc::clone(&world), &revert).unwrap()
        })
    });
    group.bench_function("greedy_edge_coloring_torus_1024", |b| {
        b.iter(|| PeriodicMatchings::greedy_edge_coloring(&graph))
    });
    group.bench_function("random_maximal_matching_torus_1024", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| random_maximal_matching(&graph, &mut rng))
    });
    group.finish();
}

criterion_group!(benches, bench_rounds, bench_substrate);
criterion_main!(benches);
