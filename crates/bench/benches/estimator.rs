//! Microbenchmarks: sink-side inference — the truncated/censored geometric
//! MLE and the traditional-tomography solvers. These run once per
//! reporting interval at the sink, so per-call latency across realistic
//! problem sizes is the figure of merit.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dophy::baseline::{estimate_em, estimate_logls, TraditionalConfig};
use dophy::estimator::LinkEstimator;
use dophy::infer::PathTable;
use dophy_coding::aggregate::AttemptObservation;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn filled_estimator(n: usize, p: f64, cap: Option<u16>) -> LinkEstimator {
    let mut e = LinkEstimator::new();
    let mut rng = SmallRng::seed_from_u64(9);
    let mut fed = 0;
    while fed < n {
        let mut a = 1u16;
        while rng.gen::<f64>() >= p && a <= 7 {
            a += 1;
        }
        if a > 7 {
            continue;
        }
        fed += 1;
        match cap {
            Some(c) if a >= c => e.observe(AttemptObservation::Range { lo: c, hi: 7 }),
            _ => e.observe(AttemptObservation::Exact(a)),
        }
    }
    e
}

fn bench_mle(c: &mut Criterion) {
    let mut g = c.benchmark_group("link-mle");
    for n in [100usize, 1_000, 10_000] {
        let e = filled_estimator(n, 0.7, Some(4));
        g.bench_with_input(BenchmarkId::new("censored", n), &e, |b, e| {
            b.iter(|| black_box(e.mle(7).unwrap().p_success));
        });
    }
    let e = filled_estimator(1_000, 0.7, None);
    g.bench_function("naive-1000", |b| {
        b.iter(|| black_box(e.naive().unwrap().p_success));
    });
    g.finish();
}

/// Builds a synthetic route table shaped like a collection tree:
/// `origins` chains of depth up to 5 sharing links near the sink.
fn tree_measurements(origins: u32) -> PathTable {
    let mut t = PathTable::new();
    let mut rng = SmallRng::seed_from_u64(4);
    for o in 1..=origins {
        let depth = 1 + (o % 5);
        let mut path = Vec::new();
        let mut cur = o;
        for _ in 0..depth {
            let next = cur / 2;
            path.push((cur, next));
            cur = next;
            if cur == 0 {
                break;
            }
        }
        let dr: f64 = 0.98f64.powi(path.len() as i32);
        let sent: u64 = 500;
        let delivered = (sent as f64 * dr * rng.gen_range(0.95..1.0)) as u64;
        t.add(&path, sent, delivered);
    }
    t
}

fn bench_traditional(c: &mut Criterion) {
    let mut g = c.benchmark_group("traditional-tomography");
    g.sample_size(20);
    for origins in [50u32, 200, 400] {
        let t = tree_measurements(origins);
        let cfg = TraditionalConfig::default();
        g.bench_with_input(BenchmarkId::new("em", origins), &t, |b, t| {
            b.iter(|| black_box(estimate_em(t, &cfg).len()));
        });
        g.bench_with_input(BenchmarkId::new("logls", origins), &t, |b, t| {
            b.iter(|| black_box(estimate_logls(t, &cfg).len()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mle, bench_traditional);
criterion_main!(benches);
