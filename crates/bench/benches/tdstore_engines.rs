//! TDStore engine microbenchmarks: put / get / atomic f64 increment for
//! the MDB (memory), LDB (log-structured) and FDB (file) engines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tdstore::engine::EngineKind;

const OPS: usize = 10_000;

fn engines() -> Vec<(&'static str, EngineKind)> {
    vec![
        ("mdb", EngineKind::Mdb),
        ("ldb", EngineKind::Ldb),
        ("rdb", EngineKind::Rdb),
        (
            "fdb",
            EngineKind::Fdb(
                std::env::temp_dir().join(format!("tdstore-bench-{}", std::process::id())),
            ),
        ),
    ]
}

fn keys() -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(3);
    (0..OPS)
        .map(|_| rng.gen_range(0..5_000u64).to_le_bytes().to_vec())
        .collect()
}

fn bench_put(c: &mut Criterion) {
    let keys = keys();
    let mut group = c.benchmark_group("engine_put");
    group.sample_size(10);
    group.throughput(Throughput::Elements(OPS as u64));
    for (name, kind) in engines() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &kind, |b, kind| {
            b.iter_batched(
                || kind.create(0),
                |engine| {
                    for (i, k) in keys.iter().enumerate() {
                        engine.put(k, (i as u64).to_le_bytes().to_vec());
                    }
                    engine
                },
                criterion::BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn bench_get(c: &mut Criterion) {
    let keys = keys();
    let mut group = c.benchmark_group("engine_get");
    group.sample_size(10);
    group.throughput(Throughput::Elements(OPS as u64));
    for (name, kind) in engines() {
        let engine = kind.create(1);
        for (i, k) in keys.iter().enumerate() {
            engine.put(k, (i as u64).to_le_bytes().to_vec());
        }
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut found = 0usize;
                for k in &keys {
                    if engine.get(k).is_some() {
                        found += 1;
                    }
                }
                std::hint::black_box(found)
            })
        });
    }
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    let keys = keys();
    let mut group = c.benchmark_group("engine_incr_f64");
    group.sample_size(10);
    group.throughput(Throughput::Elements(OPS as u64));
    for (name, kind) in engines() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &kind, |b, kind| {
            b.iter_batched(
                || kind.create(2),
                |engine| {
                    for k in &keys {
                        engine.modify(k, &mut |slot| {
                            let cur = slot
                                .as_deref()
                                .and_then(|v| v.try_into().ok().map(f64::from_le_bytes))
                                .unwrap_or(0.0);
                            *slot = Some((cur + 1.0).to_le_bytes().to_vec());
                            true
                        });
                    }
                    engine
                },
                criterion::BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_put, bench_get, bench_update);
criterion_main!(benches);
