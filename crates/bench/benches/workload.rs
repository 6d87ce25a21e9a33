//! Criterion micro-benchmarks of the workload generation layer: the kvp
//! generator (Fig 8's inner loop) and the seeded random streams under it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simkit::rng::Stream;
use tpcx_iot::datagen::ReadingGenerator;

fn kvp_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("datagen");
    group.throughput(Throughput::Bytes(1024));
    let mut generator = ReadingGenerator::new("PSS-000000", 1, 1_700_000_000_000, 10);
    group.bench_function("next_kvp_1kb", |b| {
        b.iter(|| {
            let (k, v) = generator.next_kvp();
            criterion::black_box((k, v))
        })
    });
    let mut generator = ReadingGenerator::new("PSS-000000", 2, 1_700_000_000_000, 10);
    group.bench_function("next_reading_struct", |b| {
        b.iter(|| criterion::black_box(generator.next_reading()))
    });
    group.finish();
}

fn rng_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.throughput(Throughput::Elements(1));
    let mut rng = Stream::new(9);
    group.bench_function("next_u64", |b| {
        b.iter(|| criterion::black_box(rng.next_u64()))
    });
    group.bench_function("lognormal", |b| {
        b.iter(|| criterion::black_box(rng.lognormal(1.0, 0.5)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = kvp_generation, rng_stream
}
criterion_main!(benches);
