//! §5.1 ablation: the three ways of committing necessary mantissa bits.
//! Solution C (byte-aligned right shift, the paper's contribution) must
//! beat Solution A (bit packing) and Solution B (bytes + residual bits).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szx_core::{CommitStrategy, KernelSelect, SzxConfig};
use szx_data::{Application, Scale};

fn bench_strategies(c: &mut Criterion) {
    let ds = Application::Miranda.generate(Scale::Small, 42);
    let f = ds.field("velocity-x").unwrap();
    // A tight bound keeps most blocks non-constant so the commit path
    // dominates the runtime.
    let eb = 1e-5 * f.value_range();
    let bytes = f.data.len() * 4;

    let mut g = c.benchmark_group("commit-strategy-compress");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(20);
    for (name, strategy) in [
        ("A-bitpack", CommitStrategy::BitPack),
        ("B-bytes+residual", CommitStrategy::BytePlusResidual),
        ("C-byte-aligned", CommitStrategy::ByteAligned),
    ] {
        let cfg = SzxConfig::absolute(eb).with_strategy(strategy);
        g.bench_function(BenchmarkId::new(name, "miranda-vx"), |b| {
            b.iter(|| szx_core::compress(&f.data, &cfg).unwrap());
        });
    }
    g.finish();

    let mut g = c.benchmark_group("commit-strategy-decompress");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(20);
    for (name, strategy) in [
        ("A-bitpack", CommitStrategy::BitPack),
        ("B-bytes+residual", CommitStrategy::BytePlusResidual),
        ("C-byte-aligned", CommitStrategy::ByteAligned),
    ] {
        let cfg = SzxConfig::absolute(eb).with_strategy(strategy);
        let stream = szx_core::compress(&f.data, &cfg).unwrap();
        let mut out = vec![0f32; f.data.len()];
        let mut scratch = szx_core::DecodeScratch::default();
        g.bench_function(BenchmarkId::new(name, "miranda-vx"), |b| {
            b.iter(|| {
                szx_core::decompress_into_scratch(
                    &stream,
                    &mut out,
                    KernelSelect::Auto,
                    &mut scratch,
                )
                .unwrap()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
