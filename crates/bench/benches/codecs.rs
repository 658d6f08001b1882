//! Criterion microbenchmarks behind Tables 4–5: serial compression and
//! decompression throughput of SZx vs the SZ-like / ZFP-like / LZ-like
//! baselines on one Miranda field.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szx_core::{KernelSelect, SzxConfig};
use szx_data::{Application, Scale};

fn field() -> (Vec<f32>, [usize; 3], f64) {
    let ds = Application::Miranda.generate(Scale::Small, 42);
    let f = ds.field("pressure").unwrap();
    let eb = 1e-3 * f.value_range();
    (f.data.clone(), f.dims, eb)
}

fn bench_compress(c: &mut Criterion) {
    let (data, dims, eb) = field();
    let bytes = data.len() * 4;
    let mut g = c.benchmark_group("compress");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(20);
    g.bench_function(BenchmarkId::new("szx", "miranda-pressure"), |b| {
        let cfg = SzxConfig::absolute(eb);
        b.iter(|| szx_core::compress(&data, &cfg).unwrap());
    });
    g.bench_function(BenchmarkId::new("szlike", "miranda-pressure"), |b| {
        b.iter(|| szx_baselines::szlike::compress(&data, dims, eb).unwrap());
    });
    g.bench_function(BenchmarkId::new("zfplike", "miranda-pressure"), |b| {
        b.iter(|| szx_baselines::zfplike::compress(&data, dims, eb).unwrap());
    });
    g.bench_function(BenchmarkId::new("lzlike", "miranda-pressure"), |b| {
        b.iter(|| szx_baselines::lzlike::compress_f32(&data).unwrap());
    });
    g.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let (data, dims, eb) = field();
    let bytes = data.len() * 4;
    let mut g = c.benchmark_group("decompress");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(20);

    let cfg = SzxConfig::absolute(eb);
    let szx = szx_core::compress(&data, &cfg).unwrap();
    let mut out = vec![0f32; data.len()];
    let mut scratch = szx_core::DecodeScratch::default();
    g.bench_function(BenchmarkId::new("szx", "miranda-pressure"), |b| {
        b.iter(|| {
            szx_core::decompress_into_scratch(&szx, &mut out, KernelSelect::Auto, &mut scratch)
                .unwrap()
        });
    });
    let sz = szx_baselines::szlike::compress(&data, dims, eb).unwrap();
    g.bench_function(BenchmarkId::new("szlike", "miranda-pressure"), |b| {
        b.iter(|| szx_baselines::szlike::decompress(&sz).unwrap());
    });
    let zf = szx_baselines::zfplike::compress(&data, dims, eb).unwrap();
    g.bench_function(BenchmarkId::new("zfplike", "miranda-pressure"), |b| {
        b.iter(|| szx_baselines::zfplike::decompress(&zf).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench_compress, bench_decompress);
criterion_main!(benches);
