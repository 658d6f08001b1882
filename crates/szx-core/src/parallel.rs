//! Multicore compression/decompression, mirroring the paper's OpenMP design
//! (§6.1) with rayon: thin wrappers that run the crate's codec engine on
//! [`rayon::current_num_threads`] workers.
//!
//! * **Compression** assigns contiguous *chunks of blocks* to workers; each
//!   chunk compresses independently into its own buffers, and the results
//!   are stitched together. Chunks are multiples of 8 blocks so the per-chunk
//!   state bits concatenate on byte boundaries.
//! * **Decompression** hands each worker a group of blocks together with the
//!   count of non-constant blocks before it — its starting slot in the
//!   prefix-summed `zsize_array`, the exact trick the paper uses to let
//!   every thread find its starting address — so workers write disjoint
//!   slices of the output.
//!
//! Streams and decoded values are identical to the serial functions'.

use crate::config::{KernelSelect, SzxConfig};
use crate::dekernels::DecodeScratch;
use crate::engine;
use crate::error::Result;
use crate::float::SzxFloat;

/// Multicore SZx compression. Produces a stream byte-identical to the
/// serial [`crate::compress`] (and decodable by either decompressor).
pub fn compress<F: SzxFloat>(data: &[F], cfg: &SzxConfig) -> Result<Vec<u8>> {
    engine::compress(data, cfg, rayon::current_num_threads())
}

/// Multicore SZx decompression.
pub fn decompress<F: SzxFloat>(bytes: &[u8]) -> Result<Vec<F>> {
    decompress_with(bytes, KernelSelect::Auto)
}

/// [`decompress`] with an explicit decode-path selection (see
/// [`crate::decompress_with`] for the semantics — the output is identical
/// either way).
pub fn decompress_with<F: SzxFloat>(bytes: &[u8], kernel: KernelSelect) -> Result<Vec<F>> {
    let (path, workers) = (kernel.resolve(), rayon::current_num_threads());
    engine::decompress(bytes, path, workers, &mut DecodeScratch::default())
}

/// Multicore decompression into a caller-provided buffer.
pub fn decompress_into<F: SzxFloat>(bytes: &[u8], out: &mut [F]) -> Result<()> {
    decompress_into_with(bytes, out, KernelSelect::Auto)
}

/// [`decompress_into`] with an explicit decode-path selection.
pub fn decompress_into_with<F: SzxFloat>(
    bytes: &[u8],
    out: &mut [F],
    kernel: KernelSelect,
) -> Result<()> {
    let (path, workers) = (kernel.resolve(), rayon::current_num_threads());
    engine::decompress_into(bytes, out, path, workers, &mut DecodeScratch::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommitStrategy;

    fn noisy_wave(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = i as f32 * 0.003;
                x.sin() * 5.0 + (x * 37.1).sin() * 0.02
            })
            .collect()
    }

    #[test]
    fn parallel_stream_equals_serial_stream() {
        let data = noisy_wave(300_000);
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            let cfg = SzxConfig::relative(1e-3).with_strategy(strategy);
            let serial = crate::compress(&data, &cfg).unwrap();
            let par = compress(&data, &cfg).unwrap();
            assert_eq!(serial, par, "streams must be byte-identical ({strategy:?})");
        }
    }

    #[test]
    fn parallel_roundtrip_cross_decoders() {
        let data = noisy_wave(123_457); // ragged tail
        let cfg = SzxConfig::absolute(1e-4);
        let bytes = compress(&data, &cfg).unwrap();
        let a: Vec<f32> = crate::decompress(&bytes).unwrap();
        let b: Vec<f32> = decompress(&bytes).unwrap();
        assert_eq!(a, b);
        for (&x, &y) in data.iter().zip(&b) {
            assert!((x - y).abs() <= 1e-4);
        }
    }

    #[test]
    fn parallel_handles_tiny_inputs() {
        let data = vec![1.0f32, 2.0, 3.0];
        let cfg = SzxConfig::absolute(1e-3).with_block_size(128);
        let bytes = compress(&data, &cfg).unwrap();
        let back: Vec<f32> = decompress(&bytes).unwrap();
        for (&x, &y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= 1e-3);
        }
    }

    #[test]
    fn parallel_relative_bound_matches_serial_resolution() {
        let data = noisy_wave(50_000);
        let cfg = SzxConfig::relative(1e-2);
        let serial = crate::compress(&data, &cfg).unwrap();
        let par = compress(&data, &cfg).unwrap();
        let hs = crate::inspect(&serial).unwrap();
        let hp = crate::inspect(&par).unwrap();
        assert_eq!(hs.eb, hp.eb);
    }

    #[test]
    fn parallel_f64_roundtrip() {
        let data: Vec<f64> = (0..40_000)
            .map(|i| (i as f64 * 0.001).sinh().sin())
            .collect();
        let cfg = SzxConfig::absolute(1e-7);
        let bytes = compress(&data, &cfg).unwrap();
        let back: Vec<f64> = decompress(&bytes).unwrap();
        for (&x, &y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= 1e-7);
        }
    }
}
