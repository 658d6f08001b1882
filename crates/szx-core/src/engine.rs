//! The one codec engine behind every compress/decompress entry point.
//!
//! SZx's multicore design (§6.1) has a single block loop: the prefix sum
//! over the `zsize_array` hands each worker its own starting offset, so a
//! serial run is simply the one-worker case. This module holds the only
//! copy of the three pieces that loop needs — the range pass, the compress
//! driver and the decoder — parameterized by a worker count.
//!
//! With `workers == 1` nothing calls rayon: compression encodes every
//! block into one [`ChunkOutput`] and decoding runs one loop on the
//! caller's [`DecodeScratch`]. With more workers, compression splits the
//! blocks into chunks of a multiple of 8 blocks (so per-chunk state bits
//! concatenate on byte boundaries) and decoding splits the output into
//! 32-block groups, each with its own scratch and a starting
//! non-constant-block count taken from one prefix pass over the state
//! bits. Both shapes emit byte-identical streams and bit-identical outputs.

use rayon::prelude::*;

use crate::config::{ErrorBound, KernelPath, SzxConfig};
use crate::decode::{decode_block_dispatch, StreamIndex};
use crate::dekernels::DecodeScratch;
use crate::encode::{assemble, encode_blocks, ChunkOutput};
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;
use crate::kernels::{self, EncodeScratch};

/// Elements per range-pass chunk.
const RANGE_CHUNK: usize = 64 * 1024;

/// Blocks per parallel decode group. Coarse enough to amortize scheduling,
/// fine enough to balance skewed payloads.
const DECODE_GROUP: usize = 32;

/// `(min, max)` of nothing: the identity of [`widen`].
const EMPTY: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// Merge two `(min, max)` pairs. Ties keep the earlier value, like the
/// per-element scans, so every chunking selects the same extrema.
fn widen(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (
        if b.0 < a.0 { b.0 } else { a.0 },
        if b.1 > a.1 { b.1 } else { a.1 },
    )
}

/// Global value range (max − min), NaN-ignoring, scanned in
/// [`RANGE_CHUNK`]-element chunks. `path` selects the per-chunk scan; all
/// paths select the same extrema, so the resolved bound — and therefore
/// the stream — is the same for every path and worker count.
fn value_range<F: SzxFloat>(data: &[F], path: KernelPath, workers: usize) -> f64 {
    let scan = |chunk: &[F]| -> (f64, f64) {
        let (lo, hi) = match path {
            KernelPath::Simd => crate::simd::minmax(chunk),
            KernelPath::Kernel => kernels::minmax(chunk),
            KernelPath::Scalar => {
                return chunk
                    .iter()
                    .fold(EMPTY, |r, &d| widen(r, (d.to_f64(), d.to_f64())));
            }
        };
        (lo.to_f64(), hi.to_f64())
    };
    let (min, max) = if workers <= 1 {
        data.chunks(RANGE_CHUNK).map(scan).fold(EMPTY, widen)
    } else {
        data.par_chunks(RANGE_CHUNK)
            .enumerate()
            .map(|(ci, chunk)| {
                let _z = szx_telemetry::trace_zone("compress.range_chunk", ci as u64);
                scan(chunk)
            })
            .reduce(|| EMPTY, widen)
    };
    if max >= min {
        max - min
    } else {
        0.0
    }
}

/// Resolve the configured error bound against `data` (absolute bounds pass
/// through; relative bounds scale the global value range).
pub(crate) fn error_bound<F: SzxFloat>(
    data: &[F],
    cfg: &SzxConfig,
    path: KernelPath,
    workers: usize,
) -> f64 {
    match cfg.error_bound {
        ErrorBound::Absolute(e) => e,
        ErrorBound::Relative(rel) => rel * value_range(data, path, workers),
    }
}

/// Compress `data` on `workers` workers.
pub(crate) fn compress<F: SzxFloat>(
    data: &[F],
    cfg: &SzxConfig,
    workers: usize,
) -> Result<Vec<u8>> {
    let _total = szx_telemetry::span("compress.total");
    cfg.validate()?;
    if data.is_empty() {
        return Err(SzxError::EmptyInput);
    }
    let path = cfg.kernel.resolve();
    let eb = {
        let _s = szx_telemetry::span("compress.range_scan");
        error_bound(data, cfg, path, workers)
    };
    if !eb.is_finite() || eb < 0.0 {
        return Err(SzxError::InvalidConfig(format!(
            "resolved error bound is not usable: {eb}"
        )));
    }

    let bs = cfg.block_size;
    // One scratch arena per chunk, so workers allocate once per chunk, not
    // once per block. Each chunk also accumulates its own telemetry; the
    // single flush happens in assemble(), so workers never contend on
    // shared counters.
    let encode = |chunk: &[F]| {
        let mut out = ChunkOutput::with_capacity(chunk.len().div_ceil(bs), chunk.len() * F::BYTES);
        let mut scratch = EncodeScratch::default();
        encode_blocks(chunk, bs, eb, cfg.strategy, path, &mut out, &mut scratch);
        out
    };
    let chunks: Vec<ChunkOutput<F>> = {
        let _s = szx_telemetry::span("compress.encode_blocks");
        if workers <= 1 {
            vec![encode(data)]
        } else {
            // Multiple-of-8 blocks per chunk keeps state bits byte-aligned
            // at chunk seams; a few chunks per worker balance the load.
            let blocks_per_chunk =
                (data.len().div_ceil(bs).div_ceil(workers * 4).div_ceil(8) * 8).max(8);
            data.par_chunks(blocks_per_chunk * bs)
                .enumerate()
                .map(|(ci, chunk)| {
                    // One timeline lane entry per worker chunk: the flight
                    // recorder's view of skew across workers.
                    let _z = szx_telemetry::trace_zone("compress.chunk", ci as u64);
                    encode(chunk)
                })
                .collect()
        }
    };

    Ok(assemble(&chunks, data.len(), eb, cfg))
}

/// Decompress `bytes` into a fresh buffer sized from its validated header.
pub(crate) fn decompress<F: SzxFloat>(
    bytes: &[u8],
    path: KernelPath,
    workers: usize,
    scratch: &mut DecodeScratch,
) -> Result<Vec<F>> {
    indexed::<F, _>(bytes, |index| {
        let mut out = vec![F::ZERO; index.header.n];
        decode(index, &mut out, path, workers, scratch).map(|()| out)
    })
}

/// Decompress `bytes` into the caller's buffer of exactly `header.n`
/// elements.
pub(crate) fn decompress_into<F: SzxFloat>(
    bytes: &[u8],
    out: &mut [F],
    path: KernelPath,
    workers: usize,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    indexed::<F, _>(bytes, |index| decode(index, out, path, workers, scratch))
}

/// Build (and thereby validate) the stream index under the
/// `decompress.total`/`decompress.index` spans, then hand it to `on_index`.
/// Callers allocate their output only inside `on_index`: a forged header could
/// otherwise demand an absurd allocation.
fn indexed<F: SzxFloat, R>(
    bytes: &[u8],
    on_index: impl FnOnce(&StreamIndex<'_>) -> Result<R>,
) -> Result<R> {
    let _total = szx_telemetry::span("decompress.total");
    let index = {
        let _s = szx_telemetry::span("decompress.index");
        StreamIndex::build::<F>(bytes)?
    };
    on_index(&index)
}

/// Decode every block of `index` into `out` on `workers` workers. Errors
/// are the first corrupt block's in block order, whatever the worker count.
fn decode<F: SzxFloat>(
    index: &StreamIndex<'_>,
    out: &mut [F],
    path: KernelPath,
    workers: usize,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    if out.len() != index.header.n {
        return Err(SzxError::InvalidConfig(format!(
            "output buffer holds {} elements, stream has {}",
            out.len(),
            index.header.n
        )));
    }
    if szx_telemetry::enabled() {
        flush_decode_telemetry::<F>(index);
    }
    let result = {
        let _s = szx_telemetry::span("decompress.blocks");
        // Zone-only path attribution for the profiler (the per-block
        // dispatch also depends on the stream's strategy; this names the
        // path that was *requested* for the sweep).
        let _z = szx_telemetry::trace_zone(
            match path {
                KernelPath::Simd => "decompress.simd.decode",
                KernelPath::Kernel => "decompress.path.kernel",
                KernelPath::Scalar => "decompress.path.scalar",
            },
            0,
        );
        if workers <= 1 {
            decode_run(index, 0, 0, out, path, scratch)
        } else {
            let group_len = index.header.block_size * DECODE_GROUP;
            // Non-constant blocks before each group: its first payload slot.
            let mut group_nc = Vec::with_capacity(out.len().div_ceil(group_len));
            let mut nc = 0usize;
            for (b, state) in index.states.iter().enumerate() {
                if b % DECODE_GROUP == 0 {
                    group_nc.push(nc);
                }
                nc += usize::from(state);
            }
            let results: Vec<Result<()>> = out
                .par_chunks_mut(group_len)
                .enumerate()
                .map(|(g, group)| {
                    let _z = szx_telemetry::trace_zone("decompress.group", g as u64);
                    // PANIC-OK: one group_nc entry per DECODE_GROUP blocks,
                    // and the output holds exactly those blocks.
                    let nc = group_nc[g];
                    // One scratch arena per group: workers allocate once
                    // per group of blocks, not once per block.
                    let mut scratch = DecodeScratch::default();
                    decode_run(index, g * DECODE_GROUP, nc, group, path, &mut scratch)
                })
                .collect();
            // Collected in group order, so the error reported is the first
            // failing block's, whichever worker finished first.
            results.into_iter().collect()
        }
    };
    let grows = scratch.take_grows();
    if grows > 0 && szx_telemetry::enabled() {
        let tel = szx_telemetry::global();
        tel.counter("decompress.scratch.grows").add(grows);
        tel.gauge("decompress.scratch.arena_bytes")
            .set_max(scratch.arena_bytes() as f64);
    }
    result
}

/// The block loop: decode the blocks starting at `first_block` into `out`,
/// whose first non-constant block owns payload slot `nc`.
fn decode_run<F: SzxFloat>(
    index: &StreamIndex<'_>,
    first_block: usize,
    mut nc: usize,
    out: &mut [F],
    path: KernelPath,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    let strategy = index.header.strategy;
    for (j, block_out) in out.chunks_mut(index.header.block_size).enumerate() {
        let b = first_block + j;
        let mu = index.mu::<F>(b);
        if index.states.get(b) {
            // PANIC-OK: build() verified count_ones == n_nonconstant
            // (bounding nc, a prefix count of set state bits) and that the
            // payload section holds the full zsize prefix sum, so
            // off + len <= payloads.len().
            let off = index.payload_offsets[nc];
            let len = index.zsizes[nc] as usize; // PANIC-OK: as above
            let payload = &index.payloads[off..off + len]; // PANIC-OK: as above
            decode_block_dispatch(payload, block_out, mu, strategy, path, scratch)?;
            nc += 1;
        } else {
            block_out.fill(mu);
        }
    }
    Ok(())
}

/// Publish what a decompression saw — block classes come for free from the
/// already-built index, so decode telemetry costs nothing per block.
fn flush_decode_telemetry<F: SzxFloat>(index: &StreamIndex<'_>) {
    let tel = szx_telemetry::global();
    let nblocks = index.states.len() as u64;
    let nc = index.header.n_nonconstant as u64;
    tel.counter("decompress.calls").incr();
    tel.counter("decompress.blocks.constant").add(nblocks - nc);
    tel.counter("decompress.blocks.nonconstant").add(nc);
    tel.counter("decompress.bytes.out")
        .add((index.header.n * F::BYTES) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommitStrategy, KernelSelect};

    const WORKERS: [usize; 4] = [1, 2, 3, 5];
    const PATHS: [KernelSelect; 3] = [
        KernelSelect::Scalar,
        KernelSelect::Kernel,
        KernelSelect::Simd,
    ];
    const STRATEGIES: [CommitStrategy; 3] = [
        CommitStrategy::ByteAligned,
        CommitStrategy::BitPack,
        CommitStrategy::BytePlusResidual,
    ];
    const BS: usize = 16;
    /// Block counts around the 8-block chunk and 32-block group seams.
    const NBLOCKS: [usize; 8] = [1, 7, 8, 9, 31, 32, 33, 1029];

    /// Runs of constant blocks between noisy ones; the last two blocks are
    /// always noisy so the final decode group holds a payload.
    fn field<F: SzxFloat>(n: usize) -> Vec<F> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                let constant = (i / 40) % 3 == 0 && i + 2 * BS < n;
                F::from_f64(if constant {
                    1.5
                } else {
                    (x * 0.05).sin() * 3.0 + (x * 1.7).sin() * 0.01
                })
            })
            .collect()
    }

    /// Every (length, strategy): one stream across all paths and worker
    /// counts, and one decoded output across all paths and worker counts.
    fn check_seams<F: SzxFloat>() {
        for nb in NBLOCKS {
            for n in [nb * BS, nb * BS - 3] {
                let data = field::<F>(n);
                for strategy in STRATEGIES {
                    let cfg = SzxConfig::relative(1e-3)
                        .with_block_size(BS)
                        .with_strategy(strategy);
                    let want = compress(&data, &cfg.with_kernel(KernelSelect::Scalar), 1).unwrap();
                    let mut scratch = DecodeScratch::default();
                    let reference: Vec<u64> =
                        decompress::<F>(&want, KernelPath::Scalar, 1, &mut scratch)
                            .unwrap()
                            .iter()
                            .map(|v| v.to_word())
                            .collect();
                    for sel in PATHS {
                        for w in WORKERS {
                            let case =
                                format!("{} n={n} {strategy:?} {sel:?} workers={w}", F::NAME);
                            let got = compress(&data, &cfg.with_kernel(sel), w).unwrap();
                            assert!(got == want, "stream differs: {case}");
                            let back: Vec<F> =
                                decompress(&want, sel.resolve(), w, &mut scratch).unwrap();
                            assert!(
                                back.iter()
                                    .map(|v| v.to_word())
                                    .eq(reference.iter().copied()),
                                "decoded bits differ: {case}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn streams_and_outputs_identical_across_worker_counts_f32() {
        check_seams::<f32>();
    }

    #[test]
    fn streams_and_outputs_identical_across_worker_counts_f64() {
        check_seams::<f64>();
    }

    /// The range pass selects the scalar scan's extrema across chunk seams,
    /// whatever the path and worker count.
    fn check_range_pass<F: SzxFloat>() {
        // Extrema grow towards the ragged last chunk; NaNs are skipped.
        let data: Vec<F> = (0..3 * RANGE_CHUNK + 5)
            .map(|i| match i % 1000 {
                7 => F::from_f64(f64::NAN),
                _ => F::from_f64((i as f64 * 1e-3).sin() * i as f64),
            })
            .collect();
        let want = crate::config::value_range(&data);
        for sel in PATHS {
            for w in WORKERS {
                assert_eq!(
                    value_range(&data, sel.resolve(), w),
                    want,
                    "{sel:?} workers={w}"
                );
            }
        }
    }

    #[test]
    fn range_pass_matches_the_scalar_scan() {
        check_range_pass::<f32>();
        check_range_pass::<f64>();
    }

    /// Decode errors of `bytes` for every worker count; all must agree.
    fn worker_errors<F: SzxFloat>(bytes: &[u8], sel: KernelSelect) -> String {
        let errors: Vec<String> = WORKERS
            .iter()
            .map(|&w| {
                let mut scratch = DecodeScratch::default();
                decompress::<F>(bytes, sel.resolve(), w, &mut scratch)
                    .unwrap_err()
                    .to_string()
            })
            .collect();
        assert!(
            errors.iter().all(|e| *e == errors[0]),
            "{} {sel:?}: {errors:?}",
            F::NAME
        );
        errors[0].clone()
    }

    /// A corrupt payload in the last decode group yields the same error for
    /// every worker count; with a second corrupt payload in the first group,
    /// every worker count reports the first one, in block order.
    fn check_corrupt_last_group<F: SzxFloat>() {
        let nb = NBLOCKS[NBLOCKS.len() - 1];
        let data = field::<F>(nb * BS - 3);
        for strategy in STRATEGIES {
            let cfg = SzxConfig::relative(1e-3)
                .with_block_size(BS)
                .with_strategy(strategy);
            let mut bytes = compress(&data, &cfg, 1).unwrap();
            let (first_slot, last_slot, first_nc_block, last_nc_block) = {
                let index = StreamIndex::build::<F>(&bytes).unwrap();
                let payload_off = bytes.len() - index.payloads.len();
                let nonconstant: Vec<usize> = (0..nb).filter(|&b| index.states.get(b)).collect();
                (
                    payload_off,
                    payload_off + index.payload_offsets.last().unwrap(),
                    nonconstant[0],
                    *nonconstant.last().unwrap(),
                )
            };
            assert!(first_nc_block < DECODE_GROUP);
            assert!(last_nc_block >= (nb - 1) / DECODE_GROUP * DECODE_GROUP);
            // Corrupt required lengths R_k: 255 and 1 are both out of range.
            bytes[last_slot] = 0xFF;
            for sel in PATHS {
                let last = worker_errors::<F>(&bytes, sel);
                let mut both = bytes.clone();
                both[first_slot] = 1;
                let first = worker_errors::<F>(&both, sel);
                assert_ne!(first, last, "{} {strategy:?} {sel:?}", F::NAME);
            }
        }
    }

    #[test]
    fn corrupt_last_group_errors_identically_across_worker_counts() {
        check_corrupt_last_group::<f32>();
        check_corrupt_last_group::<f64>();
    }
}
