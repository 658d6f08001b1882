//! The SZx compressor (Algorithm 1 + the §5.1 commit strategies).

use crate::bitio::BitWriter;
use crate::block::{bytes_for, required_length, shift_for, BlockStats};
use crate::config::{CommitStrategy, KernelPath, SzxConfig};
use crate::error::Result;
use crate::float::SzxFloat;
use crate::kernels::{self, EncodeScratch};
use crate::stream::Header;

/// Per-chunk telemetry accumulated with plain (non-atomic) arithmetic while
/// blocks are encoded, then merged and flushed to the global registry once
/// per top-level call in [`assemble`]. Rayon workers each own one of these
/// inside their `ChunkOutput`, so enabling telemetry adds no shared-memory
/// traffic to the block loop.
#[derive(Debug)]
pub(crate) struct BlockEncodeStats {
    /// Blocks representable by `μ` alone.
    pub constant: u64,
    /// Blocks with a truncated-significand payload.
    pub nonconstant: u64,
    /// Non-constant blocks stored bit-exactly (`R_k == FULL_BITS`: NaN/∞
    /// carriers or radii that defeat normalization).
    pub fallback: u64,
    /// Mid-bytes (payload body after the `R_k` byte and the leading-code
    /// section) actually written.
    pub mid_bytes: u64,
    /// Bytes the XOR leading-byte codes avoided writing, relative to a
    /// codec that stores every value at full required width.
    pub lead_saved_bytes: u64,
    /// Histogram of `R_k` over non-constant blocks (index = required
    /// length, 0..=64) — same shape as
    /// [`crate::analysis::BlockReport::req_len_histogram`].
    pub req_len_hist: [u64; 65],
    /// Wall time spent in the per-block range-scan kernel (only measured
    /// while telemetry is enabled; flushed as the
    /// `compress.kernel.range_scan` span).
    pub ns_range_scan: u64,
    /// Wall time spent encoding non-constant payloads (the
    /// `compress.kernel.encode` span).
    pub ns_encode: u64,
    /// Scratch-arena growth events — nonzero only while the per-chunk
    /// [`EncodeScratch`] warms up to the largest block.
    pub scratch_grows: u64,
    /// Final arena footprint of the chunk's [`EncodeScratch`] in bytes;
    /// merged as a max (chunks size independently), published as the
    /// `compress.scratch.arena_bytes` gauge.
    pub scratch_arena_bytes: u64,
}

impl Default for BlockEncodeStats {
    fn default() -> Self {
        BlockEncodeStats {
            constant: 0,
            nonconstant: 0,
            fallback: 0,
            mid_bytes: 0,
            lead_saved_bytes: 0,
            req_len_hist: [0; 65],
            ns_range_scan: 0,
            ns_encode: 0,
            scratch_grows: 0,
            scratch_arena_bytes: 0,
        }
    }
}

impl BlockEncodeStats {
    fn merge(&mut self, other: &BlockEncodeStats) {
        self.constant += other.constant;
        self.nonconstant += other.nonconstant;
        self.fallback += other.fallback;
        self.mid_bytes += other.mid_bytes;
        self.lead_saved_bytes += other.lead_saved_bytes;
        for (a, b) in self.req_len_hist.iter_mut().zip(&other.req_len_hist) {
            *a += b;
        }
        self.ns_range_scan += other.ns_range_scan;
        self.ns_encode += other.ns_encode;
        self.scratch_grows += other.scratch_grows;
        self.scratch_arena_bytes = self.scratch_arena_bytes.max(other.scratch_arena_bytes);
    }

    /// Record one non-constant block. The space accounting is derived from
    /// the payload size so the hot strategy loops stay untouched: `zsize`
    /// minus the `R_k` byte and the leading-code section is the body
    /// actually written, and the no-deduplication body size follows from
    /// `R_k` and the strategy.
    fn record_nonconstant(
        &mut self,
        req_len: u32,
        zsize: usize,
        blen: usize,
        full_bits: u32,
        strategy: CommitStrategy,
    ) {
        self.nonconstant += 1;
        self.req_len_hist[req_len as usize] += 1;
        if req_len == full_bits {
            self.fallback += 1;
        }
        let lead_section = (2 * blen).div_ceil(8);
        let body = zsize.saturating_sub(1 + lead_section) as u64;
        self.mid_bytes += body;
        let no_dedup = match strategy {
            CommitStrategy::ByteAligned => bytes_for(req_len) * blen,
            CommitStrategy::BitPack => (req_len as usize * blen).div_ceil(8),
            CommitStrategy::BytePlusResidual => {
                (req_len as usize / 8) * blen + ((req_len as usize % 8) * blen).div_ceil(8)
            }
        } as u64;
        self.lead_saved_bytes += no_dedup.saturating_sub(body);
    }
}

/// Per-chunk compression output; chunks are later stitched into one stream.
/// The serial compressor uses a single chunk covering every block.
#[derive(Debug, Default)]
pub(crate) struct ChunkOutput<F: SzxFloat> {
    /// One entry per block: `true` = non-constant.
    pub states: Vec<bool>,
    /// One `μ` per block (0.0 for bit-exact blocks).
    pub mus: Vec<F>,
    /// Payload length per non-constant block.
    pub zsizes: Vec<u16>,
    /// Concatenated non-constant payloads.
    pub payload: Vec<u8>,
    /// Telemetry local to this chunk (untouched when telemetry is off).
    pub stats: BlockEncodeStats,
}

impl<F: SzxFloat> ChunkOutput<F> {
    pub(crate) fn with_capacity(nblocks: usize, data_bytes: usize) -> Self {
        ChunkOutput {
            states: Vec::with_capacity(nblocks),
            mus: Vec::with_capacity(nblocks),
            zsizes: Vec::with_capacity(nblocks),
            // Non-constant payloads rarely exceed half the raw size on
            // compressible data; growing is cheap if they do.
            payload: Vec::with_capacity(data_bytes / 2 + 64),
            stats: BlockEncodeStats::default(),
        }
    }
}

/// Compress `data` into a self-describing SZx stream.
///
/// This is the serial path; see [`crate::parallel`] for the multicore
/// version (same stream). The relative error bound, if configured, is
/// resolved against the global value range here and the stream records
/// the resulting absolute bound.
pub fn compress<F: SzxFloat>(data: &[F], cfg: &SzxConfig) -> Result<Vec<u8>> {
    crate::engine::compress(data, cfg, 1)
}

/// Encode every block of `data` (a whole number of blocks except possibly
/// the last) into `out`. Shared by the serial and parallel paths; `path`
/// selects among the explicit SIMD kernels, the branch-free portable
/// kernels, and the scalar oracle (byte-identical outputs, see
/// [`crate::kernels`] and [`crate::simd`]).
pub(crate) fn encode_blocks<F: SzxFloat>(
    data: &[F],
    block_size: usize,
    eb: f64,
    strategy: CommitStrategy,
    path: KernelPath,
    out: &mut ChunkOutput<F>,
    scratch: &mut EncodeScratch,
) {
    // Zone-only attribution of which hot-loop path ran: the profiler and
    // flight recorder see simd vs kernel vs scalar time separately, at the
    // cost of one zone per chunk (never per block).
    match path {
        KernelPath::Simd => {
            let _z = szx_telemetry::trace_zone("compress.simd.encode", 0);
            encode_blocks_impl::<F, { KERNEL_SIMD }>(data, block_size, eb, strategy, out, scratch);
        }
        KernelPath::Kernel => {
            let _z = szx_telemetry::trace_zone("compress.encode.kernel", 0);
            encode_blocks_impl::<F, { KERNEL_PORTABLE }>(
                data, block_size, eb, strategy, out, scratch,
            );
        }
        KernelPath::Scalar => {
            let _z = szx_telemetry::trace_zone("compress.encode.scalar", 0);
            encode_blocks_impl::<F, { KERNEL_SCALAR }>(
                data, block_size, eb, strategy, out, scratch,
            );
        }
    }
    // Surface the scratch arena's growth events through the chunk stats so
    // the allocation-regression test can observe them; the counter is reset
    // so a reused scratch is not double-counted.
    out.stats.scratch_grows += scratch.take_grows();
    out.stats.scratch_arena_bytes = out.stats.scratch_arena_bytes.max(scratch.arena_bytes());
}

/// Path discriminants for the monomorphized block loop (a const-generic
/// enum is not expressible, so the three paths are const `u8` values).
const KERNEL_SCALAR: u8 = 0;
const KERNEL_PORTABLE: u8 = 1;
const KERNEL_SIMD: u8 = 2;

/// The monomorphized block loop. `PATH` is a const so each path compiles
/// to its own fully-inlined loop with zero dispatch inside.
fn encode_blocks_impl<F: SzxFloat, const PATH: u8>(
    data: &[F],
    block_size: usize,
    eb: f64,
    strategy: CommitStrategy,
    out: &mut ChunkOutput<F>,
    scratch: &mut EncodeScratch,
) {
    // Hoisted once per chunk: with telemetry off the block loop carries no
    // accounting (and no clock reads) at all; with it on the accounting is
    // chunk-local.
    let record = szx_telemetry::enabled();
    for block in data.chunks(block_size) {
        let t0 = record.then(std::time::Instant::now);
        let stats = match PATH {
            KERNEL_SIMD => crate::simd::block_stats(block),
            KERNEL_PORTABLE => kernels::block_stats(block),
            _ => BlockStats::compute(block),
        };
        let t1 = record.then(std::time::Instant::now);
        if let (Some(t0), Some(t1)) = (t0, t1) {
            out.stats.ns_range_scan += t1.duration_since(t0).as_nanos() as u64;
        }
        if stats.is_constant_for(eb, block) {
            out.states.push(false);
            out.mus.push(stats.mu);
            if record {
                out.stats.constant += 1;
            }
        } else {
            out.states.push(true);
            let start = out.payload.len();
            let (mu, req_len) = match PATH {
                KERNEL_SIMD => crate::simd::encode_nonconstant(
                    block,
                    &stats,
                    eb,
                    strategy,
                    &mut out.payload,
                    scratch,
                ),
                KERNEL_PORTABLE => kernels::encode_nonconstant(
                    block,
                    &stats,
                    eb,
                    strategy,
                    &mut out.payload,
                    scratch,
                ),
                _ => encode_nonconstant(block, &stats, eb, strategy, &mut out.payload, scratch),
            };
            out.mus.push(mu);
            let zsize = out.payload.len() - start;
            debug_assert!(
                zsize <= u16::MAX as usize,
                "payload {zsize} exceeds zsize range"
            );
            out.zsizes.push(zsize as u16);
            if record {
                out.stats
                    .record_nonconstant(req_len, zsize, block.len(), F::FULL_BITS, strategy);
                if let Some(t1) = t1 {
                    out.stats.ns_encode += t1.elapsed().as_nanos() as u64;
                }
            }
        }
    }
}

/// Stitch chunk outputs into the final stream.
pub(crate) fn assemble<F: SzxFloat>(
    chunks: &[ChunkOutput<F>],
    n: usize,
    eb: f64,
    cfg: &SzxConfig,
) -> Vec<u8> {
    let _s = szx_telemetry::span("compress.assemble");
    let n_nonconstant: usize = chunks.iter().map(|c| c.zsizes.len()).sum();
    let nblocks: usize = chunks.iter().map(|c| c.states.len()).sum();
    let payload_len: usize = chunks.iter().map(|c| c.payload.len()).sum();

    let header = Header {
        dtype: F::DTYPE_CODE,
        strategy: cfg.strategy,
        block_size: cfg.block_size,
        n,
        eb,
        n_nonconstant,
    };

    let mut bytes = Vec::with_capacity(
        crate::stream::HEADER_LEN
            + nblocks.div_ceil(8)
            + nblocks * F::BYTES
            + n_nonconstant * 2
            + payload_len,
    );
    header.write(&mut bytes);

    // State bits. Chunk boundaries are multiples of 8 blocks (enforced by
    // the engine's multi-worker split), so per-chunk bit packing
    // concatenates cleanly; one worker makes a single chunk.
    let mut bitw = BitWriter::with_capacity(nblocks.div_ceil(8));
    for c in chunks {
        for &s in &c.states {
            bitw.write_bit(s);
        }
    }
    bytes.extend_from_slice(bitw.as_bytes());

    for c in chunks {
        for &mu in &c.mus {
            mu.write_le(&mut bytes);
        }
    }
    for c in chunks {
        for &z in &c.zsizes {
            bytes.extend_from_slice(&z.to_le_bytes());
        }
    }
    for c in chunks {
        bytes.extend_from_slice(&c.payload);
    }

    if szx_telemetry::enabled() {
        flush_encode_telemetry(chunks, n * F::BYTES, bytes.len());
    }
    bytes
}

/// Merge every chunk's local stats and publish them to the global registry —
/// the single join point shared by the serial and parallel compressors, so
/// the registry sees exactly one flush per top-level call regardless of how
/// many rayon workers produced the chunks.
fn flush_encode_telemetry<F: SzxFloat>(
    chunks: &[ChunkOutput<F>],
    raw_bytes: usize,
    stream_bytes: usize,
) {
    let mut merged = BlockEncodeStats::default();
    for c in chunks {
        merged.merge(&c.stats);
    }

    let tel = szx_telemetry::global();
    tel.counter("compress.calls").incr();
    tel.counter("compress.blocks.constant").add(merged.constant);
    tel.counter("compress.blocks.nonconstant")
        .add(merged.nonconstant);
    tel.counter("compress.blocks.fallback").add(merged.fallback);
    tel.counter("compress.bytes.mid").add(merged.mid_bytes);
    tel.counter("compress.bytes.lead_saved")
        .add(merged.lead_saved_bytes);
    tel.counter("compress.bytes.raw").add(raw_bytes as u64);
    tel.counter("compress.bytes.stream")
        .add(stream_bytes as u64);
    tel.counter("compress.scratch.grows")
        .add(merged.scratch_grows);
    tel.gauge("compress.scratch.arena_bytes")
        .set_max(merged.scratch_arena_bytes as f64);
    // Per-kernel time attribution: one aggregate record per top-level call
    // (per-block clock reads happen only while telemetry is on).
    if merged.ns_range_scan > 0 {
        tel.span_stats("compress.kernel.range_scan")
            .record(merged.ns_range_scan);
    }
    if merged.ns_encode > 0 {
        tel.span_stats("compress.kernel.encode")
            .record(merged.ns_encode);
    }

    let req_hist = tel.hist_linear("compress.req_len", 64);
    for (r, &count) in merged.req_len_hist.iter().enumerate() {
        req_hist.record_n(r as u64, count);
    }
    let zsize_hist = tel.hist_log2("compress.block_zsize");
    for c in chunks {
        for &z in &c.zsizes {
            zsize_hist.record(z as u64);
        }
    }
}

/// Encode one non-constant block. Returns the μ actually used (0.0 when the
/// block is stored bit-exactly) and the block's required length `R_k`.
///
/// Payload layout (all strategies): `[R_k: u8][2-bit leading codes][data...]`
/// where `data` depends on the strategy:
/// * Solution C: mid-bytes only (plain memcpy commits) — the paper's design.
/// * Solution A: one tightly bit-packed pool of `R_k − 8·L_i` bits per value.
/// * Solution B: whole-byte pool followed by a `β = R_k mod 8`-bit residual
///   pool.
fn encode_nonconstant<F: SzxFloat>(
    block: &[F],
    stats: &BlockStats<F>,
    eb: f64,
    strategy: CommitStrategy,
    payload: &mut Vec<u8>,
    scratch: &mut EncodeScratch,
) -> (F, u32) {
    let req_len = required_length::<F>(stats.radius, eb);
    let raw = req_len == F::FULL_BITS;
    let mu = if raw { F::ZERO } else { stats.mu };

    payload.push(req_len as u8);
    let lead_off = payload.len();
    let lead_bytes = (2 * block.len()).div_ceil(8);
    payload.resize(lead_off + lead_bytes, 0);

    match strategy {
        CommitStrategy::ByteAligned => {
            let s = shift_for(req_len);
            let nb = bytes_for(req_len);
            let lead_cap = nb.min(3);
            let mut prev = 0u64;
            for (i, &d) in block.iter().enumerate() {
                let v = if raw { d } else { d - mu };
                let w = v.to_word() >> s;
                let xor = w ^ prev;
                let lead = ((xor.leading_zeros() / 8) as usize).min(lead_cap);
                payload[lead_off + i / 4] |= (lead as u8) << (6 - 2 * (i % 4));
                let be = w.to_be_bytes();
                payload.extend_from_slice(&be[lead..nb]);
                prev = w;
            }
        }
        CommitStrategy::BitPack => {
            let lead_cap = (req_len / 8).min(3) as usize;
            scratch.bits.clear();
            let mut prev = 0u64;
            for (i, &d) in block.iter().enumerate() {
                let v = if raw { d } else { d - mu };
                let w = v.to_word();
                let xor = w ^ prev;
                let lead = ((xor.leading_zeros() / 8) as usize).min(lead_cap);
                payload[lead_off + i / 4] |= (lead as u8) << (6 - 2 * (i % 4));
                let t = req_len - 8 * lead as u32;
                if t > 0 {
                    let bits = (w << (8 * lead)) >> (64 - t);
                    scratch.bits.write_bits(bits, t);
                }
                prev = w;
            }
            payload.extend_from_slice(scratch.bits.as_bytes());
        }
        CommitStrategy::BytePlusResidual => {
            let beta = req_len % 8;
            let lead_cap = (req_len / 8).min(3) as usize;
            scratch.bytes_pool.clear();
            scratch.bits.clear();
            let mut prev = 0u64;
            for (i, &d) in block.iter().enumerate() {
                let v = if raw { d } else { d - mu };
                let w = v.to_word();
                let xor = w ^ prev;
                let lead = ((xor.leading_zeros() / 8) as usize).min(lead_cap);
                payload[lead_off + i / 4] |= (lead as u8) << (6 - 2 * (i % 4));
                // α whole bytes after the identical prefix...
                let alpha = (req_len / 8) as usize - lead;
                let be = w.to_be_bytes();
                scratch
                    .bytes_pool
                    .extend_from_slice(&be[lead..lead + alpha]);
                // ...then β residual bits, identical width for every value.
                if beta > 0 {
                    let shift_out = 8 * (lead + alpha) as u32;
                    let bits = (w << shift_out) >> (64 - beta);
                    scratch.bits.write_bits(bits, beta);
                }
                prev = w;
            }
            payload.extend_from_slice(&scratch.bytes_pool);
            payload.extend_from_slice(scratch.bits.as_bytes());
        }
    }
    (mu, req_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorBound;
    use crate::error::SzxError;

    #[test]
    fn compress_rejects_empty() {
        let err = compress::<f32>(&[], &SzxConfig::absolute(1e-3)).unwrap_err();
        assert_eq!(err, SzxError::EmptyInput);
    }

    #[test]
    fn compress_rejects_invalid_config() {
        let cfg = SzxConfig::absolute(1e-3).with_block_size(0);
        assert!(compress(&[1.0f32], &cfg).is_err());
    }

    #[test]
    fn constant_data_compresses_to_mu_only() {
        let data = vec![3.25f32; 1024];
        let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        // 8 blocks: header 36 + 1 state byte + 8 μ (32 bytes) = 69 bytes.
        assert_eq!(bytes.len(), 69);
        let h = crate::stream::inspect(&bytes).unwrap();
        assert_eq!(h.n_nonconstant, 0);
    }

    #[test]
    fn relative_bound_with_nonfinite_range_errors_cleanly() {
        let data = [f32::MAX, f32::MIN, 0.0, 1.0];
        let cfg = SzxConfig {
            block_size: 4,
            error_bound: ErrorBound::Relative(1e-3),
            strategy: CommitStrategy::ByteAligned,
            kernel: crate::config::KernelSelect::Auto,
        };
        // Range overflows f64? No — f32::MAX fits in f64, so this resolves
        // fine and must compress.
        assert!(compress(&data, &cfg).is_ok());
    }

    #[test]
    fn payload_grows_with_entropy() {
        let smooth: Vec<f32> = (0..4096).map(|i| (i as f32 * 1e-4).sin()).collect();
        let rough: Vec<f32> = (0..4096)
            .map(|i| ((i as f32 * 12.9898).sin() * 43_758.547).fract())
            .collect();
        let cfg = SzxConfig::absolute(1e-3);
        let a = compress(&smooth, &cfg).unwrap().len();
        let b = compress(&rough, &cfg).unwrap().len();
        assert!(a < b, "smooth {a} must compress smaller than rough {b}");
    }
}
