//! The SZx decompressor: the stream index, the per-block decoders and the
//! serial entry points (wrappers that run the crate's codec engine on one
//! worker).

use crate::bitio::{BitReader, StateBits};
use crate::block::{bytes_for, shift_for};
use crate::config::{CommitStrategy, KernelPath, KernelSelect};
use crate::dekernels::DecodeScratch;
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;
use crate::stream::{Header, SectionLayout};

/// Everything needed to locate each block inside a compressed stream.
/// Building it costs one pass over the state bits and the zsize array —
/// the prefix sum of §6.1 that unlocks block-parallel decompression.
#[derive(Debug)]
pub(crate) struct StreamIndex<'a> {
    pub header: Header,
    /// Per block: `true` = non-constant. A borrowed view straight into the
    /// stream's state-bit section — building the index allocates nothing
    /// per block for the states.
    pub states: StateBits<'a>,
    /// Per block: μ (normalization offset / constant value) as raw LE bytes
    /// region; decoded lazily per block.
    pub mu_bytes: &'a [u8],
    /// Per non-constant block: byte offset of its payload inside `payloads`.
    pub payload_offsets: Vec<usize>,
    /// Per non-constant block: payload length.
    pub zsizes: Vec<u16>,
    /// The payload section.
    pub payloads: &'a [u8],
}

impl<'a> StreamIndex<'a> {
    pub(crate) fn build<F: SzxFloat>(bytes: &'a [u8]) -> Result<Self> {
        let header = Header::parse(bytes)?;
        header.expect_dtype::<F>()?;
        let layout = SectionLayout::for_header::<F>(&header)?;
        if bytes.len() < layout.payload_off {
            return Err(SzxError::CorruptStream(format!(
                "sections end at {} but stream holds {}",
                layout.payload_off,
                bytes.len()
            )));
        }
        let nblocks = header.num_blocks();
        // The payload_off length check above guarantees every section range
        // below is in bounds; `get` keeps this path panic-free regardless.
        let truncated = || SzxError::CorruptStream("section out of bounds".into());
        let state_bytes = bytes
            .get(layout.state_off..layout.mu_off)
            .ok_or_else(truncated)?;
        let states = StateBits::new(state_bytes, nblocks)
            .ok_or_else(|| SzxError::CorruptStream("state bit section truncated".into()))?;

        let n_nonconstant = states.count_ones();
        if n_nonconstant != header.n_nonconstant {
            return Err(SzxError::CorruptStream(format!(
                "header declares {} non-constant blocks, state bits say {}",
                header.n_nonconstant, n_nonconstant
            )));
        }

        let mu_bytes = bytes
            .get(layout.mu_off..layout.zsize_off)
            .ok_or_else(truncated)?;

        let zsize_bytes = bytes
            .get(layout.zsize_off..layout.payload_off)
            .ok_or_else(truncated)?;
        let mut zsizes = Vec::with_capacity(n_nonconstant);
        let mut payload_offsets = Vec::with_capacity(n_nonconstant);
        let mut acc = 0usize;
        // The layout gives zsize_bytes exactly 2 * n_nonconstant bytes.
        for pair in zsize_bytes.chunks_exact(2) {
            let z = match pair {
                [a, b] => u16::from_le_bytes([*a, *b]),
                _ => 0, // unreachable: chunks_exact yields 2-byte windows
            };
            payload_offsets.push(acc);
            zsizes.push(z);
            acc += z as usize;
        }
        let payloads = bytes.get(layout.payload_off..).unwrap_or(&[]);
        if payloads.len() < acc {
            return Err(SzxError::CorruptStream(format!(
                "payload section holds {} bytes, zsize array requires {acc}",
                payloads.len()
            )));
        }
        Ok(StreamIndex {
            header,
            states,
            mu_bytes,
            payload_offsets,
            zsizes,
            payloads,
        })
    }

    #[inline]
    pub(crate) fn mu<F: SzxFloat>(&self, block: usize) -> F {
        // PANIC-OK: build() sliced mu_bytes to exactly nblocks * F::BYTES,
        // and every caller iterates block < nblocks.
        F::read_le(&self.mu_bytes[block * F::BYTES..])
    }
}

/// Read-only parsed view of a compressed stream, exposed for alternative
/// block decoders (e.g. the GPU execution model in `szx-gpu-sim`), which
/// need per-block payload locations without committing to this crate's
/// decode loop.
pub struct ParsedStream<'a> {
    index: StreamIndex<'a>,
    /// Non-constant blocks preceding each block.
    nc_before: Vec<usize>,
    /// The concatenated payload section.
    pub payloads: &'a [u8],
}

impl<'a> ParsedStream<'a> {
    /// Parse and validate all stream sections.
    pub fn parse<F: SzxFloat>(bytes: &'a [u8]) -> Result<ParsedStream<'a>> {
        let index = StreamIndex::build::<F>(bytes)?;
        let mut nc_before = Vec::with_capacity(index.states.len());
        let mut acc = 0usize;
        for s in index.states.iter() {
            nc_before.push(acc);
            acc += s as usize;
        }
        let payloads = index.payloads;
        Ok(ParsedStream {
            index,
            nc_before,
            payloads,
        })
    }

    /// Parsed header.
    pub fn header(&self) -> &Header {
        &self.index.header
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.index.states.len()
    }

    /// `true` if block `b` is non-constant (reads the stream's state bit
    /// directly — no unpacked copy exists).
    pub fn state(&self, b: usize) -> bool {
        self.index.states.get(b)
    }

    /// μ of block `b`.
    pub fn mu<F: SzxFloat>(&self, b: usize) -> F {
        self.index.mu::<F>(b)
    }

    /// Compressed payload sizes of the non-constant blocks, in stream order
    /// (the `zsize_array` of §6.1). Constant blocks have no payload and do
    /// not appear here.
    pub fn zsizes(&self) -> &[u16] {
        &self.index.zsizes
    }

    /// (offset, length) of block `b`'s payload within [`Self::payloads`].
    /// Block `b` must be non-constant.
    pub fn payload_span(&self, b: usize) -> (usize, usize) {
        debug_assert!(self.state(b), "block {b} is constant");
        // PANIC-OK: documented contract — `b` must index a non-constant
        // block (state(b) itself panics past num_blocks, matching slices);
        // nc_before[b] < n_nonconstant then bounds both per-block arrays.
        let nc = self.nc_before[b];
        (
            self.index.payload_offsets[nc], // PANIC-OK: nc < n_nonconstant
            self.index.zsizes[nc] as usize, // PANIC-OK: nc < n_nonconstant
        )
    }
}

/// Decompress a stream produced by [`crate::compress`]. The element type
/// must match the stream's; use [`crate::stream::inspect`] to discover it.
pub fn decompress<F: SzxFloat>(bytes: &[u8]) -> Result<Vec<F>> {
    decompress_with(bytes, KernelSelect::Auto)
}

/// [`decompress`] with an explicit decode-path selection. The kernel and
/// scalar decoders are byte-identical on every valid stream; `kernel` only
/// chooses *how* blocks are reconstructed, never *what* they decode to.
pub fn decompress_with<F: SzxFloat>(bytes: &[u8], kernel: KernelSelect) -> Result<Vec<F>> {
    crate::engine::decompress(bytes, kernel.resolve(), 1, &mut DecodeScratch::default())
}

/// Decompress into a caller-provided buffer of exactly `header.n` elements,
/// reusing a caller-held [`DecodeScratch`] — the fully allocation-free path
/// for repeated decompressions (output buffer *and* kernel arenas
/// amortized).
pub fn decompress_into_scratch<F: SzxFloat>(
    bytes: &[u8],
    out: &mut [F],
    kernel: KernelSelect,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    crate::engine::decompress_into(bytes, out, kernel.resolve(), 1, scratch)
}

/// Route one non-constant block to the SIMD, kernel, or scalar decoder.
/// The kernel and SIMD paths only cover `ByteAligned` (the default strategy
/// and the paper's Solution C); other strategies always take the scalar
/// loop.
#[inline]
pub(crate) fn decode_block_dispatch<F: SzxFloat>(
    payload: &[u8],
    out: &mut [F],
    mu: F,
    strategy: CommitStrategy,
    path: KernelPath,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    match (path, strategy) {
        (KernelPath::Simd, CommitStrategy::ByteAligned) => {
            crate::simd::decode_nonconstant_block(payload, out, mu, scratch)
        }
        (KernelPath::Kernel, CommitStrategy::ByteAligned) => {
            crate::dekernels::decode_nonconstant_block(payload, out, mu, scratch)
        }
        _ => decode_nonconstant_block(payload, out, mu, strategy),
    }
}

/// Decode one non-constant block payload into `out` (of the block's length).
pub(crate) fn decode_nonconstant_block<F: SzxFloat>(
    payload: &[u8],
    out: &mut [F],
    mu: F,
    strategy: CommitStrategy,
) -> Result<()> {
    let blen = out.len();
    let lead_bytes = (2 * blen).div_ceil(8);
    if payload.len() < 1 + lead_bytes {
        return Err(SzxError::CorruptStream("block payload truncated".into()));
    }
    // PANIC-OK: the length check above guarantees 1 + lead_bytes bytes.
    let req_len = payload[0] as u32;
    if req_len < F::SIGN_EXP_BITS || req_len > F::FULL_BITS {
        return Err(SzxError::CorruptStream(format!(
            "required length {req_len} invalid for {}",
            F::NAME
        )));
    }
    let raw = req_len == F::FULL_BITS;
    // PANIC-OK: same length check; payload.len() >= 1 + lead_bytes.
    let codes = &payload[1..1 + lead_bytes];
    let body = &payload[1 + lead_bytes..]; // PANIC-OK: as above

    #[inline]
    fn code_at(codes: &[u8], i: usize) -> usize {
        // PANIC-OK: callers pass i < blen, and codes holds
        // ceil(2 * blen / 8) bytes, so i / 4 < codes.len().
        ((codes[i / 4] >> (6 - 2 * (i % 4))) & 3) as usize
    }

    match strategy {
        CommitStrategy::ByteAligned => {
            let s = shift_for(req_len);
            let nb = bytes_for(req_len);
            let mut pos = 0usize;
            let mut prev = 0u64;
            for (i, slot) in out.iter_mut().enumerate() {
                let lead = code_at(codes, i).min(nb);
                let k = nb - lead;
                if pos + k > body.len() {
                    return Err(SzxError::CorruptStream("mid-byte pool truncated".into()));
                }
                let mut be = prev.to_be_bytes();
                // PANIC-OK: lead <= nb <= 8 by the min() above, and the
                // pos + k bound was just checked against body.len().
                be[lead..nb].copy_from_slice(&body[pos..pos + k]);
                pos += k;
                let w = u64::from_be_bytes(be);
                let v = F::from_word(w << s);
                *slot = if raw { v } else { v + mu };
                prev = w;
            }
        }
        CommitStrategy::BitPack => {
            let lead_cap = (req_len / 8).min(3) as usize;
            let mut r = BitReader::new(body);
            let mut prev = 0u64;
            for (i, slot) in out.iter_mut().enumerate() {
                let lead = code_at(codes, i).min(lead_cap);
                let t = req_len - 8 * lead as u32;
                let top = if lead > 0 {
                    (prev >> (64 - 8 * lead as u32)) << (64 - 8 * lead as u32)
                } else {
                    0
                };
                let bits = if t > 0 {
                    r.read_bits(t)
                        .ok_or_else(|| SzxError::CorruptStream("bit pool truncated".into()))?
                } else {
                    0
                };
                let w = top | (bits << (64 - req_len));
                let v = F::from_word(w);
                *slot = if raw { v } else { v + mu };
                prev = w;
            }
        }
        CommitStrategy::BytePlusResidual => {
            let beta = req_len % 8;
            let base_alpha = (req_len / 8) as usize;
            let lead_cap = base_alpha.min(3);
            // The whole-byte pool length follows from the leading codes.
            let mut total_alpha = 0usize;
            for i in 0..blen {
                total_alpha += base_alpha - code_at(codes, i).min(lead_cap);
            }
            if body.len() < total_alpha {
                return Err(SzxError::CorruptStream("byte pool truncated".into()));
            }
            let (pool, resid) = body.split_at(total_alpha);
            let mut r = BitReader::new(resid);
            let mut pos = 0usize;
            let mut prev = 0u64;
            for (i, slot) in out.iter_mut().enumerate() {
                let lead = code_at(codes, i).min(lead_cap);
                let alpha = base_alpha - lead;
                let prev_be = prev.to_be_bytes();
                let mut be = [0u8; 8];
                // PANIC-OK: lead + alpha == base_alpha <= 8, and the pool
                // holds total_alpha == sum(alpha_i) bytes (checked above).
                be[..lead].copy_from_slice(&prev_be[..lead]);
                // PANIC-OK: as above.
                be[lead..lead + alpha].copy_from_slice(&pool[pos..pos + alpha]);
                pos += alpha;
                let mut w = u64::from_be_bytes(be);
                if beta > 0 {
                    let bits = r
                        .read_bits(beta)
                        .ok_or_else(|| SzxError::CorruptStream("residual pool truncated".into()))?;
                    w |= bits << (64 - req_len);
                }
                let v = F::from_word(w);
                *slot = if raw { v } else { v + mu };
                prev = w;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SzxConfig;
    use crate::encode::compress;

    fn wave(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.01).sin() * 10.0 + 0.3)
            .collect()
    }

    #[test]
    fn roundtrip_respects_bound_all_strategies() {
        let data = wave(10_000);
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            let cfg = SzxConfig::absolute(1e-3).with_strategy(strategy);
            let bytes = compress(&data, &cfg).unwrap();
            let back: Vec<f32> = decompress(&bytes).unwrap();
            assert_eq!(back.len(), data.len());
            for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
                assert!(
                    (a - b).abs() as f64 <= 1e-3,
                    "{strategy:?}: index {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_f64() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.01).cos() * 3.0).collect();
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            let cfg = SzxConfig::absolute(1e-6).with_strategy(strategy);
            let bytes = compress(&data, &cfg).unwrap();
            let back: Vec<f64> = decompress(&bytes).unwrap();
            for (&a, &b) in data.iter().zip(&back) {
                assert!((a - b).abs() <= 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_bound_is_bit_exact() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32).sqrt().sin() * 1e20).collect();
        let bytes = compress(&data, &SzxConfig::absolute(0.0)).unwrap();
        let back: Vec<f32> = decompress(&bytes).unwrap();
        for (&a, &b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn nan_and_inf_blocks_roundtrip_bit_exact() {
        let mut data = wave(512);
        data[10] = f32::NAN;
        data[300] = f32::INFINITY;
        data[301] = f32::NEG_INFINITY;
        let bytes = compress(&data, &SzxConfig::absolute(1e-2).with_block_size(128)).unwrap();
        let back: Vec<f32> = decompress(&bytes).unwrap();
        assert!(back[10].is_nan());
        assert_eq!(back[300], f32::INFINITY);
        assert_eq!(back[301], f32::NEG_INFINITY);
        // The NaN-carrying blocks are stored bit-exactly, so every value in
        // them must match exactly.
        for i in (0..128).chain(256..384) {
            assert_eq!(data[i].to_bits(), back[i].to_bits(), "index {i}");
        }
    }

    #[test]
    fn ragged_tail_block() {
        for n in [1usize, 5, 127, 128, 129, 255, 257] {
            let data = wave(n);
            let bytes = compress(&data, &SzxConfig::absolute(1e-4).with_block_size(128)).unwrap();
            let back: Vec<f32> = decompress(&bytes).unwrap();
            assert_eq!(back.len(), n);
            for (&a, &b) in data.iter().zip(&back) {
                assert!((a - b).abs() <= 1e-4);
            }
        }
    }

    #[test]
    fn decompress_type_mismatch() {
        let data = wave(100);
        let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        assert!(matches!(
            decompress::<f64>(&bytes),
            Err(SzxError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn decompress_into_wrong_size() {
        let data = wave(100);
        let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        let mut buf = vec![0f32; 99];
        let mut scratch = DecodeScratch::default();
        assert!(
            decompress_into_scratch(&bytes, &mut buf, KernelSelect::Auto, &mut scratch).is_err()
        );
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let data = wave(4096);
        let bytes = compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
        for cut in [0, 10, 36, 50, bytes.len() / 2, bytes.len() - 1] {
            assert!(decompress::<f32>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_zsize_is_an_error_not_a_panic() {
        let data = wave(4096);
        let mut bytes = compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
        let h = crate::stream::inspect(&bytes).unwrap();
        assert!(h.n_nonconstant > 0);
        // Blow up the first zsize entry.
        let layout_zsize_off = {
            let nblocks = h.num_blocks();
            crate::stream::HEADER_LEN + nblocks.div_ceil(8) + nblocks * 4
        };
        bytes[layout_zsize_off] = 0xff;
        bytes[layout_zsize_off + 1] = 0xff;
        assert!(decompress::<f32>(&bytes).is_err());
    }
}
