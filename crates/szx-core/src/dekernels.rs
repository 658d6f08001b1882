//! Branch-free, two-pass decode kernels — the decompression counterpart of
//! [`crate::kernels`].
//!
//! The scalar decoder in [`crate::decode`] reconstructs a `ByteAligned`
//! block with one branchy loop carrying *two* serial dependences: the
//! mid-byte cursor (`pos += nb - lead`, so value *i*'s payload address is
//! unknown until value *i−1* is parsed) and the `prev`-word recurrence (the
//! leading bytes of value *i* are copied out of the previous reconstructed
//! word). Both are exactly the serializations the paper's own parallel
//! design attacks: §6.1 prefix-sums the `zsize_array` so every thread knows
//! its block's start address, and cuSZx's device decompressor resolves the
//! leading-byte dependency with an index-propagation (prefix-scan) pass.
//! This module applies the same two devices *within* a block:
//!
//! **Pass 1 — offsets and provenance (integer scans, no float work):**
//! 1. Unpack all 2-bit lead codes in bulk (no per-value bit branch).
//! 2. Prefix-sum `nb − lead` to get every value's exact byte offset into
//!    the mid-byte pool — the §6.1 zsize prefix sum at value granularity.
//!    One comparison of the total against the pool length replaces the
//!    scalar loop's per-value bounds check.
//! 3. Propagate, per byte position `p ∈ {0,1,2}` (a lead code never exceeds
//!    3, so deeper bytes are always self-provided), the index of the last
//!    value whose own payload covers byte `p` — cuSZx's index propagation.
//!    A lead code of 0 restates the whole word and resets all three scans,
//!    which is what breaks the `prev` recurrence: after this pass every
//!    value knows *which* earlier value each inherited byte comes from, so
//!    reconstruction needs no loop-carried word at all.
//!
//! **Pass 2 — reconstruction (unconditional loads, vectorizable sweep):**
//! 4. Copy the pool into a slack-padded arena once, then materialize each
//!    value's *aligned word* with an unconditional overlapping 8-byte load
//!    at its prefix-summed offset (the mirror image of the encoder's
//!    overlapping-store committer — the garbage tail each load drags in is
//!    masked off, never branched on).
//! 5. Assemble `w_i` by masking bytes out of the provider words found in
//!    step 3, then run one independent-per-element
//!    `w << s` → [`SzxFloat::from_word`] → `+ μ` sweep.
//!
//! The kernel is **byte-for-byte equivalent** to the scalar decoder —
//! identical outputs on every valid stream (bit patterns included) and an
//! error on exactly the corrupt streams the scalar loop rejects — which the
//! roundtrip property and corrupt-stream suites assert. The scalar decoder
//! stays behind [`KernelSelect::Scalar`](crate::config::KernelSelect) as
//! the oracle, exactly as the encode kernels did in `kernels.rs`.

use crate::block::{bytes_for, shift_for};
use crate::contracts::contract;
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;

/// Reusable per-call/per-chunk scratch for the decode kernel. Threaded
/// through the engine's decoder (serial: one per call; parallel: one per
/// rayon group, mirroring [`crate::kernels::EncodeScratch`]) so the block
/// loop performs **zero** allocations once the arenas have grown to the
/// largest block.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Clamped lead code per element (unpacked, one byte each).
    /// Fields are `pub(crate)` so the SIMD decoder can share pass 1 (the
    /// integer scan below) and run its own gather-based pass 2.
    pub(crate) leads: Vec<u8>,
    /// Byte offset of each element's mid-bytes inside the pool (prefix sum).
    pub(crate) offsets: Vec<u32>,
    /// Provider index per byte position 0/1/2: `prov[p][i]` is the 1-based
    /// index of the word supplying byte `p` of value `i` (0 = the implicit
    /// all-zero word before the block).
    pub(crate) prov0: Vec<u32>,
    pub(crate) prov1: Vec<u32>,
    pub(crate) prov2: Vec<u32>,
    /// Aligned words, one slot of lead (index 0) for the implicit zero word.
    pub(crate) words: Vec<u64>,
    /// Mid-byte pool copy with 8 bytes of slack so the unconditional
    /// overlapping 8-byte loads never read out of bounds.
    pub(crate) pool: Vec<u8>,
    /// Arena (re)allocation events, for allocation-regression tests.
    pub(crate) grows: u64,
}

impl DecodeScratch {
    /// Grow the arenas to hold a block of `blen` elements. Amortized free:
    /// after the first block of maximal size this never reallocates.
    #[inline]
    pub(crate) fn ensure(&mut self, blen: usize) {
        if self.leads.len() < blen {
            self.grows += 1;
            self.leads.resize(blen, 0);
            self.offsets.resize(blen, 0);
            self.prov0.resize(blen, 0);
            self.prov1.resize(blen, 0);
            self.prov2.resize(blen, 0);
            self.words.resize(blen + 1, 0);
            self.pool.resize(blen * 8 + 8, 0);
        }
        contract!(
            self.words.len() > blen && self.pool.len() >= blen * 8 + 8,
            "decode arenas sized for {blen} elements"
        );
    }

    /// Drain the growth-event count (for telemetry/regression flushes).
    #[inline]
    pub(crate) fn take_grows(&mut self) -> u64 {
        std::mem::take(&mut self.grows)
    }

    /// Bytes currently reserved by the arenas — published as the
    /// `decompress.scratch.arena_bytes` gauge at the telemetry flush.
    pub(crate) fn arena_bytes(&self) -> u64 {
        (self.leads.capacity()
            + self.offsets.capacity() * 4
            + self.prov0.capacity() * 4
            + self.prov1.capacity() * 4
            + self.prov2.capacity() * 4
            + self.words.capacity() * 8
            + self.pool.capacity()) as u64
    }
}

/// Mask selecting big-endian byte `p` of a word, zero past the `nb`-byte
/// significant prefix. Shared with the SIMD decoder's gather pass.
#[inline]
pub(crate) fn byte_mask(p: usize, nb: usize) -> u64 {
    if p < nb {
        0xffu64 << (56 - 8 * p)
    } else {
        0
    }
}

/// Validated view of a non-constant `ByteAligned` block payload: the
/// required length, the bit-exact flag, and the lead-code/body sections.
/// Shared by the kernel and SIMD decoders so both reject exactly the
/// corrupt payloads the scalar loop rejects.
pub(crate) struct NonconstHeader<'a> {
    pub(crate) req_len: u32,
    pub(crate) raw: bool,
    pub(crate) codes: &'a [u8],
    pub(crate) body: &'a [u8],
}

/// Parse and validate the `[R_k: u8][2-bit lead codes]` prefix of a
/// non-constant block payload. Same checks and error messages as the scalar
/// [`crate::decode::decode_nonconstant_block`].
pub(crate) fn parse_nonconstant_header<F: SzxFloat>(
    payload: &[u8],
    blen: usize,
) -> Result<NonconstHeader<'_>> {
    let lead_bytes = (2 * blen).div_ceil(8);
    if payload.len() < 1 + lead_bytes {
        return Err(SzxError::CorruptStream("block payload truncated".into()));
    }
    // PANIC-OK: the length check above guarantees 1 + lead_bytes bytes.
    // CAST: widening u8 -> u32.
    let req_len = payload[0] as u32;
    if req_len < F::SIGN_EXP_BITS || req_len > F::FULL_BITS {
        return Err(SzxError::CorruptStream(format!(
            "required length {req_len} invalid for {}",
            F::NAME
        )));
    }
    Ok(NonconstHeader {
        req_len,
        raw: req_len == F::FULL_BITS,
        // PANIC-OK: same length check; payload.len() >= 1 + lead_bytes.
        codes: &payload[1..1 + lead_bytes],
        body: &payload[1 + lead_bytes..], // PANIC-OK: as above
    })
}

/// Pass 1 — one fused integer scan over the lead codes, producing per
/// value: the clamped lead, the prefix-summed pool offset (the §6.1
/// zsize prefix sum at value granularity), and the provider index per
/// inheritable byte position (cuSZx's index propagation: for each of
/// the at-most-3 positions a lead code can cover, carry forward the
/// 1-based index of the last value whose own payload supplies that
/// byte; a lead of 0 — a fully restated word — resets all three scans,
/// which is what breaks the scalar loop's `prev` recurrence). Selects,
/// not branches; the clamp is the same `.min(nb)` the scalar loop does.
/// Returns the total mid-byte pool length the codes demand. The caller
/// must have run `scratch.ensure(blen)` and `codes` must hold at least
/// `ceil(2 * blen / 8)` bytes. Shared with the SIMD decoder (the scan is
/// inherently serial — three coupled prefix recurrences — so the SIMD
/// path vectorizes pass 2 only).
pub(crate) fn scan_lead_codes(
    codes: &[u8],
    nb8: u8,
    blen: usize,
    scratch: &mut DecodeScratch,
) -> usize {
    // PANIC-OK: ensure(blen) (caller contract) sized every arena to >= blen.
    let leads = &mut scratch.leads[..blen];
    let offsets = &mut scratch.offsets[..blen]; // PANIC-OK: as above
    let prov0 = &mut scratch.prov0[..blen]; // PANIC-OK: as above
    let prov1 = &mut scratch.prov1[..blen]; // PANIC-OK: as above
    let prov2 = &mut scratch.prov2[..blen]; // PANIC-OK: as above
    let mut acc = 0u32;
    let (mut a0, mut a1, mut a2) = (0u32, 0u32, 0u32);
    for i in 0..blen {
        // PANIC-OK: i < blen bounds every arena slice taken above, and
        // i >> 2 < ceil(2 * blen / 8) = codes.len().
        let l = ((codes[i >> 2] >> (6 - 2 * (i & 3))) & 3).min(nb8);
        leads[i] = l; // PANIC-OK: as above
        offsets[i] = acc; // PANIC-OK: as above
                          // CAST: widening u8 -> u32.
        acc += (nb8 - l) as u32;
        // CAST: i < blen <= MAX_BLOCK_SIZE, far below 2^32 - 1.
        let idx = i as u32 + 1;
        a0 = if l == 0 { idx } else { a0 };
        a1 = if l <= 1 { idx } else { a1 };
        a2 = if l <= 2 { idx } else { a2 };
        prov0[i] = a0; // PANIC-OK: as above
        prov1[i] = a1; // PANIC-OK: as above
        prov2[i] = a2; // PANIC-OK: as above
    }
    acc as usize
}

/// Kernel decode of one non-constant `ByteAligned` block payload into `out`
/// (of the block's length). Same validation, same outputs, and same errors
/// as the scalar [`crate::decode::decode_nonconstant_block`].
pub(crate) fn decode_nonconstant_block<F: SzxFloat>(
    payload: &[u8],
    out: &mut [F],
    mu: F,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    let blen = out.len();
    let h = parse_nonconstant_header::<F>(payload, blen)?;
    let (req_len, raw, codes, body) = (h.req_len, h.raw, h.codes, h.body);

    let s = shift_for(req_len);
    let nb = bytes_for(req_len);
    scratch.ensure(blen);

    let nb8 = nb as u8; // CAST: bytes_for() <= 8
    let total = scan_lead_codes(codes, nb8, blen, scratch);
    contract!(
        scratch.offsets.iter().take(blen).is_sorted() && total <= blen * 8,
        "mid-byte offsets must be a monotone prefix sum bounded by 8 per value"
    );
    // One total-length check subsumes the scalar loop's per-value
    // `pos + k > body.len()` test: the per-value needs are non-negative,
    // so any prefix overrun implies a total overrun and vice versa.
    if total > body.len() {
        return Err(SzxError::CorruptStream("mid-byte pool truncated".into()));
    }

    // Pass 2 — one memcpy of the pool into the slack-padded arena, then a
    // single reconstruction sweep. Each value's *aligned word* is an
    // unconditional overlapping 8-byte load at its prefix-summed offset
    // (the mirror image of the encoder's overlapping-store committer): the
    // value's `nb − lead` mid-bytes land at byte positions `lead..nb`, and
    // whatever tail the load dragged in sits past `nb`, where the masks
    // never look. Byte `p` of value `i` then comes from the aligned word
    // of its provider (itself whenever `p ≥ lead_i`; the implicit zero
    // word at index 0 when no value has supplied byte `p` yet); bytes 3
    // and deeper are always self-provided because lead codes top out at 3.
    // Providers are never *later* values, so materializing `words[i + 1]`
    // and assembling `out[i]` fuse into one pass without ordering hazards.
    // PANIC-OK: total <= body.len() was just checked, and ensure() sized
    // the pool to blen * 8 + 8 >= total + 8.
    scratch.pool[..total].copy_from_slice(&body[..total]);
    let m0 = byte_mask(0, nb);
    let m1 = byte_mask(1, nb);
    let m2 = byte_mask(2, nb);
    let top = (!0u64) << (64 - 8 * nb as u32); // CAST: nb <= 8
    let m_rest = top & !(m0 | m1 | m2);
    // PANIC-OK: ensure(blen) sized words to blen + 1 and the per-element
    // arenas to blen; full-range [..] cannot fail.
    let pool = &scratch.pool[..];
    let words = &mut scratch.words[..blen + 1]; // PANIC-OK: as above
    words[0] = 0; // the implicit zero word `prev` starts from -- PANIC-OK: as above
    let leads = &scratch.leads[..blen]; // PANIC-OK: as above
    let offsets = &scratch.offsets[..blen]; // PANIC-OK: as above
    let prov0 = &scratch.prov0[..blen]; // PANIC-OK: as above
    let prov1 = &scratch.prov1[..blen]; // PANIC-OK: as above
    let prov2 = &scratch.prov2[..blen]; // PANIC-OK: as above
    for (i, slot) in out.iter_mut().enumerate() {
        // PANIC-OK: i < blen = out.len() bounds every arena slice; the
        // provider indices are 0..=i + 1 <= blen < words.len().
        let off = offsets[i] as usize;
        contract!(
            off + 8 <= pool.len(),
            "overlapping load at {off} must stay inside the slack-padded pool"
        );
        // PANIC-OK: off + 8 <= total + 8 <= pool.len() (8-byte slack); the
        // unwrap is on an infallible 8-byte slice -> [u8; 8] conversion.
        let loaded = u64::from_be_bytes(pool[off..off + 8].try_into().unwrap());
        // CAST: leads[i] <= nb <= 8. -- PANIC-OK: as above
        let a = loaded >> (8 * leads[i] as u32);
        words[i + 1] = a; // PANIC-OK: as above
        let w = (words[prov0[i] as usize] & m0) // PANIC-OK: as above
            | (words[prov1[i] as usize] & m1) // PANIC-OK: as above
            | (words[prov2[i] as usize] & m2) // PANIC-OK: as above
            | (a & m_rest);
        let v = F::from_word(w << s);
        *slot = if raw { v } else { v + mu };
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommitStrategy, SzxConfig};
    use crate::decode::decode_nonconstant_block as scalar_decode;

    /// Compress one block's worth of data and return the non-constant
    /// payload plus μ (panics if the block classified constant).
    fn one_block_payload(data: &[f32], eb: f64) -> (Vec<u8>, f32) {
        let cfg = SzxConfig::absolute(eb).with_block_size(data.len());
        let bytes = crate::compress(data, &cfg).unwrap();
        let index = crate::decode::StreamIndex::build::<f32>(&bytes).unwrap();
        assert!(index.states.get(0), "fixture block must be non-constant");
        let payload = index.payloads[..index.zsizes[0] as usize].to_vec();
        (payload, index.mu::<f32>(0))
    }

    fn assert_kernel_matches_scalar(data: &[f32], eb: f64) {
        let (payload, mu) = one_block_payload(data, eb);
        let mut scalar_out = vec![0f32; data.len()];
        let mut kernel_out = vec![0f32; data.len()];
        scalar_decode(&payload, &mut scalar_out, mu, CommitStrategy::ByteAligned).unwrap();
        let mut scratch = DecodeScratch::default();
        decode_nonconstant_block(&payload, &mut kernel_out, mu, &mut scratch).unwrap();
        for (i, (a, b)) in scalar_out.iter().zip(&kernel_out).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i} differs");
        }
    }

    #[test]
    fn kernel_matches_scalar_on_plain_blocks() {
        // n = 1 is absent: a single finite value always classifies
        // constant (radius 0), so no non-constant payload exists.
        for n in [2usize, 3, 7, 8, 17, 128, 1000] {
            let data: Vec<f32> = (0..n)
                .map(|i| (i as f32 * 0.11).sin() * 5.0 + 0.25)
                .collect();
            assert_kernel_matches_scalar(&data, 1e-3);
        }
    }

    #[test]
    fn kernel_matches_scalar_on_single_element_raw_block() {
        // A lone NaN forces the bit-exact (req_len = FULL_BITS) fallback,
        // the only way a 1-element block is non-constant.
        assert_kernel_matches_scalar(&[f32::NAN], 1e-3);
    }

    #[test]
    fn kernel_matches_scalar_across_required_lengths() {
        // Sweep bounds so req_len (and therefore nb, shift, and lead caps)
        // covers the full spectrum, including the bit-exact fallback.
        let data: Vec<f32> = (0..256)
            .map(|i| ((i * 37 % 97) as f32) * 0.31 - 15.0)
            .collect();
        for eb in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 0.0] {
            assert_kernel_matches_scalar(&data, eb);
        }
    }

    #[test]
    fn kernel_matches_scalar_on_nan_inf_blocks() {
        let mut data: Vec<f32> = (0..128).map(|i| (i as f32 * 0.01).cos()).collect();
        data[3] = f32::NAN;
        data[77] = f32::INFINITY;
        data[78] = f32::NEG_INFINITY;
        assert_kernel_matches_scalar(&data, 1e-3);
    }

    #[test]
    fn kernel_matches_scalar_on_high_dedup_blocks() {
        // Slowly varying data maximizes nonzero lead codes, exercising the
        // provider scans; a few restarts punctuate the chains.
        let mut data: Vec<f32> = (0..512).map(|i| 100.0 + i as f32 * 1e-4).collect();
        data[100] = -250.0;
        data[300] = 1e20;
        assert_kernel_matches_scalar(&data, 1e-6);
    }

    #[test]
    fn truncated_pool_is_an_error_not_a_panic() {
        let data: Vec<f32> = (0..128).map(|i| (i as f32 * 0.3).sin() * 9.0).collect();
        let (payload, mu) = one_block_payload(&data, 1e-4);
        let mut scratch = DecodeScratch::default();
        let mut out = vec![0f32; data.len()];
        for cut in 0..payload.len() {
            let r = decode_nonconstant_block(&payload[..cut], &mut out, mu, &mut scratch);
            let s = scalar_decode(
                &payload[..cut],
                &mut out,
                mu,
                crate::config::CommitStrategy::ByteAligned,
            );
            assert_eq!(r.is_err(), s.is_err(), "cut at {cut}");
            assert!(r.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn scratch_grows_once_per_high_water_mark() {
        let mut s = DecodeScratch::default();
        s.ensure(128);
        s.ensure(64);
        s.ensure(128);
        assert_eq!(s.grows, 1);
        s.ensure(4096);
        assert_eq!(s.take_grows(), 2);
        assert!(s.pool.len() >= 4096 * 8 + 8);
        assert_eq!(s.words.len(), 4096 + 1);
    }
}
