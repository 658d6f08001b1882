//! The cuSZx kernels of §6.2, written against the SIMT execution model and
//! validated byte-for-byte against the CPU codec.
//!
//! * One simulated thread block processes one SZx data block; one lane
//!   processes one data point (Loops 1 and 2 of Figures 9/10 unrolled).
//! * Compression breaks the mid-byte address dependency with a two-level
//!   in-warp prefix scan (§6.2.2 Solution 1) and the previous-value
//!   dependency by re-reading the predecessor from the input (Solution 2,
//!   depth 1).
//! * Decompression resolves the leading-byte RAW dependence chains with the
//!   recursive-doubling *index propagation* of Figure 11.
//!
//! Only the `ByteAligned` commit strategy (the paper's Solution C) exists on
//! the GPU path, as in the real cuSZx.

use szx_core::bitio::pack_state_bits;
use szx_core::block::{bytes_for, required_length, shift_for, BlockStats};
use szx_core::config::{CommitStrategy, ErrorBound, SzxConfig};
use szx_core::error::{Result, SzxError};
use szx_core::float::SzxFloat;
use szx_core::stream::Header;

use crate::cost::Cost;
use crate::machine::{
    block_exclusive_scan, block_minmax, block_propagate_max, global_read, global_write, WARP,
};

/// Per-block output of the compression kernel.
struct BlockOut {
    constant: bool,
    mu: f32,
    payload: Vec<u8>,
}

/// Compress one data block on the simulated device. The payload layout is
/// exactly the CPU `ByteAligned` payload.
fn compress_block(block: &[f32], eb: f64, cost: &mut Cost) -> BlockOut {
    let lanes = block.len();
    global_read(cost, lanes * 4);

    // §6.2.1: parallel min/max via warp reductions. NaN must classify the
    // block as non-constant with bit-exact storage, matching the CPU; a
    // ballot detects it.
    let mut has_nan = false;
    for &v in block {
        has_nan |= v.is_nan();
    }
    cost.warp_instructions += lanes.div_ceil(WARP) as u64; // ballot
    let stats = if has_nan {
        BlockStats {
            mu: 0.0f32,
            radius: f32::NAN,
        }
    } else {
        let (lo, hi) = block_minmax(block, cost);
        let mu = f32::half_sum(lo, hi);
        BlockStats {
            mu,
            radius: hi - mu,
        }
    };
    cost.warp_instructions += 2; // μ and radius (lane 0)

    if stats.is_constant_for(eb, block) {
        return BlockOut {
            constant: true,
            mu: stats.mu,
            payload: Vec::new(),
        };
    }

    let req_len = required_length::<f32>(stats.radius, eb);
    let raw = req_len == <f32 as SzxFloat>::FULL_BITS;
    let mu = if raw { 0.0 } else { stats.mu };
    let s = shift_for(req_len);
    let nb = bytes_for(req_len);
    let lead_cap = nb.min(3);

    // Steps 1–2 of Figure 9, one lane per point. The predecessor's word is
    // recomputed from the input (Solution 2): one extra subtraction+shift
    // per lane instead of a cross-lane dependency.
    let mut words = vec![0u64; lanes];
    let mut leads = vec![0u32; lanes];
    let mut mid_counts = vec![0u32; lanes];
    for i in 0..lanes {
        let v = if raw { block[i] } else { block[i] - mu };
        let w = v.to_word() >> s;
        let prev = if i == 0 {
            0
        } else {
            let pv = if raw { block[i - 1] } else { block[i - 1] - mu };
            pv.to_word() >> s
        };
        let lead = (((w ^ prev).leading_zeros() / 8) as usize).min(lead_cap) as u32;
        words[i] = w;
        leads[i] = lead;
        mid_counts[i] = nb as u32 - lead;
    }
    // sub, shift, xor, clz, min, sub — charged warp-wide; ×2 for the
    // predecessor recomputation.
    cost.warp_instructions += 12 * lanes.div_ceil(WARP) as u64;
    global_read(cost, lanes * 4); // predecessor re-reads (L1-coalesced)

    // Solution 1: prefix scan gives every lane its mid-byte write offset.
    let offsets = block_exclusive_scan(&mid_counts, cost);
    let total_mid: usize = mid_counts.iter().sum::<u32>() as usize;

    // Assemble the payload in shared memory, then one coalesced store.
    let lead_bytes = (2 * lanes).div_ceil(8);
    let mut payload = vec![0u8; 1 + lead_bytes];
    payload[0] = req_len as u8;
    for (i, &lead) in leads.iter().enumerate() {
        payload[1 + i / 4] |= (lead as u8) << (6 - 2 * (i % 4));
    }
    cost.shared_ops += lanes.div_ceil(WARP) as u64; // packed code stores
    payload.resize(1 + lead_bytes + total_mid, 0);
    for i in 0..lanes {
        let be = words[i].to_be_bytes();
        let dst = 1 + lead_bytes + offsets[i] as usize;
        let k = mid_counts[i] as usize;
        payload[dst..dst + k].copy_from_slice(&be[leads[i] as usize..leads[i] as usize + k]);
    }
    cost.shared_ops += lanes as u64; // per-lane mid-byte stores
    global_write(cost, payload.len());

    BlockOut {
        constant: false,
        mu: stats.mu,
        payload,
    }
}

/// Decompress one non-constant block payload on the simulated device.
fn decompress_block(payload: &[u8], mu: f32, lanes: usize, cost: &mut Cost) -> Result<Vec<f32>> {
    let lead_bytes = (2 * lanes).div_ceil(8);
    if payload.len() < 1 + lead_bytes {
        return Err(SzxError::CorruptStream("payload truncated".into()));
    }
    global_read(cost, payload.len());
    let req_len = payload[0] as u32;
    if !(<f32 as SzxFloat>::SIGN_EXP_BITS..=<f32 as SzxFloat>::FULL_BITS).contains(&req_len) {
        return Err(SzxError::CorruptStream(format!(
            "bad required length {req_len}"
        )));
    }
    let raw = req_len == <f32 as SzxFloat>::FULL_BITS;
    let s = shift_for(req_len);
    let nb = bytes_for(req_len);
    let lead_cap = nb.min(3);
    let codes = &payload[1..1 + lead_bytes];
    let mid = &payload[1 + lead_bytes..];

    // Step 1 of Figure 10: every lane reads its leading number.
    let mut leads = vec![0usize; lanes];
    let mut mid_counts = vec![0u32; lanes];
    for i in 0..lanes {
        let lead = (((codes[i / 4] >> (6 - 2 * (i % 4))) & 3) as usize).min(lead_cap);
        leads[i] = lead;
        mid_counts[i] = (nb - lead) as u32;
    }
    cost.warp_instructions += 4 * lanes.div_ceil(WARP) as u64;

    // Prefix scan locates each lane's mid-bytes in the pool.
    let offsets = block_exclusive_scan(&mid_counts, cost);
    let total: usize = mid_counts.iter().sum::<u32>() as usize;
    if mid.len() < total {
        return Err(SzxError::CorruptStream("mid-byte pool truncated".into()));
    }

    // Figure 11: index propagation per byte position. Lane i owns byte p
    // iff p >= lead_i; non-owners inherit the nearest owner to their left.
    let mut words = vec![0u64; lanes];
    for p in 0..nb {
        let mut idx: Vec<i64> = (0..lanes)
            .map(|i| if p >= leads[i] { i as i64 } else { i64::MIN })
            .collect();
        cost.warp_instructions += lanes.div_ceil(WARP) as u64;
        idx = block_propagate_max(&idx, cost);
        for i in 0..lanes {
            let byte = if idx[i] == i64::MIN {
                // No owner before this lane: the virtual predecessor is the
                // zero word, matching the CPU decoder's `prev = 0` start.
                0
            } else {
                let owner = idx[i] as usize;
                mid[offsets[owner] as usize + (p - leads[owner])]
            };
            words[i] |= (byte as u64) << (56 - 8 * p);
        }
        cost.shared_ops += lanes.div_ceil(WARP) as u64; // gather
    }

    // Step 5: left shift and denormalize.
    let mut out = vec![0f32; lanes];
    for i in 0..lanes {
        let v = f32::from_word(words[i] << s);
        out[i] = if raw { v } else { v + mu };
    }
    cost.warp_instructions += 3 * lanes.div_ceil(WARP) as u64;
    global_write(cost, lanes * 4);
    Ok(out)
}

/// Full-stream compression on the simulated device. Produces a stream
/// **byte-identical** to `szx_core::compress` with the `ByteAligned`
/// strategy (tests enforce this), plus the accumulated operation counts.
pub fn compress_gpu(data: &[f32], cfg: &SzxConfig) -> Result<(Vec<u8>, Cost)> {
    cfg.validate()?;
    if data.is_empty() {
        return Err(SzxError::EmptyInput);
    }
    if cfg.strategy != CommitStrategy::ByteAligned {
        return Err(SzxError::InvalidConfig(
            "the GPU path implements only the ByteAligned (Solution C) strategy".into(),
        ));
    }
    let eb = match cfg.error_bound {
        ErrorBound::Absolute(e) => e,
        ErrorBound::Relative(rel) => rel * szx_core::config::value_range(data),
    };
    let mut cost = Cost::default();

    let mut states = Vec::new();
    let mut mus: Vec<f32> = Vec::new();
    let mut zsizes: Vec<u16> = Vec::new();
    let mut payloads: Vec<u8> = Vec::new();
    for block in data.chunks(cfg.block_size) {
        let out = compress_block(block, eb, &mut cost);
        states.push(!out.constant);
        if out.constant {
            mus.push(out.mu);
        } else {
            // Bit-exact blocks store μ = 0, like the CPU encoder.
            let req_is_raw = out.payload[0] as u32 == <f32 as SzxFloat>::FULL_BITS;
            mus.push(if req_is_raw { 0.0 } else { out.mu });
            zsizes.push(out.payload.len() as u16);
            payloads.extend_from_slice(&out.payload);
        }
    }

    let header = Header {
        dtype: <f32 as SzxFloat>::DTYPE_CODE,
        strategy: cfg.strategy,
        block_size: cfg.block_size,
        n: data.len(),
        eb,
        n_nonconstant: zsizes.len(),
    };
    let mut bytes = Vec::new();
    header.write(&mut bytes);
    bytes.extend_from_slice(&pack_state_bits(&states));
    for &mu in &mus {
        mu.write_le(&mut bytes);
    }
    for z in &zsizes {
        bytes.extend_from_slice(&z.to_le_bytes());
    }
    bytes.extend_from_slice(&payloads);
    global_write(
        &mut cost,
        szx_core::stream::HEADER_LEN + states.len() / 8 + states.len() * 4,
    );
    Ok((bytes, cost))
}

/// Full-stream decompression on the simulated device. Only the non-constant
/// blocks run kernels (constant blocks are filled during the host gather,
/// as §6.2.1 describes).
pub fn decompress_gpu(bytes: &[u8]) -> Result<(Vec<f32>, Cost)> {
    let header = szx_core::inspect(bytes)?;
    if header.strategy != CommitStrategy::ByteAligned {
        return Err(SzxError::InvalidConfig(
            "the GPU path implements only the ByteAligned (Solution C) strategy".into(),
        ));
    }
    // Reuse the CPU index machinery for section parsing (host-side work in
    // the real implementation too), then run the per-block device kernels.
    let mut cost = Cost::default();
    let mut out = vec![0f32; header.n];

    // Host-side parse identical to the CPU path.
    let parsed = szx_core::decode::ParsedStream::parse::<f32>(bytes)?;
    let bs = header.block_size;
    for (b, chunk) in out.chunks_mut(bs).enumerate() {
        let mu = parsed.mu::<f32>(b);
        if parsed.state(b) {
            let (off, len) = parsed.payload_span(b);
            let payload = &parsed.payloads[off..off + len];
            let decoded = decompress_block(payload, mu, chunk.len(), &mut cost)?;
            chunk.copy_from_slice(&decoded);
        } else {
            chunk.fill(mu);
            global_write(&mut cost, chunk.len() * 4);
        }
    }
    Ok((out, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use szx_core::SzxConfig;

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = i as f32 * 0.004;
                x.sin() * 3.0 + (x * 19.0).sin() * 0.01
            })
            .collect()
    }

    #[test]
    fn gpu_stream_is_byte_identical_to_cpu() {
        let data = field(100_000);
        for eb in [1e-2, 1e-4, 1e-6] {
            let cfg = SzxConfig::absolute(eb);
            let cpu = szx_core::compress(&data, &cfg).unwrap();
            let (gpu, cost) = compress_gpu(&data, &cfg).unwrap();
            assert_eq!(cpu, gpu, "eb={eb}");
            assert!(cost.shuffles > 0 && cost.barriers > 0);
        }
    }

    #[test]
    fn gpu_decompress_matches_cpu() {
        let data = field(50_000);
        let cfg = SzxConfig::absolute(1e-4);
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        let cpu: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        let (gpu, cost) = decompress_gpu(&bytes).unwrap();
        assert_eq!(cpu, gpu);
        assert!(cost.barriers > 0, "index propagation must have run");
    }

    #[test]
    fn gpu_roundtrip_with_nan_and_tail() {
        let mut data = field(12_345);
        data[77] = f32::NAN;
        data[12_344] = f32::INFINITY;
        let cfg = SzxConfig::absolute(1e-3);
        let (bytes, _) = compress_gpu(&data, &cfg).unwrap();
        let cpu_bytes = szx_core::compress(&data, &cfg).unwrap();
        assert_eq!(bytes, cpu_bytes);
        let (back, _) = decompress_gpu(&bytes).unwrap();
        assert!(back[77].is_nan());
        assert_eq!(back[12_344], f32::INFINITY);
    }

    #[test]
    fn gpu_rejects_other_strategies() {
        let data = field(1000);
        let cfg = SzxConfig::absolute(1e-3).with_strategy(szx_core::CommitStrategy::BitPack);
        assert!(compress_gpu(&data, &cfg).is_err());
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        assert!(decompress_gpu(&bytes).is_err());
    }

    #[test]
    fn constant_data_runs_no_nonconstant_kernels() {
        let data = vec![5.0f32; 4096];
        let cfg = SzxConfig::absolute(1e-3);
        let (bytes, cost) = compress_gpu(&data, &cfg).unwrap();
        assert_eq!(szx_core::inspect(&bytes).unwrap().n_nonconstant, 0);
        // min/max reductions still run, but no payload writes.
        assert!(cost.global_write_bytes < 1024);
    }

    #[test]
    fn cost_scales_with_data() {
        let cfg = SzxConfig::absolute(1e-4);
        let (_, small) = compress_gpu(&field(10_000), &cfg).unwrap();
        let (_, large) = compress_gpu(&field(100_000), &cfg).unwrap();
        assert!(large.global_read_bytes >= 9 * small.global_read_bytes);
        assert!(large.shuffles > 5 * small.shuffles);
    }
}
