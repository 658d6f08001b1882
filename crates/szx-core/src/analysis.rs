//! Introspection helpers used by the paper's design-space studies:
//! block classification statistics (§5.3) and the space-overhead accounting
//! of the bitwise right-shift optimization (§5.2, Formula 6 / Figure 6).

use crate::block::{bytes_for, required_length, shift_for, BlockStats};
use crate::config::SzxConfig;
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;

/// How a dataset's blocks classify under a given configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockReport {
    /// Total number of blocks.
    pub n_blocks: usize,
    /// Blocks representable by `μ` alone.
    pub n_constant: usize,
    /// Histogram of required lengths over non-constant blocks
    /// (index = `R_k`, 0..=64).
    pub req_len_histogram: Vec<u64>,
    /// The absolute error bound the report was computed for.
    pub eb: f64,
}

impl BlockReport {
    /// Fraction of constant blocks — the paper's "impact factor A/B" driver.
    pub fn constant_fraction(&self) -> f64 {
        if self.n_blocks == 0 {
            0.0
        } else {
            self.n_constant as f64 / self.n_blocks as f64
        }
    }

    /// Mean required length over non-constant blocks.
    pub fn mean_req_len(&self) -> f64 {
        let (sum, count) = self
            .req_len_histogram
            .iter()
            .enumerate()
            .fold((0u64, 0u64), |(s, c), (r, &n)| (s + r as u64 * n, c + n));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

/// Classify every block of `data` without producing a stream.
pub fn classify<F: SzxFloat>(data: &[F], cfg: &SzxConfig) -> Result<BlockReport> {
    cfg.validate()?;
    if data.is_empty() {
        return Err(SzxError::EmptyInput);
    }
    let eb = crate::engine::error_bound(data, cfg, cfg.kernel.resolve(), 1);
    let mut report = BlockReport {
        n_blocks: 0,
        n_constant: 0,
        req_len_histogram: vec![0; 65],
        eb,
    };
    // The kernel scan is bit-identical to `BlockStats::compute` (property
    // tested), so classification always matches what the compressor does
    // regardless of the configured `KernelSelect`.
    for block in data.chunks(cfg.block_size) {
        let stats = crate::kernels::block_stats(block);
        report.n_blocks += 1;
        if stats.is_constant_for(eb, block) {
            report.n_constant += 1;
        } else {
            let r = required_length::<F>(stats.radius, eb) as usize;
            report.req_len_histogram[r] += 1;
        }
    }
    Ok(report)
}

/// Bit-level accounting behind Figure 6: how many *necessary bits* each
/// commit strategy stores for the same dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftOverhead {
    /// Σ (R_k − L_i) over non-constant values — the necessary bits of
    /// Solutions A/B (leading bytes counted on the unshifted word).
    pub bits_exact: u64,
    /// Σ (R_k + s − L'_i) — the bits Solution C actually stores (leading
    /// bytes counted on the shifted word).
    pub bits_byte_aligned: u64,
    /// Size in bytes of the real Solution C compressed stream, the
    /// denominator of Formula (6).
    pub compressed_len: usize,
    /// Elements in the dataset.
    pub n: usize,
}

impl ShiftOverhead {
    /// Formula (6): increased storage ÷ compressed size. May be negative —
    /// the right shift sometimes *increases* the number of identical
    /// leading bytes enough to win outright.
    pub fn overhead_ratio(&self) -> f64 {
        let delta = self.bits_byte_aligned as f64 - self.bits_exact as f64;
        delta / 8.0 / self.compressed_len as f64
    }
}

/// Measure the space overhead of the §5.1 right-shift trick on `data`.
pub fn shift_overhead<F: SzxFloat>(data: &[F], cfg: &SzxConfig) -> Result<ShiftOverhead> {
    cfg.validate()?;
    if data.is_empty() {
        return Err(SzxError::EmptyInput);
    }
    let eb = crate::engine::error_bound(data, cfg, cfg.kernel.resolve(), 1);
    let mut bits_exact = 0u64;
    let mut bits_byte_aligned = 0u64;

    for block in data.chunks(cfg.block_size) {
        let stats = BlockStats::compute(block);
        if stats.is_constant_for(eb, block) {
            continue;
        }
        let req_len = required_length::<F>(stats.radius, eb);
        let raw = req_len == F::FULL_BITS;
        let mu = if raw { F::ZERO } else { stats.mu };
        let s = shift_for(req_len);
        let nb = bytes_for(req_len);
        let lead_cap_c = nb.min(3);
        let lead_cap_ab = (req_len / 8).min(3) as usize;

        let mut prev_shifted = 0u64;
        let mut prev_plain = 0u64;
        for &d in block {
            let v = if raw { d } else { d - mu };
            let w = v.to_word();

            let ws = w >> s;
            let lead_c = ((ws ^ prev_shifted).leading_zeros() / 8).min(lead_cap_c as u32);
            bits_byte_aligned += (req_len + s) as u64 - 8 * lead_c as u64;
            prev_shifted = ws;

            let lead_ab = ((w ^ prev_plain).leading_zeros() / 8).min(lead_cap_ab as u32);
            bits_exact += req_len as u64 - 8 * lead_ab as u64;
            prev_plain = w;
        }
    }

    let compressed_len = crate::compress(data, cfg)?.len();
    Ok(ShiftOverhead {
        bits_exact,
        bits_byte_aligned,
        compressed_len,
        n: data.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommitStrategy;

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.002).sin() * 4.0 + (i as f32 * 0.09).cos() * 0.01)
            .collect()
    }

    #[test]
    fn classify_counts_blocks() {
        fn rand_ish(x: f32) -> f64 {
            ((x as f64 * 12.9898).sin() * 43758.5453).fract()
        }
        let data: Vec<f32> = (0..256)
            .map(|i| {
                if i < 128 {
                    1.0
                } else {
                    rand_ish(i as f32) as f32
                }
            })
            .collect();
        let report = classify(&data, &SzxConfig::absolute(1e-3).with_block_size(128)).unwrap();
        assert_eq!(report.n_blocks, 2);
        assert_eq!(report.n_constant, 1);
        assert_eq!(report.req_len_histogram.iter().sum::<u64>(), 1);
        assert!((report.constant_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn classify_all_constant() {
        let data = vec![2.5f32; 1000];
        let report = classify(&data, &SzxConfig::absolute(0.0)).unwrap();
        assert_eq!(report.n_constant, report.n_blocks);
        assert_eq!(report.mean_req_len(), 0.0);
    }

    #[test]
    fn overhead_is_small_and_bits_exact_not_larger() {
        let data = field(100_000);
        for eb in [1e-3, 1e-4, 1e-5] {
            let cfg = SzxConfig::absolute(eb);
            let o = shift_overhead(&data, &cfg).unwrap();
            // Solution C never stores fewer raw bits than the exact count
            // minus what extra leading bytes can absorb; the paper reports
            // |overhead| <= ~12% of the compressed size.
            assert!(
                o.overhead_ratio() < 0.15,
                "eb={eb}: overhead {} too large",
                o.overhead_ratio()
            );
            assert!(o.overhead_ratio() > -0.15);
            assert!(o.compressed_len > 0);
        }
    }

    #[test]
    fn overhead_matches_real_stream_sizes() {
        // The bit accounting must agree with the actual streams produced by
        // Solutions B and C: C_size - B_size ≈ (bits_byte_aligned -
        // bits_exact)/8, up to per-value rounding in B's residual pool.
        let data = field(50_000);
        let cfg_c = SzxConfig::absolute(1e-4);
        let cfg_b = cfg_c.with_strategy(CommitStrategy::BytePlusResidual);
        let o = shift_overhead(&data, &cfg_c).unwrap();
        let size_c = crate::compress(&data, &cfg_c).unwrap().len() as f64;
        let size_b = crate::compress(&data, &cfg_b).unwrap().len() as f64;
        let predicted_delta = (o.bits_byte_aligned as f64 - o.bits_exact as f64) / 8.0;
        let actual_delta = size_c - size_b;
        // B pads each block's residual pool to a byte, so allow one byte per
        // block of slack plus 5%.
        let slack = (data.len() / 128) as f64 + 0.05 * size_c;
        assert!(
            (predicted_delta - actual_delta).abs() <= slack,
            "predicted {predicted_delta}, actual {actual_delta}, slack {slack}"
        );
    }

    #[test]
    fn empty_and_invalid_inputs_error() {
        assert!(classify::<f32>(&[], &SzxConfig::absolute(1e-3)).is_err());
        assert!(shift_overhead::<f32>(&[], &SzxConfig::absolute(1e-3)).is_err());
        let bad = SzxConfig::absolute(1e-3).with_block_size(0);
        assert!(classify(&[1.0f32], &bad).is_err());
    }
}
