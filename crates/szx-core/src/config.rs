//! Compressor configuration: error-bound mode, block size, and the
//! bit-commit strategy of §5.1.

use crate::error::{Result, SzxError};
use crate::float::SzxFloat;

/// Largest block size the stream format supports. The per-block compressed
/// size is recorded in a `u16` (`zsize_array`), so a block's worst-case
/// payload (`1 + ceil(2·b/8) + b·8` bytes for f64) must stay below 65536.
pub const MAX_BLOCK_SIZE: usize = 4096;

/// Default block size. The paper's exploration (§5.3, Figure 8) finds the
/// compression ratio saturates at 128 while PSNR is insensitive to block
/// size, so 128 is the best trade-off.
pub const DEFAULT_BLOCK_SIZE: usize = 128;

/// How the maximum allowed pointwise error is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|d_i - d'_i| <= e`.
    Absolute(f64),
    /// Value-range-based relative bound: the absolute bound is
    /// `e = rel * (max(D) - min(D))`, resolved with one extra pass over the
    /// data. This is the `REL` mode used throughout the paper's evaluation.
    Relative(f64),
}

impl ErrorBound {
    fn raw(&self) -> f64 {
        match *self {
            ErrorBound::Absolute(e) | ErrorBound::Relative(e) => e,
        }
    }
}

/// Global value range `max - min`, ignoring NaNs (a dataset of only NaNs has
/// range 0 and compresses bit-exactly regardless of the bound).
pub fn value_range<F: SzxFloat>(data: &[F]) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &d in data {
        let x = d.to_f64();
        if x < min {
            min = x;
        }
        if x > max {
            max = x;
        }
    }
    if max >= min {
        max - min
    } else {
        0.0
    }
}

/// The three ways of committing the necessary mantissa bits (§5.1, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitStrategy {
    /// Solution A: treat the necessary bits as one arbitrary-width integer
    /// and pack it with shift/and/or into a single bit pool (Pastri-style).
    BitPack,
    /// Solution B: split into whole bytes plus residual bits kept in a
    /// separate tightly packed pool (SZ-style).
    BytePlusResidual,
    /// Solution C — the paper's contribution: right-shift the normalized
    /// value by `s = (8 - R%8) % 8` so the necessary bits always form whole
    /// bytes, committed with plain memcpy. Default.
    #[default]
    ByteAligned,
}

impl CommitStrategy {
    pub(crate) fn code(self) -> u8 {
        match self {
            CommitStrategy::BitPack => 0,
            CommitStrategy::BytePlusResidual => 1,
            CommitStrategy::ByteAligned => 2,
        }
    }

    pub(crate) fn from_code(code: u8) -> Result<Self> {
        match code {
            0 => Ok(CommitStrategy::BitPack),
            1 => Ok(CommitStrategy::BytePlusResidual),
            2 => Ok(CommitStrategy::ByteAligned),
            other => Err(SzxError::CorruptStream(format!(
                "unknown commit-strategy code {other}"
            ))),
        }
    }
}

/// Which implementation of the hot loops the compressor runs. All paths
/// produce **byte-identical** streams (asserted by the roundtrip property
/// suite and the fuzz differential oracle); the choice only affects speed,
/// never the format, so it is not recorded in the stream header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelSelect {
    /// Pick the fastest available path: explicit SIMD when the CPU supports
    /// it, otherwise the branch-free portable kernels.
    #[default]
    Auto,
    /// The scalar reference loops — the correctness oracle the kernels are
    /// tested against, and a debugging fallback.
    Scalar,
    /// The branch-free lane kernels in [`crate::kernels`], explicitly.
    Kernel,
    /// The explicit `std::arch` intrinsic kernels in [`crate::simd`].
    /// Falls back to [`KernelSelect::Kernel`] when the running CPU lacks
    /// the required ISA extension (or `SZX_DISABLE_SIMD` is set) — output
    /// is byte-identical either way, so the fallback is silent.
    Simd,
}

/// A concrete, resolved hot-loop implementation. Unlike [`KernelSelect`]
/// (a *request*, which may name an unavailable path), a `KernelPath` is
/// always runnable on the current machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Scalar reference loops.
    Scalar,
    /// Branch-free portable kernels ([`crate::kernels`]/[`crate::dekernels`]).
    Kernel,
    /// Explicit SIMD intrinsic kernels ([`crate::simd`]). Only produced by
    /// [`KernelSelect::resolve`] when runtime feature detection succeeds.
    Simd,
}

impl KernelPath {
    /// Short lowercase name, used by telemetry labels and CLI output.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Kernel => "kernel",
            KernelPath::Simd => "simd",
        }
    }
}

impl KernelSelect {
    /// Resolve the request against the running CPU. Resolution order for
    /// `Auto` is simd → kernel (scalar is never picked implicitly); an
    /// explicit `Simd` request degrades to `Kernel` when the ISA extension
    /// is missing, because every path emits byte-identical streams.
    #[inline]
    pub fn resolve(self) -> KernelPath {
        match self {
            KernelSelect::Scalar => KernelPath::Scalar,
            KernelSelect::Kernel => KernelPath::Kernel,
            KernelSelect::Simd | KernelSelect::Auto => {
                if crate::simd::available() {
                    KernelPath::Simd
                } else {
                    KernelPath::Kernel
                }
            }
        }
    }
}

/// Full compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SzxConfig {
    /// Number of consecutive elements per 1-D block.
    pub block_size: usize,
    /// Error-bound specification.
    pub error_bound: ErrorBound,
    /// Bit-commit strategy; keep the default unless running the §5.1 ablation.
    pub strategy: CommitStrategy,
    /// Hot-loop implementation; keep the default unless benchmarking the
    /// scalar oracle against the branch-free kernels.
    pub kernel: KernelSelect,
}

impl SzxConfig {
    /// Configuration with the paper's defaults and an absolute error bound.
    pub fn absolute(eb: f64) -> Self {
        SzxConfig {
            block_size: DEFAULT_BLOCK_SIZE,
            error_bound: ErrorBound::Absolute(eb),
            strategy: CommitStrategy::default(),
            kernel: KernelSelect::default(),
        }
    }

    /// Configuration with the paper's defaults and a value-range-based
    /// relative error bound.
    pub fn relative(rel: f64) -> Self {
        SzxConfig {
            block_size: DEFAULT_BLOCK_SIZE,
            error_bound: ErrorBound::Relative(rel),
            strategy: CommitStrategy::default(),
            kernel: KernelSelect::default(),
        }
    }

    /// Builder-style block-size override.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Builder-style commit-strategy override.
    pub fn with_strategy(mut self, strategy: CommitStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style hot-loop selection override.
    pub fn with_kernel(mut self, kernel: KernelSelect) -> Self {
        self.kernel = kernel;
        self
    }

    /// Validate the configuration before compression.
    pub fn validate(&self) -> Result<()> {
        if self.block_size == 0 {
            return Err(SzxError::InvalidConfig("block size must be nonzero".into()));
        }
        if self.block_size > MAX_BLOCK_SIZE {
            return Err(SzxError::InvalidConfig(format!(
                "block size {} exceeds maximum {MAX_BLOCK_SIZE}",
                self.block_size
            )));
        }
        let e = self.error_bound.raw();
        // NaN fails is_finite, so the NaN-rejecting `!(e >= 0.0)` spelling
        // is not needed.
        if !e.is_finite() || e < 0.0 {
            return Err(SzxError::InvalidConfig(format!(
                "error bound must be finite and non-negative, got {e}"
            )));
        }
        Ok(())
    }
}

impl Default for SzxConfig {
    fn default() -> Self {
        SzxConfig::relative(1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_block_sizes() {
        assert!(SzxConfig::absolute(1e-3)
            .with_block_size(0)
            .validate()
            .is_err());
        assert!(SzxConfig::absolute(1e-3)
            .with_block_size(MAX_BLOCK_SIZE + 1)
            .validate()
            .is_err());
        assert!(SzxConfig::absolute(1e-3)
            .with_block_size(MAX_BLOCK_SIZE)
            .validate()
            .is_ok());
        assert!(SzxConfig::absolute(1e-3)
            .with_block_size(1)
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        assert!(SzxConfig::absolute(-1.0).validate().is_err());
        assert!(SzxConfig::absolute(f64::NAN).validate().is_err());
        assert!(SzxConfig::absolute(f64::INFINITY).validate().is_err());
        assert!(
            SzxConfig::absolute(0.0).validate().is_ok(),
            "zero bound = lossless mode"
        );
        assert!(SzxConfig::relative(1e-2).validate().is_ok());
    }

    #[test]
    fn value_range_edge_cases() {
        assert_eq!(value_range::<f32>(&[]), 0.0);
        assert_eq!(value_range(&[5.0f32]), 0.0);
        assert_eq!(value_range(&[f32::NAN, 1.0, 4.0]), 3.0);
        assert_eq!(value_range(&[f32::NAN, f32::NAN]), 0.0);
        assert_eq!(value_range(&[-2.0f64, 2.0]), 4.0);
    }

    #[test]
    fn strategy_codes_roundtrip() {
        for s in [
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
            CommitStrategy::ByteAligned,
        ] {
            assert_eq!(CommitStrategy::from_code(s.code()).unwrap(), s);
        }
        assert!(CommitStrategy::from_code(7).is_err());
    }

    #[test]
    fn kernel_select_resolves_to_runnable_paths() {
        assert_eq!(KernelSelect::Scalar.resolve(), KernelPath::Scalar);
        assert_eq!(KernelSelect::Kernel.resolve(), KernelPath::Kernel);
        // Simd and Auto agree: both land on Simd when the CPU supports it
        // and on the portable kernel otherwise.
        assert_eq!(KernelSelect::Simd.resolve(), KernelSelect::Auto.resolve());
        let resolved = KernelSelect::Auto.resolve();
        assert!(matches!(resolved, KernelPath::Simd | KernelPath::Kernel));
        assert_eq!(
            resolved == KernelPath::Simd,
            crate::simd::available(),
            "Auto picks simd exactly when detection reports it available"
        );
    }
}
