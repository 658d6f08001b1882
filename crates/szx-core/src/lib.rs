//! # szx-core
//!
//! A pure-Rust implementation of **SZx**, the ultrafast error-bounded lossy
//! compressor for scientific floating-point datasets introduced in
//!
//! > Yu, Di, Zhao, Tian, Tao, Liang, Cappello.
//! > *Ultrafast Error-Bounded Lossy Compression for Scientific Datasets.*
//! > HPDC '22. <https://doi.org/10.1145/3502181.3531473>
//!
//! SZx restricts itself to lightweight operations — comparisons,
//! addition/subtraction, bitwise shifts/XOR, and memcpy — and still bounds
//! every pointwise error by a user-specified `e`:
//!
//! * the dataset is scanned as fixed-size 1-D blocks (default 128 elements);
//! * blocks whose variation radius fits inside `e` are **constant** blocks,
//!   stored as a single value `μ = (min+max)/2`;
//! * other blocks are normalized by `μ` and truncated to the *required
//!   significant bits* derived from the block radius and `e` (Formula 4),
//!   right-shifted so those bits form whole bytes (Formula 5), and
//!   deduplicated against the previous value via an XOR leading-byte code.
//!
//! ## Quick start
//!
//! ```
//! use szx_core::{compress, decompress, SzxConfig};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
//! let cfg = SzxConfig::relative(1e-3); // value-range-based bound, block 128
//! let bytes = compress(&data, &cfg).unwrap();
//! let restored: Vec<f32> = decompress(&bytes).unwrap();
//!
//! let eb = 1e-3 * 2.0; // range of sin is 2.0
//! assert!(data.iter().zip(&restored).all(|(a, b)| (a - b).abs() as f64 <= eb));
//! assert!(bytes.len() < data.len() * 4 / 2, "compresses at least 2x");
//! ```
//!
//! ## Multicore
//!
//! One engine runs every entry point, parameterized by a worker count, as
//! in the paper's OpenMP design (§6.1): compression chunks blocks across
//! workers, and decompression hands each worker a group of blocks with the
//! count of non-constant blocks before it — its starting slot in the
//! prefix-summed per-block compressed sizes (`zsize_array`). The serial
//! functions ([`compress`], [`decompress`], ...) are the one-worker case:
//! one chunk, one decode loop on the caller's scratch, no rayon dispatch.
//! [`parallel::compress`] / [`parallel::decompress`] run the same engine on
//! rayon's worker count. Streams and decoded values are identical either
//! way.
//!
//! ## Guarantees
//!
//! * `max |d_i − d'_i| ≤ e` for every finite input — enforced by
//!   construction and by property tests;
//! * blocks containing NaN or ±∞ (and blocks whose dynamic range defeats
//!   normalization) degrade to bit-exact storage rather than corrupting data;
//! * `e = 0` yields a lossless (bit-exact) stream;
//! * decompression of corrupt or truncated streams returns an error, never
//!   panics or reads out of bounds.

// `deny` rather than `forbid`: the explicit SIMD kernels under `simd/` are
// the one sanctioned unsafe surface (intrinsics), opted in per-file with an
// inner `#![allow(unsafe_code)]`. Everything else in the crate stays safe,
// and szx-audit enforces both the attribute pair below and the allowlist.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod analysis;
pub mod archive;
pub mod bitio;
pub mod block;
pub mod config;
pub(crate) mod contracts;
pub(crate) mod cursor;
pub mod decode;
pub mod dekernels;
pub mod encode;
pub(crate) mod engine;
pub mod error;
pub mod float;
pub mod kernels;
pub mod parallel;
pub mod random_access;
pub mod simd;
pub mod stream;
pub mod streaming;

pub use archive::{ArchiveReader, ArchiveWriter};
pub use config::{
    CommitStrategy, ErrorBound, KernelPath, KernelSelect, SzxConfig, DEFAULT_BLOCK_SIZE,
    MAX_BLOCK_SIZE,
};
pub use decode::{decompress, decompress_into_scratch, decompress_with};
pub use dekernels::DecodeScratch;
pub use encode::compress;
pub use error::{Result, SzxError};
pub use float::SzxFloat;
pub use random_access::RandomAccess;
pub use stream::{inspect, Header};
pub use streaming::{FrameReader, FrameStats, FrameWriter};

/// Compression ratio helper: original bytes / compressed bytes.
pub fn compression_ratio<F: SzxFloat>(n_elements: usize, compressed_len: usize) -> f64 {
    (n_elements * F::BYTES) as f64 / compressed_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_ratio_math() {
        assert_eq!(compression_ratio::<f32>(1000, 400), 10.0);
        assert_eq!(compression_ratio::<f64>(1000, 800), 10.0);
    }
}
