//! The three fuzz targets. Each takes arbitrary bytes (so the same
//! functions back the in-tree engine, the corpus replay suite, and the
//! optional cargo-fuzz wrappers under `fuzz/`) and returns either a
//! novelty signature or a [`Failure`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use szx_core::{DecodeScratch, KernelSelect, SzxFloat};

use crate::corpus::fnv1a64;
use crate::gen::{Spec, SpecType};
use crate::oracle::{differential_decode, differential_decode_typed, Failure, Outcome};

/// The fuzz targets the harness ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzTarget {
    /// Mutated/truncated/bit-flipped archive bytes → every decode entry
    /// point; error-not-panic + six-path differential agreement.
    DecodeArbitrary,
    /// Bytes decoded as a [`Spec`] (config + synthetic field) → compress on
    /// every encode path, assert bitwise stream identity, the header error
    /// bound, and full decode-path agreement.
    RoundtripConfig,
    /// Bytes treated as a framed streaming container: header/TOC/frame
    /// index torture for `FrameReader`, plus per-frame differential decode.
    StreamTorture,
}

impl FuzzTarget {
    pub const ALL: [FuzzTarget; 3] = [
        FuzzTarget::DecodeArbitrary,
        FuzzTarget::RoundtripConfig,
        FuzzTarget::StreamTorture,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FuzzTarget::DecodeArbitrary => "decode",
            FuzzTarget::RoundtripConfig => "round",
            FuzzTarget::StreamTorture => "stream",
        }
    }

    pub fn from_name(name: &str) -> Option<FuzzTarget> {
        match name {
            "decode" => Some(FuzzTarget::DecodeArbitrary),
            "round" | "roundtrip" => Some(FuzzTarget::RoundtripConfig),
            "stream" => Some(FuzzTarget::StreamTorture),
            _ => None,
        }
    }

    /// Route a corpus file to its replay target by name prefix.
    pub fn for_corpus_file(file_name: &str) -> Option<FuzzTarget> {
        if file_name.starts_with("decode_") {
            Some(FuzzTarget::DecodeArbitrary)
        } else if file_name.starts_with("round_") {
            Some(FuzzTarget::RoundtripConfig)
        } else if file_name.starts_with("stream_") {
            Some(FuzzTarget::StreamTorture)
        } else {
            None
        }
    }
}

/// Run one target on one input. `Ok` carries the novelty signature used by
/// the engine's corpus scheduling; `Err` is a finding.
pub fn run_target(target: FuzzTarget, input: &[u8]) -> Result<u64, Failure> {
    match target {
        FuzzTarget::DecodeArbitrary => differential_decode(input),
        FuzzTarget::RoundtripConfig => roundtrip_config(input),
        FuzzTarget::StreamTorture => stream_torture(input),
    }
}

/// Like [`run_target`], but also catches panics that escape the target
/// itself (e.g. from an encode path, which the decode oracle's per-path
/// guards do not cover). This is the entry the engine and replay use.
pub fn run_target_guarded(target: FuzzTarget, input: &[u8]) -> Result<u64, Failure> {
    match catch_unwind(AssertUnwindSafe(|| run_target(target, input))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(Failure::new(format!("panic:{}", target.name()), msg))
        }
    }
}

/// Target 2: roundtrip with arbitrary config.
fn roundtrip_config(input: &[u8]) -> Result<u64, Failure> {
    let spec = Spec::from_bytes(input);
    match spec.dtype {
        SpecType::F32 => roundtrip_typed::<f32>(&spec),
        SpecType::F64 => roundtrip_typed::<f64>(&spec),
    }
}

fn roundtrip_typed<F: SzxFloat>(spec: &Spec) -> Result<u64, Failure> {
    let data: Vec<F> = spec.generate();
    let cfg = spec.config();

    // Encode-path identity: scalar, kernel, simd, and parallel compressors
    // must emit byte-identical archives — or reject the input with
    // identical errors. (Rejection is legitimate: e.g. a relative bound
    // over data containing ±inf resolves to an unusable infinite absolute
    // bound.)
    let scalar = szx_core::compress(&data, &cfg);
    let kernel = szx_core::compress(&data, &cfg.with_kernel(KernelSelect::Kernel));
    let simd = szx_core::compress(&data, &cfg.with_kernel(KernelSelect::Simd));
    let par = szx_core::parallel::compress(&data, &cfg.with_kernel(KernelSelect::Kernel));
    let archive = match scalar {
        Err(e) => {
            let expected = e.to_string();
            for (path, r) in [("kernel", &kernel), ("simd", &simd), ("parallel", &par)] {
                match r {
                    Err(other) if other.to_string() == expected => {}
                    Err(other) => {
                        return Err(Failure::new(
                            "roundtrip:reject-divergence",
                            format!("scalar: {expected:?} vs {path}: {other:?} ({spec:?})"),
                        ));
                    }
                    Ok(_) => {
                        return Err(Failure::new(
                            "roundtrip:reject-divergence",
                            format!(
                                "scalar rejects ({expected:?}) but {path} compresses ({spec:?})"
                            ),
                        ));
                    }
                }
            }
            // All encode paths agree the input is uncompressible as
            // configured; that agreement is the property.
            return Ok(fnv1a64(expected.as_bytes()));
        }
        Ok(bytes) => bytes,
    };
    match kernel {
        Ok(kernel) if archive == kernel => {}
        _ => {
            return Err(Failure::new(
                "roundtrip:stream-identity:kernel",
                format!("{spec:?}"),
            ));
        }
    }
    match simd {
        Ok(simd) if archive == simd => {}
        _ => {
            return Err(Failure::new(
                "roundtrip:stream-identity:simd",
                format!("{spec:?}"),
            ));
        }
    }
    match par {
        Ok(par) if archive == par => {}
        _ => {
            return Err(Failure::new(
                "roundtrip:stream-identity:parallel",
                format!("{spec:?}"),
            ));
        }
    }

    // A single-frame streaming writer must embed exactly the serial
    // archive (frames are independent SZx streams by contract).
    let mut writer = szx_core::FrameWriter::new(cfg)
        .map_err(|e| Failure::new("roundtrip:compress-error", format!("writer: {e}")))?;
    writer
        .push(&data)
        .map_err(|e| Failure::new("roundtrip:compress-error", format!("push: {e}")))?;
    let container = writer.into_bytes();
    let reader = szx_core::FrameReader::new(&container)
        .map_err(|e| Failure::new("roundtrip:stream-identity:frame", e.to_string()))?;
    if reader.frame_bytes(0) != Some(archive.as_slice()) {
        return Err(Failure::new(
            "roundtrip:stream-identity:frame",
            format!("{spec:?}"),
        ));
    }

    // Header sanity: the stream must carry a finite, non-negative absolute
    // bound regardless of how the relative bound resolved.
    let header =
        szx_core::inspect(&archive).map_err(|e| Failure::new("roundtrip:header", e.to_string()))?;
    if !header.eb.is_finite() || header.eb < 0.0 {
        return Err(Failure::new(
            "roundtrip:header",
            format!("recorded bound {} for {spec:?}", header.eb),
        ));
    }

    // Full six-path differential decode on the fresh archive; it must
    // decode everywhere.
    let report = differential_decode_typed::<F>(&archive)?;
    let words = match report.reference {
        Outcome::Bits(words) => words,
        Outcome::Error(e) => {
            return Err(Failure::new(
                "roundtrip:decode-error",
                format!("{spec:?}: {e}"),
            ));
        }
    };
    if words.len() != data.len() {
        return Err(Failure::new(
            "roundtrip:length",
            format!("{} in, {} out ({spec:?})", data.len(), words.len()),
        ));
    }

    // The error-bound contract, element by element: finite values within
    // the header's absolute bound, non-finite values bit-exact.
    for (i, (x, w)) in data.iter().zip(&words).enumerate() {
        let y = F::from_word(*w);
        if x.is_nan() || x.to_f64().is_infinite() {
            if x.to_word() != *w {
                return Err(Failure::new(
                    "roundtrip:special-not-bitexact",
                    format!("element {i} ({spec:?})"),
                ));
            }
        } else {
            // NaN-propagating on purpose: a NaN/inf reconstruction of a
            // finite input yields a non-finite error, which must count as
            // a bound violation rather than slip past a `>` comparison.
            let err = (x.to_f64() - y.to_f64()).abs();
            if !err.is_finite() || err > header.eb {
                return Err(Failure::new(
                    "roundtrip:bound-exceeded",
                    format!(
                        "element {i}: |{} - {}| > {} ({spec:?})",
                        x.to_f64(),
                        y.to_f64(),
                        header.eb
                    ),
                ));
            }
        }
    }

    // Buffer-reuse decode paths: a right-sized buffer must reproduce the
    // reference bits, a wrong-sized one must error (never write OOB).
    for sel in [
        KernelSelect::Scalar,
        KernelSelect::Kernel,
        KernelSelect::Simd,
    ] {
        let mut out = vec![F::ZERO; data.len()];
        let mut scratch = DecodeScratch::default();
        szx_core::decompress_into_scratch(&archive, &mut out, sel, &mut scratch)
            .map_err(|e| Failure::new("roundtrip:decode-error", format!("into: {e}")))?;
        if out.iter().zip(&words).any(|(v, w)| v.to_word() != *w) {
            return Err(Failure::new(
                "divergence:bits:decompress-into",
                format!("{spec:?}"),
            ));
        }
        let mut short = vec![F::ZERO; data.len().saturating_sub(1)];
        if szx_core::decompress_into_scratch(&archive, &mut short, sel, &mut scratch).is_ok() {
            return Err(Failure::new(
                "roundtrip:short-buffer-accepted",
                format!("{spec:?}"),
            ));
        }
    }

    let mut h = fnv1a64(&archive);
    h ^= report.features;
    Ok(h)
}

/// Cap on frames examined per container input (mutations can forge huge
/// frame counts out of tiny containers).
const MAX_FRAMES: usize = 64;
/// Cap on frames pushed through the full six-path oracle.
const MAX_DEEP_FRAMES: usize = 8;

/// Target 3: header/TOC/frame-index torture for the streaming reader.
fn stream_torture(input: &[u8]) -> Result<u64, Failure> {
    // The raw stream header parser must never panic on these bytes either.
    let mut features = match catch_unwind(AssertUnwindSafe(|| szx_core::inspect(input))) {
        Ok(Ok(h)) => fnv1a64(format!("{h:?}").as_bytes()),
        Ok(Err(e)) => fnv1a64(e.to_string().as_bytes()),
        Err(_) => return Err(Failure::new("panic:inspect", "inspect(container bytes)")),
    };

    let parse = catch_unwind(AssertUnwindSafe(|| szx_core::FrameReader::new(input)));
    let reader = match parse {
        Ok(Ok(reader)) => reader,
        Ok(Err(e)) => {
            return Ok(features
                .rotate_left(9)
                .wrapping_add(fnv1a64(e.to_string().as_bytes())));
        }
        Err(_) => return Err(Failure::new("panic:frame-index", "FrameReader::new")),
    };

    let scalar = match catch_unwind(AssertUnwindSafe(|| szx_core::FrameReader::new(input))) {
        Ok(Ok(r)) => r.with_kernel(KernelSelect::Scalar),
        _ => return Err(Failure::new("panic:frame-index", "FrameReader::new (2nd)")),
    };
    let kernel = reader.with_kernel(KernelSelect::Kernel);

    let n = scalar.num_frames().min(MAX_FRAMES);
    features = features.rotate_left(3).wrapping_add(n as u64);
    for i in 0..n {
        // Scalar/kernel frame decode parity, both element types.
        features ^= frame_parity::<f32>(&scalar, &kernel, i)?;
        features ^= frame_parity::<f64>(&scalar, &kernel, i)?;
        // The first few frames additionally run the complete six-path
        // differential oracle over their raw stream bytes.
        if i < MAX_DEEP_FRAMES {
            if let Some(frame) = scalar.frame_bytes(i) {
                features = features
                    .rotate_left(5)
                    .wrapping_add(differential_decode(frame)?);
            }
        }
    }
    Ok(features)
}

/// Decode frame `i` with the scalar and kernel readers; enforce identical
/// decodability, bits, and error messages (shared code path by design).
fn frame_parity<F: SzxFloat>(
    scalar: &szx_core::FrameReader<'_>,
    kernel: &szx_core::FrameReader<'_>,
    i: usize,
) -> Result<u64, Failure> {
    let run = |reader: &szx_core::FrameReader<'_>, path: &'static str| match catch_unwind(
        AssertUnwindSafe(|| reader.frame::<F>(i)),
    ) {
        Ok(Ok(v)) => Ok(Outcome::Bits(v.iter().map(|x| x.to_word()).collect())),
        Ok(Err(e)) => Ok(Outcome::Error(e.to_string())),
        Err(_) => Err(Failure::new(
            format!("panic:frame-{path}"),
            format!("frame {i}"),
        )),
    };
    let s = run(scalar, "scalar")?;
    let k = run(kernel, "kernel")?;
    if s != k {
        return Err(Failure::new(
            "divergence:frame:kernel",
            format!("frame {i} ({})", std::any::type_name::<F>()),
        ));
    }
    Ok(match s {
        Outcome::Bits(w) => fnv1a64(&(w.len() as u64).to_le_bytes()),
        Outcome::Error(e) => fnv1a64(e.as_bytes()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use szx_core::SzxConfig;

    #[test]
    fn decode_target_accepts_valid_and_garbage() {
        let data: Vec<f32> = (0..500).map(|i| i as f32 * 0.5).collect();
        let bytes = szx_core::compress(&data, &SzxConfig::relative(1e-3)).unwrap();
        run_target_guarded(FuzzTarget::DecodeArbitrary, &bytes).unwrap();
        run_target_guarded(FuzzTarget::DecodeArbitrary, b"garbage").unwrap();
        run_target_guarded(FuzzTarget::DecodeArbitrary, &[]).unwrap();
    }

    #[test]
    fn roundtrip_target_is_total_over_spec_bytes() {
        // A spread of spec bytes, including degenerate ones.
        run_target_guarded(FuzzTarget::RoundtripConfig, &[]).unwrap();
        run_target_guarded(FuzzTarget::RoundtripConfig, &[0xff; 18]).unwrap();
        let spec = Spec::from_bytes(&[1, 1, 16, 0, 3, 200, 1, 0, 4, 0x1f]);
        run_target_guarded(FuzzTarget::RoundtripConfig, &spec.to_bytes()).unwrap();
    }

    #[test]
    fn stream_target_handles_containers_and_noise() {
        let mut w = szx_core::FrameWriter::new(SzxConfig::absolute(1e-3)).unwrap();
        w.push(&(0..300).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        w.push(&(0..130).map(|i| (i as f32).sqrt()).collect::<Vec<_>>())
            .unwrap();
        let container = w.into_bytes();
        run_target_guarded(FuzzTarget::StreamTorture, &container).unwrap();
        run_target_guarded(FuzzTarget::StreamTorture, b"SZXS\x01\x02").unwrap();
        run_target_guarded(FuzzTarget::StreamTorture, &[]).unwrap();
    }

    #[test]
    fn corpus_prefix_routing() {
        assert_eq!(
            FuzzTarget::for_corpus_file("decode_cesm.szx"),
            Some(FuzzTarget::DecodeArbitrary)
        );
        assert_eq!(
            FuzzTarget::for_corpus_file("stream_nyx.szxs"),
            Some(FuzzTarget::StreamTorture)
        );
        assert_eq!(
            FuzzTarget::for_corpus_file("round_3.spec"),
            Some(FuzzTarget::RoundtripConfig)
        );
        assert_eq!(FuzzTarget::for_corpus_file("README.md"), None);
    }
}
