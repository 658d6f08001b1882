//! Output checks and the failure tally. Every timed operation is counted
//! as attempted; it fails when the call errors or its output check fails.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Read;
use std::path::Path;

use szx_core::SzxFloat;

/// Layers the harness calls into, named after the crate modules; `cli` is
/// the `szx` binary and `roofline` the machine.
pub const LAYERS: [&str; 8] = [
    "encode",
    "analysis",
    "decode",
    "parallel",
    "rayon",
    "random_access",
    "cli",
    "roofline",
];

#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// (calls, errors) per layer.
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one operation of `layer`; returns whether it succeeded.
    pub fn record(&mut self, layer: &'static str, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        let entry = self.layers.entry(layer).or_default();
        entry.0 += 1;
        match outcome {
            Ok(()) => true,
            Err(msg) => {
                self.failed += 1;
                entry.1 += 1;
                if self.messages.len() < 8 {
                    self.messages.push(format!("{layer}: {what}: {msg}"));
                }
                false
            }
        }
    }
}

/// The Formula 1 contract, element by element: a finite input is within
/// `eb` of its reconstruction (a non-finite error counts as outside), a
/// non-finite input comes back bit-exact.
pub fn within_bound<F: SzxFloat>(orig: &[F], dec: &[F], eb: f64) -> Result<(), String> {
    if orig.len() != dec.len() {
        return Err(format!("{} values in, {} out", orig.len(), dec.len()));
    }
    let outside = |o: &[F], d: &[F]| {
        o.iter()
            .zip(d)
            .filter(|(x, y)| {
                let (xf, yf) = (x.to_f64(), y.to_f64());
                if xf.is_finite() {
                    let err = (xf - yf).abs();
                    !err.is_finite() || err > eb
                } else {
                    x.to_word() != y.to_word()
                }
            })
            .count()
    };
    // Two halves on two threads: the check is untimed but runs on every
    // decode, so it bounds how many rounds fit in a run.
    let mid = orig.len() / 2;
    let (a, b) = std::thread::scope(|s| {
        let h = s.spawn(|| outside(&orig[mid..], &dec[mid..]));
        let a = outside(&orig[..mid], &dec[..mid]);
        (a, h.join().expect("bound-check thread panicked"))
    });
    match a + b {
        0 => Ok(()),
        n => Err(format!(
            "{n} of {} values outside the bound {eb:e}",
            orig.len()
        )),
    }
}

pub fn same_bits<F: SzxFloat>(got: &[F], want: &[F]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, expected {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_word() != b.to_word())
    {
        None => Ok(()),
        Some(i) => Err(format!("value {i} differs")),
    }
}

pub fn same_bytes(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} bytes, expected {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("byte {i} differs")),
    }
}

/// Compare a raw little-endian file with `want` in 1 MiB pieces, so a
/// decode of gigabytes is checked without a second copy in memory.
pub fn file_matches<F: SzxFloat>(path: &Path, want: &[F]) -> Result<(), String> {
    let mut file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    if len != (want.len() * F::BYTES) as u64 {
        return Err(format!("{len} bytes, expected {}", want.len() * F::BYTES));
    }
    let mut buf = vec![0u8; (1 << 20) / F::BYTES * F::BYTES];
    for (ci, chunk) in want.chunks(buf.len() / F::BYTES).enumerate() {
        let bytes = &mut buf[..chunk.len() * F::BYTES];
        file.read_exact(bytes).map_err(|e| e.to_string())?;
        let off = bytes
            .chunks_exact(F::BYTES)
            .zip(chunk)
            .position(|(b, v)| F::read_le(b).to_word() != v.to_word());
        if let Some(i) = off {
            return Err(format!("value {} differs", ci * (buf.len() / F::BYTES) + i));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use szx_core::{compress, decompress, inspect, SzxConfig};

    fn sample() -> (Vec<f32>, Vec<u8>) {
        let data: Vec<f32> = (0..10_000)
            .map(|i| (i as f32 * 0.01).sin() * 50.0)
            .collect();
        let stream = compress(&data, &SzxConfig::relative(1e-3)).unwrap();
        (data, stream)
    }

    #[test]
    fn corrupted_stream_counts_as_failed() {
        let (_, mut stream) = sample();
        let mut tally = Tally::default();
        stream.truncate(stream.len() / 2);
        let r = decompress::<f32>(&stream)
            .map(drop)
            .map_err(|e| e.to_string());
        assert!(!tally.record("decode", "truncated", r));
        let (_, mut stream) = sample();
        stream[0] ^= 0xff; // magic
        let r = decompress::<f32>(&stream)
            .map(drop)
            .map_err(|e| e.to_string());
        assert!(!tally.record("decode", "bad magic", r));
        assert_eq!((tally.attempted, tally.failed), (2, 2));
        assert_eq!(tally.layers["decode"], (2, 2));
    }

    #[test]
    fn decode_outside_bound_counts_as_failed() {
        let (data, stream) = sample();
        let eb = inspect(&stream).unwrap().eb;
        let mut dec: Vec<f32> = decompress(&stream).unwrap();
        let mut tally = Tally::default();
        assert!(tally.record("decode", "clean", within_bound(&data, &dec, eb)));
        dec[7_777] += (3.0 * eb) as f32;
        assert!(!tally.record("decode", "perturbed", within_bound(&data, &dec, eb)));
        dec[7_777] = f32::NAN;
        assert!(within_bound(&data, &dec, eb).is_err(), "NaN is outside");
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn bit_and_file_comparisons() {
        let a = [1.0f64, -0.0, f64::NAN];
        assert!(same_bits(&a, &a).is_ok());
        assert!(same_bits(&a, &[1.0, 0.0, f64::NAN]).is_err(), "-0 vs +0");
        assert!(same_bytes(b"abc", b"abd").is_err());

        let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.f32");
        let vals: Vec<f32> = (0..300_000).map(|i| i as f32).collect();
        crate::workload::write_raw(&path, &vals).unwrap();
        assert!(file_matches(&path, &vals).is_ok());
        let mut other = vals.clone();
        other[200_000] = -1.0;
        assert_eq!(
            file_matches(&path, &other),
            Err("value 200000 differs".into())
        );
        assert!(file_matches(&path, &vals[1..]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
