//! The Figure-16 dump/load experiment: `n` MPI-like ranks each compress a
//! per-rank payload and write it to the modeled PFS (dump), or read and
//! decompress it (load). Compression and decompression are *measured* on
//! real data with the real codecs; only the file-system transfer is modeled
//! (we do not have a 1024-node Lustre installation — see DESIGN.md §4).

use std::time::Instant;

use crate::pfs::PfsConfig;

/// Which compressor the ranks run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoCodec {
    Szx,
    SzLike,
    ZfpLike,
}

impl IoCodec {
    pub fn name(self) -> &'static str {
        match self {
            IoCodec::Szx => "SZx",
            IoCodec::SzLike => "SZ",
            IoCodec::ZfpLike => "ZFP",
        }
    }
}

/// Per-phase wall times of one dump or load, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Measured (de)compression wall time of one rank. All ranks run
    /// concurrently on distinct nodes, so this *is* the compute phase's
    /// wall time.
    pub codec_time: f64,
    /// Modeled PFS transfer wall time for the rank ensemble.
    pub io_time: f64,
    /// Bytes each rank moved.
    pub bytes_per_rank: usize,
}

impl Breakdown {
    pub fn total(&self) -> f64 {
        self.codec_time + self.io_time
    }
}

/// Compress-and-dump: each of `n_ranks` ranks compresses `data` (its
/// per-rank payload, weak scaling as in the paper) and writes the result.
pub fn dump(
    data: &[f32],
    dims: [usize; 3],
    eb: f64,
    codec: IoCodec,
    n_ranks: usize,
    pfs: &PfsConfig,
) -> Breakdown {
    let start = Instant::now();
    let compressed = compress_with(data, dims, eb, codec);
    let codec_time = start.elapsed().as_secs_f64();
    let io_time = pfs.transfer_time(n_ranks, compressed.len());
    Breakdown {
        codec_time,
        io_time,
        bytes_per_rank: compressed.len(),
    }
}

/// Read-and-decompress: the reverse path.
pub fn load(
    data: &[f32],
    dims: [usize; 3],
    eb: f64,
    codec: IoCodec,
    n_ranks: usize,
    pfs: &PfsConfig,
) -> Breakdown {
    let compressed = compress_with(data, dims, eb, codec);
    let io_time = pfs.transfer_time(n_ranks, compressed.len());
    let start = Instant::now();
    decompress_with(&compressed, codec);
    let codec_time = start.elapsed().as_secs_f64();
    Breakdown {
        codec_time,
        io_time,
        bytes_per_rank: compressed.len(),
    }
}

fn compress_with(data: &[f32], dims: [usize; 3], eb: f64, codec: IoCodec) -> Vec<u8> {
    match codec {
        IoCodec::Szx => {
            szx_core::compress(data, &szx_core::SzxConfig::absolute(eb)).expect("szx compress")
        }
        IoCodec::SzLike => {
            szx_baselines::szlike::compress(data, dims, eb).expect("szlike compress")
        }
        IoCodec::ZfpLike => {
            szx_baselines::zfplike::compress(data, dims, eb).expect("zfplike compress")
        }
    }
}

fn decompress_with(bytes: &[u8], codec: IoCodec) {
    match codec {
        IoCodec::Szx => {
            let _: Vec<f32> = szx_core::decompress(bytes).expect("szx decompress");
        }
        IoCodec::SzLike => {
            szx_baselines::szlike::decompress(bytes).expect("szlike decompress");
        }
        IoCodec::ZfpLike => {
            szx_baselines::zfplike::decompress(bytes).expect("zfplike decompress");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> (Vec<f32>, [usize; 3]) {
        let dims = [64, 64, 16];
        let mut v = Vec::with_capacity(64 * 64 * 16);
        for z in 0..16 {
            for y in 0..64 {
                for x in 0..64 {
                    v.push((x as f32 * 0.1).sin() + (y as f32 * 0.07).cos() + z as f32 * 0.01);
                }
            }
        }
        (v, dims)
    }

    #[test]
    fn dump_produces_positive_phases() {
        let (data, dims) = payload();
        let pfs = PfsConfig::theta_like();
        for codec in [IoCodec::Szx, IoCodec::SzLike, IoCodec::ZfpLike] {
            let b = dump(&data, dims, 1e-3, codec, 256, &pfs);
            assert!(b.codec_time > 0.0, "{codec:?}");
            assert!(b.io_time > 0.0);
            assert!(b.bytes_per_rank > 0 && b.bytes_per_rank < data.len() * 4);
            assert!(b.total() > b.codec_time);
        }
    }

    #[test]
    fn szx_dump_total_wins_despite_larger_files() {
        // The Figure-16 claim. Compression time dominates at ThetaGPU-like
        // bandwidth, so SZx's speed advantage carries the total.
        // Each codec's best `codec_time` over 5 dumps, the two codecs
        // alternating so both see the same host phases: the two times are
        // only ~10% apart, and a single wall-clock sample swings by more
        // than that when other tests share the CPU.
        let (data, dims) = payload();
        let pfs = PfsConfig::theta_like();
        let run = |codec| dump(&data, dims, 1e-3, codec, 512, &pfs);
        let faster = |a: Breakdown, b: Breakdown| if b.codec_time < a.codec_time { b } else { a };
        let (mut szx, mut sz) = (run(IoCodec::Szx), run(IoCodec::SzLike));
        for _ in 1..5 {
            szx = faster(szx, run(IoCodec::Szx));
            sz = faster(sz, run(IoCodec::SzLike));
        }
        assert!(
            szx.bytes_per_rank >= sz.bytes_per_rank,
            "SZ compresses smaller"
        );
        assert!(
            szx.total() < sz.total(),
            "szx {} vs sz {}",
            szx.total(),
            sz.total()
        );
    }

    #[test]
    fn load_runs_all_codecs() {
        let (data, dims) = payload();
        let pfs = PfsConfig::theta_like();
        for codec in [IoCodec::Szx, IoCodec::SzLike, IoCodec::ZfpLike] {
            let b = load(&data, dims, 1e-3, codec, 64, &pfs);
            assert!(b.codec_time > 0.0 && b.io_time > 0.0);
        }
    }

    #[test]
    fn io_time_grows_with_rank_count_past_saturation() {
        let (data, dims) = payload();
        let pfs = PfsConfig::theta_like();
        let b64 = dump(&data, dims, 1e-3, IoCodec::Szx, 64, &pfs);
        let b4096 = dump(&data, dims, 1e-3, IoCodec::Szx, 4096, &pfs);
        assert!(b4096.io_time > b64.io_time);
    }
}
