//! The seeded workloads: which fields each generates, at what error bound,
//! and how they are written to disk for the CLI arms.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use szx_core::{SzxConfig, SzxFloat};
use szx_data::{Application, Scale};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Smooth f32 CESM-ATM fields at REL 1e-3, tiled to at least 4× the
    /// last-level cache and cut into equal parts of at most [`PART_CAP`]
    /// (one CLI file each): the HPC-dump case, where the global range pass
    /// and first-touch page faults of fresh outputs dominate and most
    /// blocks are constant.
    CesmDramRel,
    /// Every field of all six applications at `Scale::Small`, REL 1e-3, one
    /// CLI invocation per field: fixed per-call costs (thread spawns,
    /// process start-up, index parse, scratch set-up) dominate.
    SmallFieldsRel,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::CesmDramRel, Workload::SmallFieldsRel];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CesmDramRel => "cesm-dram-rel",
            Workload::SmallFieldsRel => "small-fields-rel",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One compressor call's input: the values, the configuration the
/// in-memory arms use, and the same bound spelled as `szx compress` flags.
pub struct Field {
    pub name: String,
    pub data: Vec<f32>,
    pub cfg: SzxConfig,
    pub bound_args: [String; 2],
}

impl Field {
    pub fn raw_bytes(&self) -> usize {
        self.data.len() * f32::BYTES
    }
}

pub fn raw_bytes(fields: &[Field]) -> usize {
    fields.iter().map(Field::raw_bytes).sum()
}

const REL: f64 = 1e-3;
/// CESM fields generated before tiling: one per profile of the generator's
/// five-way cycle (plateaued fractions, sparse precipitation, smooth state,
/// geopotential/pressure, fluxes).
const CESM_FIELDS: usize = 5;

/// Largest CESM array: the array and one decode of it, beside a CLI child
/// (about 2× one part), must fit in memory. On a host whose last-level cache
/// exceeds a quarter of this, the array is smaller than 4× the cache; the
/// run reports that as `dram_ge_4x_llc = 0`.
pub const DRAM_CAP: u64 = 1536 << 20;

/// Size of the CESM array: 4× the last-level cache, within
/// 256 MiB..=[`DRAM_CAP`].
pub fn dram_bytes(llc_bytes: u64) -> usize {
    const FLOOR: u64 = 256 << 20;
    (4 * llc_bytes).clamp(FLOOR, DRAM_CAP) as usize
}

/// Largest CESM part. Each part is one field and one CLI input file, and
/// the CLI's decoded output is as large, so a part must stay below the
/// file-size limit (RLIMIT_FSIZE) a run may be given.
pub const PART_CAP: u64 = 256 << 20;
/// Smallest part [`part_bytes`] accepts: with smaller parts the CESM calls
/// would drift towards the small-fields workload, so such a limit is
/// refused rather than measured.
const PART_FLOOR: u64 = 16 << 20;

/// Largest CESM part for a process whose files may hold at most
/// `fsize_limit` bytes (`None`: unlimited): [`PART_CAP`], or half the
/// limit when that is smaller.
pub fn part_bytes(fsize_limit: Option<u64>) -> Result<usize, String> {
    let cap = fsize_limit.map_or(PART_CAP, |l| PART_CAP.min(l / 2));
    if cap < PART_FLOOR {
        return Err(format!(
            "the file-size limit of {} bytes leaves CESM parts of {cap} bytes, below the {PART_FLOOR}-byte floor",
            fsize_limit.unwrap_or(0)
        ));
    }
    Ok(cap as usize)
}

/// Generate the workload's inputs from `seed`. `dram_bytes` sizes the CESM
/// array and `part_bytes` caps its parts; the other workloads have fixed
/// sizes.
pub fn generate(w: Workload, seed: u64, dram_bytes: usize, part_bytes: usize) -> Vec<Field> {
    match w {
        Workload::CesmDramRel => {
            let ds = Application::CesmAtm.generate_limited(Scale::Large, seed, CESM_FIELDS);
            let base: Vec<f32> = ds
                .fields
                .iter()
                .flat_map(|f| f.data.iter().copied())
                .collect();
            // Equal parts of whole blocks, together at least `dram_bytes`.
            let n = dram_bytes / f32::BYTES;
            let parts = dram_bytes.div_ceil(part_bytes);
            let block = SzxConfig::relative(REL).block_size;
            let len = n.div_ceil(parts).next_multiple_of(block);
            (0..parts)
                .map(|k| rel_field(&format!("CESM-tiled-{k}"), tile(&base, k * len, len)))
                .collect()
        }
        Workload::SmallFieldsRel => Application::ALL
            .iter()
            .flat_map(|app| {
                let ds = app.generate(Scale::Small, seed);
                ds.fields
                    .into_iter()
                    .map(move |f| rel_field(&format!("{}-{}", app.short_name(), f.name), f.data))
            })
            .collect(),
    }
}

fn rel_field(name: &str, data: Vec<f32>) -> Field {
    Field {
        name: name.to_string(),
        data,
        cfg: SzxConfig::relative(REL),
        bound_args: ["--rel".into(), format!("{REL:?}")],
    }
}

/// Elements `start..start + n` of `base` repeated end to end.
fn tile<T: Copy>(base: &[T], start: usize, n: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    let mut at = start % base.len();
    while out.len() < n {
        let take = (base.len() - at).min(n - out.len());
        out.extend_from_slice(&base[at..at + take]);
        at = 0;
    }
    out
}

/// Order-sensitive 64-bit digest of every field's name and value bits.
pub fn digest(fields: &[Field]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    };
    for f in fields {
        f.name.bytes().for_each(|b| mix(u64::from(b)));
        mix(f.data.len() as u64);
        f.data.iter().for_each(|v| mix(v.to_word()));
    }
    h
}

/// Write `data` as raw little-endian values, the CLI's input format.
pub fn write_raw(path: &Path, data: &[f32]) -> io::Result<()> {
    let mut file = File::create(path)?;
    let mut buf = Vec::with_capacity(1 << 20);
    for chunk in data.chunks((1 << 20) / f32::BYTES) {
        buf.clear();
        chunk.iter().for_each(|v| v.write_le(&mut buf));
        file.write_all(&buf)?;
    }
    Ok(())
}

/// Raw input file of field `i` (one per field, all in the scratch dir).
pub fn input_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("in-{i:03}.f32"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_determines_inputs() {
        let a = generate(Workload::SmallFieldsRel, 1, 0, 0);
        assert_eq!(a.len(), 117, "every field of the six applications");
        assert_eq!(
            digest(&a),
            digest(&generate(Workload::SmallFieldsRel, 1, 0, 0))
        );
        assert_ne!(
            digest(&a),
            digest(&generate(Workload::SmallFieldsRel, 2, 0, 0))
        );
    }

    #[test]
    fn tiling_repeats_the_base() {
        assert_eq!(tile(&[1, 2, 3], 0, 7), [1, 2, 3, 1, 2, 3, 1]);
        assert_eq!(tile(&[1, 2, 3], 5, 4), [3, 1, 2, 3]);
        assert_eq!(dram_bytes(300 << 20), 1200 << 20);
        assert_eq!(dram_bytes(1 << 20), 256 << 20, "floor");
        assert_eq!(dram_bytes(1 << 30), 1536 << 20, "cap");
    }

    #[test]
    fn parts_fit_the_file_size_limit() {
        assert_eq!(part_bytes(None), Ok(256 << 20));
        assert_eq!(part_bytes(Some(1 << 40)), Ok(256 << 20));
        assert_eq!(part_bytes(Some(100 << 20)), Ok(50 << 20));
        assert!(part_bytes(Some(20 << 20)).is_err());
    }

    #[test]
    fn cesm_parts_tile_the_whole_array() {
        let fields = generate(Workload::CesmDramRel, 1, 64 << 20, 24 << 20);
        assert_eq!(fields.len(), 3);
        let len = fields[0].data.len();
        assert!(fields.iter().all(|f| f.data.len() == len));
        assert!(len * f32::BYTES <= (24 << 20) && len.is_multiple_of(128));
        assert!(raw_bytes(&fields) >= 64 << 20);
        // Part k continues where part k - 1 ends.
        let whole: Vec<f32> = fields.iter().flat_map(|f| f.data.iter().copied()).collect();
        let again = generate(Workload::CesmDramRel, 1, 64 << 20, 64 << 20);
        assert_eq!(again.len(), 1);
        assert_eq!(same_prefix(&whole, &again[0].data), again[0].data.len());
    }

    fn same_prefix(a: &[f32], b: &[f32]) -> usize {
        a.iter()
            .zip(b)
            .take_while(|(x, y)| x.to_bits() == y.to_bits())
            .count()
    }
}
