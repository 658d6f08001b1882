//! The measured loop (one "round" per pass over the workload) and the
//! per-layer probes of the traced run.
//!
//! A round runs every end-to-end arm once, in a fixed order, on every
//! field: serial and parallel compress, serial and parallel allocating
//! decompress, then the CLI file→file compress and decompress, with a few
//! random-access queries after every call. Every call is timed; an arm's
//! pass time is the sum over fields of each field's median call. One
//! client, one operation at a time.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use rayon::prelude::*;
use szx_core::decode::ParsedStream;
use szx_core::{
    analysis, inspect, parallel, DecodeScratch, KernelPath, KernelSelect, RandomAccess, SzxConfig,
};

use crate::check::{file_matches, same_bits, same_bytes, within_bound, Tally};
use crate::trace::Tracer;
use crate::workload::Field;

/// Elements per random-access query.
const RA_LEN: usize = 1024;
/// Random-access queries per round.
const RA_QUERIES: usize = 1024;
/// Empty rayon terminal ops timed per probe round.
const DISPATCH_REPS: usize = 200;
/// `szx` start-ups timed per probe round.
const STARTUP_REPS: usize = 10;

/// Where the CLI lives and where its files go.
pub struct Env {
    pub szx: PathBuf,
    pub dir: PathBuf,
    pub threads: usize,
}

/// Every call of each end-to-end arm, per field, in seconds.
#[derive(Default)]
pub struct Rounds {
    pub compress: Calls,
    pub compress_par: Calls,
    pub decompress: Calls,
    pub decompress_par: Calls,
    pub cli_compress: Calls,
    pub cli_decompress: Calls,
    /// Every random-access query.
    pub ra: Vec<f64>,
}

impl Rounds {
    pub fn arms(&self) -> [(&'static str, &Calls); 6] {
        [
            ("compress", &self.compress),
            ("compress_par", &self.compress_par),
            ("decompress", &self.decompress),
            ("decompress_par", &self.decompress_par),
            ("cli_compress", &self.cli_compress),
            ("cli_decompress", &self.cli_decompress),
        ]
    }
}

/// Wall time of every call of one arm: `[field][round]`.
#[derive(Default)]
pub struct Calls(Vec<Vec<f64>>);

impl Calls {
    fn push(&mut self, field: usize, secs: f64) {
        if self.0.len() <= field {
            self.0.resize(field + 1, Vec::new());
        }
        self.0[field].push(secs);
    }

    /// Typical time of one pass over the workload: the sum over fields of
    /// each field's median call. A burst of machine noise slows some calls
    /// of a round, which moves a round's total but not a field's median.
    pub fn pass_seconds(&self) -> f64 {
        self.0.iter().map(|v| median(v)).sum()
    }

    /// Each round's total over fields.
    pub fn round_totals(&self) -> Vec<f64> {
        let rounds = self.0.iter().map(Vec::len).min().unwrap_or(0);
        (0..rounds)
            .map(|r| self.0.iter().map(|v| v[r]).sum())
            .collect()
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear interpolation between closest ranks; NaN for no samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Per-probe-round sums, in seconds.
#[derive(Default)]
pub struct Probes {
    pub compress_cfg: Vec<f64>,
    pub compress_abs: Vec<f64>,
    pub compress_par: Vec<f64>,
    pub parse: Vec<f64>,
    pub decompress_alloc: Vec<f64>,
    pub into_scratch: Vec<f64>,
    pub par_into: Vec<f64>,
    pub ra_new: Vec<f64>,
    pub ra: Vec<f64>,
    pub dispatch: Vec<f64>,
    pub startup: Vec<f64>,
    pub read: Vec<f64>,
    pub write: Vec<f64>,
    pub memcpy: Vec<f64>,
    pub fresh_copy: Vec<f64>,
    pub scan: Vec<f64>,
    /// The latest block classification: see [`Bench::classify`].
    pub classes: (u64, u64, u64, u64),
}

/// What one `szx compress|decompress --metrics` exposition reported.
#[derive(Default)]
pub struct Rss {
    pub peak_bytes: f64,
    /// Peak RSS per phase (innermost span when the CLI's sampler fired).
    pub phases: Vec<(String, f64)>,
}

pub struct Bench<'a> {
    env: &'a Env,
    fields: &'a [Field],
    /// Serial streams made at set-up: the reference every stream must equal.
    refs: &'a [Vec<u8>],
    /// One random-access reader per stream.
    readers: Vec<Option<RandomAccess<'a, f32>>>,
    /// A parallel decode of every stream, made once before timing: the
    /// random-access ranges and the CLI's decoded files must equal it.
    full: Vec<Vec<f32>>,
    pub tracer: Tracer,
    pub tally: Tally,
    rng: u64,
}

fn err(e: impl ToString) -> String {
    e.to_string()
}

fn timed<R>(tracer: &mut Tracer, span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let open = tracer.begin(span);
    let r = f();
    (r, tracer.end(open))
}

impl<'a> Bench<'a> {
    /// Untimed but checked: builds the readers and the reference decodes.
    pub fn new(env: &'a Env, fields: &'a [Field], refs: &'a [Vec<u8>], seed: u64) -> Self {
        let mut tally = Tally::default();
        let readers = refs
            .iter()
            .zip(fields)
            .map(|(s, f)| {
                let r = RandomAccess::<f32>::new(s);
                let ok = tally.record("random_access", &f.name, r.as_ref().map(drop).map_err(err));
                r.ok().filter(|_| ok)
            })
            .collect();
        let full = refs
            .iter()
            .zip(fields)
            .map(|(s, f)| {
                let d = parallel::decompress::<f32>(s).unwrap_or_default();
                let eb = inspect(s).map_or(f64::NAN, |h| h.eb);
                tally.record("parallel", &f.name, within_bound(&f.data, &d, eb));
                d
            })
            .collect();
        Bench {
            env,
            fields,
            refs,
            readers,
            full,
            tracer: Tracer::new(false),
            tally,
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// splitmix64: seeded query offsets.
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn eb(&self, i: usize) -> f64 {
        inspect(&self.refs[i]).map_or(f64::NAN, |h| h.eb)
    }

    pub fn raw_bytes(&self) -> usize {
        crate::workload::raw_bytes(self.fields)
    }

    pub fn input_path(&self, i: usize) -> PathBuf {
        crate::workload::input_path(&self.env.dir, i)
    }

    /// Run rounds for about `seconds` (at least one).
    pub fn rounds(&mut self, seconds: f64, out: &mut Rounds) -> usize {
        repeat_for(seconds, 1, |_| self.round(out))
    }

    /// Alternate untraced and traced rounds for about `seconds` (at least
    /// one of each), so both kinds see the same phases of the host; returns
    /// how many of each ran. Recording is off afterwards.
    pub fn alternating_rounds(
        &mut self,
        seconds: f64,
        plain: &mut Rounds,
        traced: &mut Rounds,
    ) -> (usize, usize) {
        let n = repeat_for(seconds, 2, |n| {
            self.tracer.recording = n % 2 == 1;
            self.round(if n % 2 == 1 {
                &mut *traced
            } else {
                &mut *plain
            });
        });
        self.tracer.recording = false;
        (n.div_ceil(2), n / 2)
    }

    /// One pass of every end-to-end arm. Random-access queries are spread
    /// in small batches after every call, so their samples cover the whole
    /// round rather than one moment of it.
    pub fn round(&mut self, out: &mut Rounds) {
        let root = self.tracer.begin("bench.round");
        let (fields, refs) = (self.fields, self.refs);
        let batch = RA_QUERIES.div_ceil(6 * fields.len());

        for (i, (f, want)) in fields.iter().zip(refs).enumerate() {
            let (s, secs) = timed(&mut self.tracer, "encode.compress", || {
                szx_core::compress(&f.data, &f.cfg)
            });
            out.compress.push(i, secs);
            let ok = s.map_err(err).and_then(|s| same_bytes(&s, want));
            self.tally.record("encode", &f.name, ok);
            self.queries(batch, &mut out.ra);
        }

        for (i, (f, want)) in fields.iter().zip(refs).enumerate() {
            let (s, secs) = timed(&mut self.tracer, "parallel.compress", || {
                parallel::compress(&f.data, &f.cfg)
            });
            out.compress_par.push(i, secs);
            let ok = s.map_err(err).and_then(|s| same_bytes(&s, want));
            self.tally.record("parallel", &f.name, ok);
            self.queries(batch, &mut out.ra);
        }

        for (i, (f, want)) in fields.iter().zip(refs).enumerate() {
            let (d, secs) = timed(&mut self.tracer, "decode.decompress", || {
                szx_core::decompress::<f32>(want)
            });
            out.decompress.push(i, secs);
            let ok = d
                .map_err(err)
                .and_then(|d| within_bound(&f.data, &d, self.eb(i)));
            self.tally.record("decode", &f.name, ok);
            self.queries(batch, &mut out.ra);
        }

        for (i, (f, want)) in fields.iter().zip(refs).enumerate() {
            let (d, secs) = timed(&mut self.tracer, "parallel.decompress", || {
                parallel::decompress::<f32>(want)
            });
            out.decompress_par.push(i, secs);
            let ok = d
                .map_err(err)
                .and_then(|d| within_bound(&f.data, &d, self.eb(i)));
            self.tally.record("parallel", &f.name, ok);
            self.queries(batch, &mut out.ra);
        }

        for (i, f) in fields.iter().enumerate() {
            let (ok, secs) = self.cli_compress(i, &[]);
            out.cli_compress.push(i, secs);
            self.tally.record("cli", &f.name, ok);
            self.queries(batch, &mut out.ra);
        }

        for (i, f) in fields.iter().enumerate() {
            let (ok, secs) = self.cli_decompress(i, &[]);
            out.cli_decompress.push(i, secs);
            self.tally.record("cli", &f.name, ok);
            self.queries(batch, &mut out.ra);
        }

        self.tracer.end(root);
    }

    /// `n` ranges of `RA_LEN` elements at seeded offsets, uniform over every
    /// valid start in the workload (a field is queried in proportion to its
    /// size), each checked against the same slice of the reference decode.
    fn queries(&mut self, n: usize, samples: &mut Vec<f64>) {
        let total: u64 = self
            .fields
            .iter()
            .map(|f| (f.data.len() + 1 - RA_LEN) as u64)
            .sum();
        for _ in 0..n {
            let mut start = self.next() % total;
            let mut i = 0;
            while start >= (self.fields[i].data.len() + 1 - RA_LEN) as u64 {
                start -= (self.fields[i].data.len() + 1 - RA_LEN) as u64;
                i += 1;
            }
            let start = start as usize;
            let Some(reader) = &self.readers[i] else {
                continue;
            };
            let (got, secs) = timed(&mut self.tracer, "random_access.decode_range", || {
                reader.decode_range(start, start + RA_LEN)
            });
            samples.push(secs);
            let ok = got
                .map_err(err)
                .and_then(|g| match self.full[i].get(start..start + RA_LEN) {
                    Some(want) => same_bits(&g, want),
                    None => Err("no reference decode to compare with".into()),
                });
            self.tally.record("random_access", &self.fields[i].name, ok);
        }
    }

    fn stream_path(&self, i: usize) -> PathBuf {
        self.env.dir.join(format!("cli-{i:03}.szx"))
    }

    /// `szx compress <in> <out> <bound> --parallel [extra]`; the
    /// output must equal the in-memory stream byte for byte.
    fn cli_compress(&mut self, i: usize, extra: &[&str]) -> (Result<(), String>, f64) {
        let f = &self.fields[i];
        let (input, out) = (self.input_path(i), self.stream_path(i));
        let mut args: Vec<&str> = vec!["compress", path_str(&input), path_str(&out)];
        args.extend(f.bound_args.iter().map(String::as_str));
        args.push("--parallel");
        args.extend_from_slice(extra);
        let env = self.env;
        let (status, secs) = timed(&mut self.tracer, "cli.compress", || run_szx(env, &args, 0));
        let ok = status
            .and_then(|()| std::fs::read(&out).map_err(err))
            .and_then(|s| same_bytes(&s, &self.refs[i]));
        (ok, secs)
    }

    /// `szx decompress <stream> <out> --parallel [extra]`; the output file
    /// must be bitwise equal to the reference decode. Both files are removed
    /// afterwards, so their dirty pages are dropped rather than written back.
    fn cli_decompress(&mut self, i: usize, extra: &[&str]) -> (Result<(), String>, f64) {
        let (stream, out) = (
            self.stream_path(i),
            self.env.dir.join(format!("cli-{i:03}.raw")),
        );
        let mut args = vec![
            "decompress",
            path_str(&stream),
            path_str(&out),
            "--parallel",
        ];
        args.extend_from_slice(extra);
        let env = self.env;
        let (status, secs) = timed(&mut self.tracer, "cli.decompress", || {
            run_szx(env, &args, 0)
        });
        let ok = status.and_then(|()| file_matches(&out, &self.full[i]));
        let _ = std::fs::remove_file(&stream);
        let _ = std::fs::remove_file(&out);
        (ok, secs)
    }

    /// Untimed `--metrics` invocations: peak RSS of `szx compress` (and,
    /// with `decode`, of `szx decompress`) over all fields, with per-phase
    /// peaks.
    pub fn cli_rss(&mut self, decode: bool) -> (Rss, Rss) {
        let prom = self.env.dir.join("metrics.prom");
        let (mut enc, mut dec) = (Rss::default(), Rss::default());
        for (i, f) in self.fields.iter().enumerate() {
            let (ok, _) = self.cli_compress(i, &["--metrics", path_str(&prom)]);
            let ok = ok.and_then(|()| parse_rss(&prom, &mut enc));
            self.tally.record("cli", &f.name, ok);
            if decode {
                let (ok, _) = self.cli_decompress(i, &["--metrics", path_str(&prom)]);
                let ok = ok.and_then(|()| parse_rss(&prom, &mut dec));
                self.tally.record("cli", &f.name, ok);
            } else {
                let _ = std::fs::remove_file(self.stream_path(i));
            }
        }
        let _ = std::fs::remove_file(&prom);
        (enc, dec)
    }

    /// One pass of every per-layer probe. `bufs` are pre-faulted outputs,
    /// one per field.
    pub fn probe_round(
        &mut self,
        p: &mut Probes,
        bufs: &mut [Vec<f32>],
        scratch: &mut [DecodeScratch],
    ) {
        let root = self.tracer.begin("bench.probe_round");
        let (fields, refs) = (self.fields, self.refs);

        // roofline: pre-faulted copy, copy into a fresh allocation, and the
        // resolved kernel path's read-only min/max scan, over the same bytes.
        let (mut copy, mut fresh, mut scan) = (0.0, 0.0, 0.0);
        for (f, buf) in fields.iter().zip(bufs.iter_mut()) {
            let ((), secs) = timed(&mut self.tracer, "roofline.memcpy", || {
                buf.copy_from_slice(&f.data)
            });
            copy += secs;
            let (v, secs) = timed(&mut self.tracer, "roofline.fresh_copy", || f.data.to_vec());
            fresh += secs;
            let ok = same_bits(&v, &f.data);
            drop(v);
            self.tally.record(
                "roofline",
                &f.name,
                ok.and_then(|()| same_bits(buf, &f.data)),
            );
            let (range, secs) = timed(&mut self.tracer, "roofline.scan", || {
                std::hint::black_box(scan_range(&f.data))
            });
            scan += secs;
            let ok = if range.is_finite() {
                Ok(())
            } else {
                Err(format!("range {range}"))
            };
            self.tally.record("roofline", &f.name, ok);
        }
        p.memcpy.push(copy);
        p.fresh_copy.push(fresh);
        p.scan.push(scan);

        // encode: the configured bound, then ABS at the bound it resolved
        // to (same stream, no range pass), then the parallel path.
        let (mut cfg_t, mut abs_t, mut par_t) = (0.0, 0.0, 0.0);
        for (i, (f, want)) in fields.iter().zip(refs).enumerate() {
            let (s, secs) = timed(&mut self.tracer, "encode.compress", || {
                szx_core::compress(&f.data, &f.cfg)
            });
            cfg_t += secs;
            let ok = s.map_err(err).and_then(|s| same_bytes(&s, want));
            self.tally.record("encode", &f.name, ok);
            let abs = SzxConfig {
                error_bound: szx_core::ErrorBound::Absolute(self.eb(i)),
                ..f.cfg
            };
            let (s, secs) = timed(&mut self.tracer, "encode.compress_abs", || {
                szx_core::compress(&f.data, &abs)
            });
            abs_t += secs;
            let ok = s.map_err(err).and_then(|s| same_bytes(&s, want));
            self.tally.record("encode", &f.name, ok);
            let (s, secs) = timed(&mut self.tracer, "parallel.compress", || {
                parallel::compress(&f.data, &f.cfg)
            });
            par_t += secs;
            let ok = s.map_err(err).and_then(|s| same_bytes(&s, want));
            self.tally.record("parallel", &f.name, ok);
        }
        p.compress_cfg.push(cfg_t);
        p.compress_abs.push(abs_t);
        p.compress_par.push(par_t);

        // decode: index parse, allocating decode, decode into the reused
        // buffers, then the parallel decode into the same buffers.
        let (mut parse_t, mut alloc_t, mut into_t, mut par_t) = (0.0, 0.0, 0.0, 0.0);
        for (i, (f, want)) in fields.iter().zip(refs).enumerate() {
            let eb = self.eb(i);
            let (ps, secs) = timed(&mut self.tracer, "decode.parse", || {
                ParsedStream::parse::<f32>(want).map(|p| p.num_blocks())
            });
            parse_t += secs;
            let blocks = f.data.len().div_ceil(f.cfg.block_size);
            let ok = ps.map_err(err).and_then(|b| {
                if b == blocks {
                    Ok(())
                } else {
                    Err(format!("{b} blocks, expected {blocks}"))
                }
            });
            self.tally.record("decode", &f.name, ok);

            let (d, secs) = timed(&mut self.tracer, "decode.decompress", || {
                szx_core::decompress::<f32>(want)
            });
            alloc_t += secs;
            let ok = d.map_err(err).and_then(|d| within_bound(&f.data, &d, eb));
            self.tally.record("decode", &f.name, ok);

            let (buf, sc) = (&mut bufs[i], &mut scratch[i]);
            let (r, secs) = timed(&mut self.tracer, "decode.into_scratch", || {
                szx_core::decompress_into_scratch(want, buf, KernelSelect::Auto, sc)
            });
            into_t += secs;
            let ok = r.map_err(err).and_then(|()| within_bound(&f.data, buf, eb));
            self.tally.record("decode", &f.name, ok);

            let (r, secs) = timed(&mut self.tracer, "parallel.decompress_into", || {
                parallel::decompress_into(want, buf)
            });
            par_t += secs;
            let ok = r.map_err(err).and_then(|()| within_bound(&f.data, buf, eb));
            self.tally.record("parallel", &f.name, ok);
        }
        p.parse.push(parse_t);
        p.decompress_alloc.push(alloc_t);
        p.into_scratch.push(into_t);
        p.par_into.push(par_t);

        // random_access: reader construction, then queries.
        let mut t = 0.0;
        for (f, want) in fields.iter().zip(refs) {
            let (r, secs) = timed(&mut self.tracer, "random_access.new", || {
                RandomAccess::<f32>::new(want).map(|r| r.len())
            });
            t += secs;
            let ok = r.map_err(err).and_then(|n| {
                if n == f.data.len() {
                    Ok(())
                } else {
                    Err(format!("{n} elements"))
                }
            });
            self.tally.record("random_access", &f.name, ok);
        }
        p.ra_new.push(t);
        self.queries(RA_QUERIES, &mut p.ra);

        // rayon: one empty terminal op over `threads` items.
        let items: Vec<usize> = (0..self.env.threads).collect();
        for _ in 0..DISPATCH_REPS {
            let (v, secs) = timed(&mut self.tracer, "rayon.dispatch", || {
                items.par_iter().map(|&x| x).collect::<Vec<usize>>()
            });
            p.dispatch.push(secs);
            let ok = if v == items {
                Ok(())
            } else {
                Err("items reordered".into())
            };
            self.tally.record("rayon", "dispatch", ok);
        }

        // cli: process start-up (`szx` alone prints usage, exit code 2),
        // and the harness's own read and write of the input files.
        let env = self.env;
        for _ in 0..STARTUP_REPS {
            let (r, secs) = timed(&mut self.tracer, "cli.startup", || run_szx(env, &[], 2));
            p.startup.push(secs);
            self.tally.record("cli", "startup", r);
        }
        let scratch_file = self.env.dir.join("floor.tmp");
        let (mut rd, mut wr) = (0.0, 0.0);
        for (i, f) in fields.iter().enumerate() {
            let path = self.input_path(i);
            let (bytes, secs) = timed(&mut self.tracer, "cli.read_floor", || std::fs::read(&path));
            rd += secs;
            let bytes = bytes.unwrap_or_default();
            let ok = if bytes.len() == f.raw_bytes() {
                Ok(())
            } else {
                Err(format!("read {} bytes", bytes.len()))
            };
            self.tally.record("cli", &f.name, ok);
            let (r, secs) = timed(&mut self.tracer, "cli.write_floor", || {
                std::fs::write(&scratch_file, &bytes)
            });
            wr += secs;
            self.tally.record("cli", &f.name, r.map_err(err));
            let _ = std::fs::remove_file(&scratch_file);
        }
        p.read.push(rd);
        p.write.push(wr);

        p.classes = self.classify();

        self.tracer.end(root);
    }

    /// Block classification of every field: (constant blocks, blocks,
    /// Σ required bits over non-constant blocks, non-constant blocks).
    fn classify(&mut self) -> (u64, u64, u64, u64) {
        let mut acc = (0, 0, 0, 0);
        for f in self.fields {
            let (rep, _) = timed(&mut self.tracer, "analysis.classify", || {
                analysis::classify(&f.data, &f.cfg)
            });
            let ok = rep.as_ref().map_err(err).and_then(|r| {
                let nb = f.data.len().div_ceil(f.cfg.block_size);
                if r.n_blocks == nb {
                    Ok(())
                } else {
                    Err(format!("{} blocks, expected {nb}", r.n_blocks))
                }
            });
            if self.tally.record("analysis", &f.name, ok) {
                let r = rep.expect("checked above");
                acc.0 += r.n_constant as u64;
                acc.1 += r.n_blocks as u64;
                for (bits, &count) in r.req_len_histogram.iter().enumerate() {
                    acc.2 += bits as u64 * count;
                    acc.3 += count;
                }
            }
        }
        acc
    }
}

/// Call `f(0)`, `f(1)`, … for about `seconds`, at least `min` times, and
/// return the number of calls. Another call starts only if half of it would
/// fit, so calls lasting seconds each overshoot by at most half a call.
pub fn repeat_for(seconds: f64, min: usize, mut f: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let (mut n, mut last) = (0, 0.0);
    while n < min || start.elapsed().as_secs_f64() + last / 2.0 < seconds {
        let t = Instant::now();
        f(n);
        last = t.elapsed().as_secs_f64();
        n += 1;
    }
    n
}

/// The min/max scan the compressor's range pass runs on this machine.
fn scan_range(data: &[f32]) -> f64 {
    match KernelSelect::Auto.resolve() {
        KernelPath::Simd => szx_core::simd::value_range(data),
        KernelPath::Kernel => szx_core::kernels::value_range(data),
        KernelPath::Scalar => szx_core::config::value_range(data),
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

/// Run the CLI with the benchmark's pinned thread count, wait for it, and
/// require exit code `want`.
pub fn run_szx(env: &Env, args: &[&str], want: i32) -> Result<(), String> {
    let out = Command::new(&env.szx)
        .args(args)
        .env("RAYON_NUM_THREADS", env.threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("{}: {e}", env.szx.display()))?;
    if out.status.code() == Some(want) {
        Ok(())
    } else {
        let msg = String::from_utf8_lossy(&out.stderr);
        Err(format!(
            "szx {}: {} ({})",
            args.first().unwrap_or(&""),
            out.status,
            msg.trim()
        ))
    }
}

/// Fold one Prometheus exposition into `rss`: the process peak and the
/// per-phase peaks, keeping the largest over invocations.
fn parse_rss(path: &Path, rss: &mut Rss) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(err)?;
    let mut seen = false;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(v) = value.parse::<f64>() else {
            continue;
        };
        if key == "szx_process_peak_rss_bytes" {
            rss.peak_bytes = rss.peak_bytes.max(v);
            seen = true;
        } else if let Some(phase) = key
            .strip_prefix("szx_process_phase_peak_rss_bytes{phase=\"")
            .and_then(|k| k.strip_suffix("\"}"))
        {
            match rss.phases.iter_mut().find(|(p, _)| p == phase) {
                Some((_, peak)) => *peak = peak.max(v),
                None => rss.phases.push((phase.to_string(), v)),
            }
        }
    }
    if seen && rss.peak_bytes > 0.0 {
        Ok(())
    } else {
        Err("no szx_process_peak_rss_bytes in the exposition".into())
    }
}
