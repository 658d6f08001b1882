//! szx-rs benchmark harness.
//!
//! ```text
//! perfbench --szx <path/to/szx> --work <scratch dir> \
//!           --workload <cesm-dram-rel|small-fields-rel> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload from the seed, writes its CLI input files, and
//! measures for `--seconds`. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` the per-layer metrics, from spans recorded
//! around each call into a layer. Every output is checked; the last line of
//! stdout is one JSON object, and the exit code is 1 if any check failed.

mod check;
mod harness;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use szx_core::{DecodeScratch, KernelSelect};

use check::LAYERS;
use harness::{median, percentile, repeat_for, Bench, Env, Probes, Rounds};
use workload::{Field, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Probe rounds a traced run makes at least, so each probe has a median.
const MIN_PROBE_ROUNDS: usize = 3;

struct Args {
    szx: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        szx: PathBuf::from(get("--szx")?),
        work: PathBuf::from(get("--work")?),
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists: a stray SZX_DISABLE_SIMD or SZX_TELEMETRY
    // would silently measure another kernel or pay for telemetry, and the
    // parallel arms (in-process and CLI) run on every core.
    let scrubbed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SZX_"))
        .collect();
    scrubbed.iter().for_each(|k| std::env::remove_var(k));
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let dir = args
        .work
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir, threads, &scrubbed));
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(report) => {
            print!("{}", report.text);
            println!("{}", report.json);
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Report {
    text: String,
    json: String,
    failed: u64,
}

fn run(args: &Args, dir: &Path, threads: usize, scrubbed: &[String]) -> Result<Report, String> {
    let (llc, llc_source) = match llc_bytes() {
        Some(b) => (b, "sysfs"),
        None => (32 << 20, "assumed"),
    };
    let dram = workload::dram_bytes(llc);
    let fsize = fsize_limit();
    let part = workload::part_bytes(fsize)?;

    let env = Env {
        szx: args.szx.clone(),
        dir: dir.to_path_buf(),
        threads,
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        let inputs = workload::generate(args.workload, args.seed, dram, part);
        let refs = write_and_warm(&inputs, dir)?;
        harness::run_szx(&env, &[], 2)?;
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((inputs, refs));
    }
    let (inputs, refs) = state.expect("SETUP_REPS > 0");

    let mut ctx = Ctx::default();
    ctx.kv("workload", args.workload.name());
    ctx.kv("seed", args.seed);
    ctx.kv("seconds", args.seconds);
    ctx.kv("trace", u8::from(args.trace));
    ctx.kv("kernel_path", KernelSelect::Auto.resolve().name());
    ctx.kv("nproc", threads);
    ctx.kv("rayon_num_threads", threads);
    ctx.kv("llc_bytes", llc);
    ctx.kv("llc_source", llc_source);
    ctx.kv("dram_array_bytes", dram);
    ctx.kv("dram_ge_4x_llc", u8::from(dram as u64 >= 4 * llc));
    ctx.kv(
        "fsize_limit",
        fsize.map_or("unlimited".into(), |l| l.to_string()),
    );
    ctx.kv(
        "max_field_bytes",
        inputs.iter().map(Field::raw_bytes).max().unwrap_or(0),
    );
    ctx.kv("input_bytes", workload::raw_bytes(&inputs));
    ctx.kv("fields", inputs.len());
    ctx.kv(
        "input_digest",
        format!("{:016x}", workload::digest(&inputs)),
    );
    let fs = fs_type(dir);
    ctx.kv("scratch_fs", &fs);
    ctx.kv(
        "scratch_ram_backed",
        u8::from(fs == "tmpfs" || fs == "ramfs"),
    );
    ctx.kv("scrubbed_env", scrubbed.join(","));
    ctx.kv("setup_reps", SETUP_REPS);

    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.push("setup_s", median(&setup_s), "s");
    }
    let tally = measure(args, &env, &inputs, &refs, &mut metrics, &mut ctx)?;

    let mut text = format!("# context {}\n{}", ctx.json(), ctx.rounds);
    for m in &tally.messages {
        let _ = writeln!(text, "# FAILED {m}");
    }
    for (name, value, unit) in &metrics.0 {
        let _ = writeln!(text, "{name:<48} {value:>16.6} {unit}");
    }
    let mut json = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    json.push_str("}}");
    Ok(Report {
        text,
        json,
        failed: tally.failed,
    })
}

/// Write every field's CLI input file while compressing each once
/// (warm-up); the serial streams are the reference every later stream
/// must equal.
fn write_and_warm(fields: &[Field], dir: &Path) -> Result<Vec<Vec<u8>>, String> {
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            fields.iter().enumerate().try_for_each(|(i, f)| {
                let path = workload::input_path(dir, i);
                workload::write_raw(&path, &f.data).map_err(|e| format!("{}: {e}", path.display()))
            })
        });
        let refs = fields
            .iter()
            .map(|f| szx_core::compress(&f.data, &f.cfg).map_err(|e| format!("{}: {e}", f.name)))
            .collect();
        writer.join().expect("input writer panicked")?;
        refs
    })
}

fn measure(
    args: &Args,
    env: &Env,
    fields: &[Field],
    refs: &[Vec<u8>],
    m: &mut Metrics,
    ctx: &mut Ctx,
) -> Result<check::Tally, String> {
    let mut b = Bench::new(env, fields, refs, args.seed);
    let gb = b.raw_bytes() as f64 / 1e9;
    let stream_bytes: usize = refs.iter().map(Vec::len).sum();
    // Untimed: write the inputs back to disk now, so write-back never lands
    // inside a timed CLI call.
    for i in 0..fields.len() {
        let path = b.input_path(i);
        std::fs::File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // One untimed (but checked) round first: the first large allocations and
    // CLI runs after set-up are slower than all later ones.
    b.round(&mut Rounds::default());

    if !args.trace {
        let mut r = Rounds::default();
        let n = b.rounds(args.seconds, &mut r);
        let (rss, _) = b.cli_rss(false);
        ctx.kv("rounds", n);
        ctx.kv("ra_query_samples", r.ra.len());
        for q in [0.1, 0.25, 0.75, 0.9] {
            ctx.kv(
                &format!("ra_query_q{}_us", (q * 100.0) as u32),
                percentile(&r.ra, q) * 1e6,
            );
        }
        for (arm, calls) in r.arms() {
            ctx.samples(arm, &calls.round_totals());
        }
        m.push("compress_gbps", gb / r.compress.pass_seconds(), "GB/s");
        m.push(
            "compress_par_gbps",
            gb / r.compress_par.pass_seconds(),
            "GB/s",
        );
        m.push("decompress_gbps", gb / r.decompress.pass_seconds(), "GB/s");
        m.push(
            "decompress_par_gbps",
            gb / r.decompress_par.pass_seconds(),
            "GB/s",
        );
        m.push(
            "cli_compress_gbps",
            gb / r.cli_compress.pass_seconds(),
            "GB/s",
        );
        m.push(
            "cli_decompress_gbps",
            gb / r.cli_decompress.pass_seconds(),
            "GB/s",
        );
        m.push("cli_peak_rss_mb", rss.peak_bytes / 1e6, "MB");
        m.push("ratio", gb * 1e9 / stream_bytes as f64, "x");
        m.push("ra_query_p50_us", median(&r.ra) * 1e6, "us");
        return Ok(b.tally);
    }

    // Traced run: two thirds of the time on alternating untraced and traced
    // rounds (their difference is the tracing overhead), a third on the
    // layer probes, recorded too.
    let third = args.seconds / 3.0;
    let (mut plain, mut traced) = (Rounds::default(), Rounds::default());
    let (n_plain, n_traced) = b.alternating_rounds(2.0 * third, &mut plain, &mut traced);

    let mut bufs: Vec<Vec<f32>> = fields.iter().map(|f| vec![1.0; f.data.len()]).collect();
    let mut scratch: Vec<DecodeScratch> = fields.iter().map(|_| DecodeScratch::default()).collect();
    let mut p = Probes::default();
    let probe_from = b.tracer.spans().len();
    b.tracer.recording = true;
    let n_probe = repeat_for(third, MIN_PROBE_ROUNDS, |_| {
        b.probe_round(&mut p, &mut bufs, &mut scratch)
    });
    b.tracer.recording = false;
    drop(bufs);
    // Untimed and unrecorded: a one-off pass is no round of either kind.
    let (enc_rss, dec_rss) = b.cli_rss(true);
    let (n_const, n_blocks, req_bits, n_nonconst) = p.classes;

    ctx.kv("rounds_untraced", n_plain);
    ctx.kv("rounds_traced", n_traced);
    ctx.kv("probe_rounds", n_probe);
    ctx.kv("ra_query_samples", p.ra.len());
    ctx.kv("dispatch_samples", p.dispatch.len());
    ctx.kv("startup_samples", p.startup.len());
    ctx.kv("spans", b.tracer.spans().len());

    m.push(
        "encode.range_pass_s",
        median(&p.compress_cfg) - median(&p.compress_abs),
        "s",
    );
    m.push("encode.blocks_s", median(&p.compress_abs), "s");
    m.push(
        "analysis.constant_frac",
        ratio(n_const, n_blocks),
        "fraction",
    );
    m.push(
        "analysis.mean_req_bits",
        ratio(req_bits, n_nonconst),
        "bits",
    );
    m.push("decode.parse_s", median(&p.parse), "s");
    m.push("decode.into_scratch_s", median(&p.into_scratch), "s");
    m.push(
        "decode.alloc_tax_s",
        median(&p.decompress_alloc) - median(&p.into_scratch),
        "s",
    );
    m.push(
        "parallel.compress_speedup",
        median(&p.compress_cfg) / median(&p.compress_par),
        "x",
    );
    m.push(
        "parallel.decompress_speedup",
        median(&p.into_scratch) / median(&p.par_into),
        "x",
    );
    m.push("rayon.dispatch_us", median(&p.dispatch) * 1e6, "us");
    m.push("random_access.new_s", median(&p.ra_new), "s");
    m.push(
        "random_access.query_p99_us",
        percentile(&p.ra, 0.99) * 1e6,
        "us",
    );
    m.push("cli.startup_ms", median(&p.startup) * 1e3, "ms");
    m.push(
        "cli.compress_overhead_s",
        traced.cli_compress.pass_seconds() - traced.compress_par.pass_seconds(),
        "s",
    );
    m.push(
        "cli.decompress_overhead_s",
        traced.cli_decompress.pass_seconds() - traced.decompress_par.pass_seconds(),
        "s",
    );
    m.push("cli.read_floor_s", median(&p.read), "s");
    m.push("cli.write_floor_s", median(&p.write), "s");
    for (phase, rss) in [
        ("compress.range_scan", &enc_rss),
        ("compress.encode_blocks", &enc_rss),
        ("compress.assemble", &enc_rss),
        ("decompress.index", &dec_rss),
        ("decompress.blocks", &dec_rss),
    ] {
        // 0 when the CLI's 50 ms RSS sampler never fired inside the phase.
        let peak = rss
            .phases
            .iter()
            .find(|(p, _)| p == phase)
            .map_or(0.0, |(_, v)| *v);
        m.push_owned(format!("cli.phase_peak_rss_mb.{phase}"), peak / 1e6, "MB");
    }
    m.push("roofline.memcpy_gbps", gb / median(&p.memcpy), "GB/s");
    m.push(
        "roofline.fresh_copy_gbps",
        gb / median(&p.fresh_copy),
        "GB/s",
    );
    m.push("roofline.scan_gbps", gb / median(&p.scan), "GB/s");

    // Self time of one traced round plus one probe round: the spans of each
    // kind of round over that kind's count, since the two hold different
    // calls.
    let spans = b.tracer.spans().len();
    let in_rounds = b.tracer.layer_self_seconds(0..probe_from);
    let in_probes = b.tracer.layer_self_seconds(probe_from..spans);
    let per_round = |own: &std::collections::BTreeMap<&str, f64>, layer: &str, n: usize| {
        own.get(layer).copied().unwrap_or(0.0) / n as f64
    };
    for layer in LAYERS {
        let (calls, errors) = b.tally.layers.get(layer).copied().unwrap_or_default();
        m.push_owned(format!("{layer}.calls"), calls as f64, "count");
        m.push_owned(format!("{layer}.errors"), errors as f64, "count");
        let own_s = per_round(&in_rounds, layer, n_traced) + per_round(&in_probes, layer, n_probe);
        m.push_owned(format!("{layer}.self_s"), own_s, "s");
    }

    // Tracing overhead: the traced rounds' time over the untraced rounds',
    // per arm, median over arms.
    let overhead: Vec<f64> = traced
        .arms()
        .iter()
        .zip(plain.arms())
        .map(|((_, t), (_, u))| 100.0 * (t.pass_seconds() - u.pass_seconds()) / u.pass_seconds())
        .collect();
    m.push("trace.overhead_pct", median(&overhead), "%");

    let spans = env.dir.parent().unwrap_or(&env.dir).join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans, b.tracer.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
    ctx.kv("spans_file", spans.display());
    Ok(b.tally)
}

#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_owned(name.to_string(), value, unit);
    }

    fn push_owned(&mut self, name: String, value: f64, unit: &'static str) {
        // JSON has no NaN/inf; a non-finite figure means a failed arm,
        // which the tally already counts.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }
}

/// Run facts printed beside the metrics: one JSON object, then the
/// per-round seconds of each end-to-end arm.
#[derive(Default)]
struct Ctx {
    facts: Vec<(String, String)>,
    rounds: String,
}

impl Ctx {
    fn kv(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    fn samples(&mut self, arm: &str, seconds: &[f64]) {
        let v: Vec<String> = seconds.iter().map(|s| format!("{s:.4}")).collect();
        let _ = writeln!(self.rounds, "# {arm}_s per round: {}", v.join(" "));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\": \"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Size of the highest-level CPU cache, from sysfs.
fn llc_bytes() -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (num, mult) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1 << 20),
            Some(b'G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        let Ok(n) = num.parse::<u64>() else { continue };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, n * mult));
        }
    }
    best.map(|(_, b)| b)
}

/// The soft limit on the size of a file this process writes
/// (RLIMIT_FSIZE), from /proc/self/limits; `None` when unlimited or
/// unreadable.
fn fsize_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max file size"))?;
    line["Max file size".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in /proc/self/mountinfo), or "unknown".
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|line| {
            let (pre, post) = line.split_once(" - ")?;
            let mount = pre.split(' ').nth(4)?;
            let fs = post.split(' ').next()?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fs)| fs)
}
