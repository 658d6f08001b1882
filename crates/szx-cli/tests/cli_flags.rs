//! Flag-table checks: each subcommand accepts exactly its documented flags,
//! each at most once. A typo such as `--paralel` or a second `--rel` is a
//! usage error (exit 2, the flag named on stderr), never a silent fallback.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn szx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_szx"))
        .args(args)
        .output()
        .expect("run szx")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("szx-cli-flags-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn p(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// Exit 2, stderr names `flag`, and `output` was never written.
fn assert_usage_error(out: &Output, flag: &str, output: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(flag), "stderr must name {flag}: {stderr}");
    assert!(
        !output.exists(),
        "{} written despite the usage error",
        output.display()
    );
}

/// A raw f64 field, so the accepted-set run can exercise `--f64` too.
fn write_f64_field(path: &Path, n: usize) {
    let bytes: Vec<u8> = (0..n)
        .flat_map(|i| ((i as f64 * 0.01).sin() * 100.0).to_le_bytes())
        .collect();
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn compress_rejects_unknown_and_repeated_flags() {
    let dir = scratch_dir("compress");
    let input = dir.join("in.f64");
    let output = dir.join("out.szx");
    write_f64_field(&input, 4096);
    let base = ["compress", p(&input), p(&output)];

    let out = szx(&[
        &base[..],
        &["--f64", "--rel", "1e-3", "--paralel", "--bogus", "7"],
    ]
    .concat());
    assert_usage_error(&out, "--paralel", &output);

    let out = szx(&[&base[..], &["--f64", "--rel", "1e-3", "--rel", "1e-1"]].concat());
    assert_usage_error(&out, "--rel", &output);

    let out = szx(&[&base[..], &["--f64", "--rel"]].concat());
    assert_usage_error(&out, "--rel", &output);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn decompress_rejects_unknown_and_repeated_flags() {
    let dir = scratch_dir("decompress");
    let input = dir.join("in.f64");
    let stream = dir.join("in.szx");
    let output = dir.join("out.f64");
    write_f64_field(&input, 4096);
    let out = szx(&["compress", p(&input), p(&stream), "--f64", "--abs", "1e-3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let base = ["decompress", p(&stream), p(&output)];

    let out = szx(&[&base[..], &["--stat"]].concat());
    assert_usage_error(&out, "--stat", &output);

    let out = szx(&[&base[..], &["--parallel", "--parallel"]].concat());
    assert_usage_error(&out, "--parallel", &output);

    // A flag another subcommand accepts is still unknown here.
    let out = szx(&[&base[..], &["--rel", "1e-3"]].concat());
    assert_usage_error(&out, "--rel", &output);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--trace`/`--metrics`/`--events`/`--manifest`/`--profile`/`--profile-svg`,
/// each pointing at its own file named after `tag`.
fn artifact_flags(dir: &Path, tag: &str) -> Vec<String> {
    [
        ("--trace", "trace.json"),
        ("--metrics", "prom"),
        ("--events", "jsonl"),
        ("--manifest", "run.json"),
        ("--profile", "folded"),
        ("--profile-svg", "svg"),
    ]
    .iter()
    .flat_map(|(flag, ext)| {
        [
            flag.to_string(),
            p(&dir.join(format!("{tag}.{ext}"))).into(),
        ]
    })
    .collect()
}

#[test]
fn every_accepted_flag_runs() {
    let dir = scratch_dir("accepted");
    let input = dir.join("in.f64");
    let stream = dir.join("out.szx");
    let output = dir.join("back.f64");
    write_f64_field(&input, 64 * 1024);

    let switches =
        "--f64 --rel 1e-3 --block 64 --strategy c --kernel auto --parallel --stats --json";
    let mut args: Vec<String> = vec!["compress".into(), p(&input).into(), p(&stream).into()];
    args.extend(switches.split(' ').map(String::from));
    args.extend(artifact_flags(&dir, "c"));
    let out = szx(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let switches = "--kernel scalar --parallel --stats --json";
    let mut args: Vec<String> = vec!["decompress".into(), p(&stream).into(), p(&output).into()];
    args.extend(switches.split(' ').map(String::from));
    args.extend(artifact_flags(&dir, "d"));
    let out = szx(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let len = |path: &Path| std::fs::metadata(path).unwrap().len();
    assert_eq!(len(&output), len(&input));
    for tag in ["c", "d"] {
        for path in artifact_flags(&dir, tag).iter().skip(1).step_by(2) {
            assert!(Path::new(path).exists(), "{path} not written");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
