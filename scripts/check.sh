#!/usr/bin/env bash
# Tier-1 gate, fully offline: everything resolves against the in-repo
# shims (see shims/README.md), so no network or registry access is needed.
#
#   scripts/check.sh            # build + tests + release property/kernel
#                               # equivalence suite + fmt + clippy + audit
#   scripts/check.sh --quick    # tier-1 subset: build + debug tests +
#                               # benchmark-harness tests + release
#                               # decode-equivalence subset + audit
#   scripts/check.sh --fast     # alias for --quick (kept for muscle memory)
#   scripts/check.sh --audit    # just the szx-audit static-analysis pass,
#                               # refreshing results/AUDIT.json
#   scripts/check.sh --fuzz     # long differential fuzz campaign (in-tree
#                               # engine), minimized findings saved to
#                               # tests/corpus/; FUZZ_SECS / FUZZ_SEED /
#                               # FUZZ_ITERS tune the budget
#   scripts/check.sh --sanitize # nightly-only ASan (and TSan when rust-src
#                               # is installed) over the unsafe surface;
#                               # skips gracefully when nightly is absent
#
# Run from anywhere; the script cd's to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Keep cargo away from the network: the workspace pins every external
# dependency to a local path shim, so an offline build must succeed.
export CARGO_NET_OFFLINE=true

# In-tree static analysis (crates/szx-audit): unsafe hygiene, call-graph
# panic reachability from the decode entry points (full call chains in the
# output), hot-loop allocation, checked parse-path arithmetic, and the
# trace-buffer atomics protocol. Prints per-rule finding counts, exits
# non-zero on any finding, refreshes the committed report (CI diffs it for
# freshness), and writes a SARIF 2.1.0 report for code-scanning upload.
run_audit() {
    echo "==> szx-audit (unsafe/panic-reach/alloc/arith/atomics audit)"
    mkdir -p target
    cargo run -q --release -p szx-audit -- \
        --json results/AUDIT.json --sarif target/AUDIT.sarif
}

# Metrics-exposition smoke: one tiny compress with every observability
# artifact requested must yield a Prometheus exposition, a JSON-lines event
# log, and a run manifest the observatory comparator accepts (compared
# against itself: zero regressions, exit 0).
#
# Every step checks its own exit status instead of leaning on `set -e`:
# `set -e` is silently disabled inside a function invoked from any guarded
# context (`if run_obs_smoke`, `run_obs_smoke || ...`), which once let a
# partially built target dir run a stale szx-cli binary, fail the schema
# validate, and still report the gate green. The explicit up-front build
# also guarantees `cargo run -q` below executes today's binaries, not
# whatever an interrupted earlier build left behind.
run_obs_smoke() {
    echo "==> szx metrics-exposition smoke"
    local dir
    dir="$(mktemp -d)"
    obs_fail() {
        echo "==> FAIL obs smoke: $1" >&2
        rm -rf "$dir"
        exit 1
    }
    cargo build -q --release -p szx-cli -p bench \
        || obs_fail "building szx-cli/bench"
    cargo run -q --release -p szx-cli -- gen cesm "$dir/fields" --scale tiny >/dev/null \
        || obs_fail "generating tiny CESM fields"
    local field
    field="$(find "$dir/fields" -name '*.f32' | sort | head -1)"
    [[ -n "$field" ]] || obs_fail "no .f32 field generated"
    cargo run -q --release -p szx-cli -- compress "$field" "$dir/out.szx" \
        --abs 1e-3 --metrics "$dir/m.prom" --events "$dir/e.jsonl" \
        --manifest "$dir/run.json" >/dev/null \
        || obs_fail "compress with observability artifacts"
    grep -q '^# TYPE szx_compress_bytes_raw_total counter$' "$dir/m.prom" \
        || obs_fail "metrics exposition missing bytes_raw counter"
    grep -q '^# TYPE szx_process_peak_rss_bytes gauge$' "$dir/m.prom" \
        || obs_fail "metrics exposition missing peak-RSS gauge"
    grep -q '"event":"run.start"' "$dir/e.jsonl" \
        || obs_fail "event log missing run.start"
    cargo run -q --release -p bench --bin observatory -- \
        validate "$dir/run.json" >/dev/null \
        || obs_fail "observatory schema validate"
    cargo run -q --release -p bench --bin observatory -- \
        compare "$dir/run.json" "$dir/run.json" \
        || obs_fail "observatory self-compare"
    rm -rf "$dir"
}

# Profiler smoke: compress ~8 MB of CESM data with --profile and assert the
# folded output is non-empty with every frame name resolved. The sampler is
# run above its default rate so even a fast machine lands well over the
# handful of ticks the assertion needs; an unresolved frame renders as
# "??<id>" and means the zone-slot publish protocol leaked a bad name id.
run_profile_smoke() {
    echo "==> szx profiler smoke (--profile on ~8 MB CESM)"
    local dir
    dir="$(mktemp -d)"
    prof_fail() {
        echo "==> FAIL profile smoke: $1" >&2
        rm -rf "$dir"
        exit 1
    }
    cargo build -q --release -p szx-cli \
        || prof_fail "building szx-cli"
    cargo run -q --release -p szx-cli -- gen cesm "$dir/fields" --scale large >/dev/null \
        || prof_fail "generating large CESM fields"
    # One large field is ~6.5 MB; concatenate to cross 8 MB so the compress
    # spans dozens of sampler ticks. head reads from a process substitution
    # rather than a pipeline: the suite is far bigger than 16 MB, so a
    # `cat | head -c` pipeline always ends in cat taking SIGPIPE, which
    # `set -o pipefail` (correctly) reports as failure.
    head -c 16000000 <(cat "$dir"/fields/*.f32) > "$dir/big.f32" \
        || prof_fail "assembling 16 MB input"
    SZX_PROFILE_HZ=4000 cargo run -q --release -p szx-cli -- \
        compress "$dir/big.f32" "$dir/out.szx" --abs 1e-3 \
        --profile "$dir/p.folded" --profile-svg "$dir/p.svg" >/dev/null \
        || prof_fail "compress with --profile"
    [[ -s "$dir/p.folded" ]] \
        || prof_fail "folded profile is empty (no samples accumulated)"
    grep -Eq '^[^ ]+ [0-9]+$' "$dir/p.folded" \
        || prof_fail "folded profile is not in collapsed-stack format"
    if grep -q '??' "$dir/p.folded"; then
        prof_fail "unresolved frame id in folded profile (zone-slot protocol bug)"
    fi
    grep -q '</svg>' "$dir/p.svg" \
        || prof_fail "SVG flamegraph is truncated"
    # On hosts with the ISA extension the explicit SIMD path must show up
    # in the profile under its own zone — that attribution is how a perf
    # regression in dispatch (silently falling back to the portable kernel)
    # becomes visible. Skipped elsewhere: Auto resolves to the portable
    # kernel there and no simd zone can exist.
    if grep -q '^flags.* avx2' /proc/cpuinfo 2>/dev/null; then
        SZX_PROFILE_HZ=4000 cargo run -q --release -p szx-cli -- \
            compress "$dir/big.f32" "$dir/out2.szx" --abs 1e-3 \
            --kernel simd --profile "$dir/ps.folded" >/dev/null \
            || prof_fail "compress with --kernel simd --profile"
        grep -q 'compress\.simd' "$dir/ps.folded" \
            || prof_fail "no compress.simd zone in the folded profile (simd dispatch fell back?)"
    fi
    rm -rf "$dir"
}

# SIMD equivalence gate: the explicit AVX2/NEON path must be byte-identical
# to the portable kernel and the scalar oracle — same compressed stream,
# same decode bits, same error messages. Release mode only: the intrinsic
# kernels and the autovectorized portable kernels both need optimizations
# to exercise their real codegen. Also proves the CLI-level plumbing end to
# end with a stream `cmp` across --kernel selections.
run_simd_equivalence() {
    echo "==> SIMD equivalence (scalar vs kernel vs simd, release)"
    cargo test -q --release -p szx-core simd \
        || { echo "==> FAIL szx-core simd equivalence tests" >&2; exit 1; }
    cargo test -q --release -p szx-integration-tests --test simd_dispatch \
        || { echo "==> FAIL simd dispatch integration tests" >&2; exit 1; }
    local dir
    dir="$(mktemp -d)"
    simd_fail() {
        echo "==> FAIL simd equivalence: $1" >&2
        rm -rf "$dir"
        exit 1
    }
    cargo build -q --release -p szx-cli \
        || simd_fail "building szx-cli"
    cargo run -q --release -p szx-cli -- gen cesm "$dir/fields" --scale small >/dev/null \
        || simd_fail "generating small CESM fields"
    local field
    field="$(find "$dir/fields" -name '*.f32' | sort | head -1)"
    [[ -n "$field" ]] || simd_fail "no .f32 field generated"
    local sel
    for sel in scalar kernel simd; do
        cargo run -q --release -p szx-cli -- compress "$field" \
            "$dir/$sel.szx" --abs 1e-3 --kernel "$sel" >/dev/null \
            || simd_fail "compress --kernel $sel"
        cargo run -q --release -p szx-cli -- decompress "$dir/$sel.szx" \
            "$dir/$sel.f32" --kernel "$sel" >/dev/null \
            || simd_fail "decompress --kernel $sel"
    done
    cmp -s "$dir/scalar.szx" "$dir/kernel.szx" \
        || simd_fail "scalar and kernel streams differ"
    cmp -s "$dir/scalar.szx" "$dir/simd.szx" \
        || simd_fail "scalar and simd streams differ"
    cmp -s "$dir/scalar.f32" "$dir/simd.f32" \
        || simd_fail "scalar and simd decodes differ bitwise"
    rm -rf "$dir"
}

# Bounded differential fuzz smoke (fixed seed, deterministic): replay the
# committed corpus, then a short mutation campaign per target. Any finding
# — panic, six-path divergence, or bound violation — exits nonzero.
run_fuzz_smoke() {
    echo "==> szx-fuzz differential smoke (fixed seed, bounded)"
    cargo run -q --release -p szx-fuzz -- smoke --corpus tests/corpus \
        --seed 12648430 --iters 400 --time-secs 30 \
        || { echo "==> FAIL fuzz smoke" >&2; exit 1; }
}

if [[ "${1:-}" == "--audit" ]]; then
    run_audit
    echo "==> OK (audit only)"
    exit 0
fi

if [[ "${1:-}" == "--fuzz" ]]; then
    # Long campaign: all three targets, minimized findings written straight
    # into tests/corpus/ (commit them — fuzz_regressions.rs replays them
    # forever after). Deterministic for a given FUZZ_SEED.
    secs="${FUZZ_SECS:-600}"
    seed="${FUZZ_SEED:-1}"
    iters="${FUZZ_ITERS:-2000000}"
    echo "==> szx-fuzz long campaign (seed=$seed, ${secs}s/target budget)"
    cargo build -q --release -p szx-fuzz
    cargo run -q --release -p szx-fuzz -- run all --corpus tests/corpus \
        --seed "$seed" --iters "$iters" --time-secs "$secs" \
        --save-dir tests/corpus \
        || { echo "==> findings saved to tests/corpus/ — minimize done," \
                  "commit them and fix the bug" >&2; exit 1; }
    echo "==> OK (fuzz campaign clean)"
    exit 0
fi

if [[ "${1:-}" == "--sanitize" ]]; then
    # Sanitizers need -Z flags, hence nightly. The container images this
    # repo builds in do not always carry a nightly toolchain (or the
    # rust-src component TSan's -Zbuild-std needs), so every missing piece
    # downgrades to an explicit skip instead of a failure.
    if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
        echo "==> SKIP --sanitize: no nightly toolchain installed"
        exit 0
    fi
    target="$(rustc -vV | sed -n 's/^host: //p')"
    # --lib --tests: doctest binaries fail to link the sanitizer runtime.
    #
    # The SIMD module is the workspace's largest unsafe surface — raw
    # intrinsic loads/stores, overlapping 8-byte commits, gather-style
    # provider reconstruction — so it gets a dedicated focused pass first
    # (fast signal, precise attribution), then the broad crate run covers
    # everything else.
    echo "==> AddressSanitizer over the SIMD kernels (nightly, ${target})"
    RUSTFLAGS="-Zsanitizer=address" \
        cargo +nightly test -q --target "$target" --lib \
        -p szx-core simd
    echo "==> AddressSanitizer (nightly, ${target})"
    RUSTFLAGS="-Zsanitizer=address" \
        cargo +nightly test -q --target "$target" --lib --tests \
        -p szx-telemetry -p szx-core
    if rustup component list --toolchain nightly --installed 2>/dev/null \
        | grep -q '^rust-src'; then
        echo "==> ThreadSanitizer (nightly, -Zbuild-std, ${target})"
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -q -Zbuild-std --target "$target" \
            --lib --tests -p szx-telemetry
    else
        echo "==> SKIP ThreadSanitizer: rust-src component not installed"
    fi
    echo "==> OK (sanitize)"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The benchmark harness (.perfbench/, a cargo workspace of its own) links
# the public szx-core API by path; building and unit-testing it here fails
# the gate on any API change that would break the benchmark.
echo "==> cargo test (benchmark harness, .perfbench)"
cargo test --offline -q --manifest-path .perfbench/Cargo.toml

if [[ "${1:-}" == "--fast" || "${1:-}" == "--quick" ]]; then
    # The decode kernel only matters under optimizations (overlapping loads,
    # autovectorized assembly sweep), so even the quick gate runs the
    # scalar-vs-kernel decode equivalence subset in release mode.
    echo "==> cargo test --release (decode kernel equivalence subset)"
    cargo test -q --release -p szx-core dekernels
    cargo test -q --release -p szx-integration-tests \
        --test roundtrip_properties --test fuzz_regressions
    run_simd_equivalence
    run_audit
    run_obs_smoke
    run_profile_smoke
    run_fuzz_smoke
    echo "==> OK (quick: skipped full release suites, fmt, clippy)"
    exit 0
fi

# The scalar-vs-kernel equivalence and roundtrip property suites again in
# release mode: autovectorization only kicks in with optimizations, so this
# is the build that actually exercises the branch-free kernel codegen.
echo "==> cargo test --release (kernel equivalence + properties)"
cargo test -q --release -p szx-core kernels
cargo test -q --release -p szx-core dekernels
cargo test -q --release -p szx-integration-tests \
    --test roundtrip_properties --test edge_cases \
    --test corrupt_archive --test scratch_allocation \
    --test fuzz_regressions

run_simd_equivalence

echo "==> cargo fmt --check"
cargo fmt --all --check

# Lint the crates this PR series actively maintains; -D warnings keeps the
# gate binary (a finding fails the script, not just prints).
echo "==> cargo clippy -D warnings"
cargo clippy --release \
    -p szx-telemetry -p szx-core -p szx-cli -p szx-data \
    -p szx-integration-tests -p szx-examples -p bench -p szx-audit \
    -p szx-fuzz -p szx-profile \
    --all-targets -- -D warnings

run_audit

# Observatory smoke: a tiny sweep must bootstrap BENCH_0.json, validate
# against the schema, and a second identical sweep must pass the gate
# (throughput ignored — CI timing is noisy; ratio/PSNR are deterministic).
echo "==> bench observatory smoke (tiny)"
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
obs() { cargo run -q --release -p bench --bin observatory -- "$@"; }
obs run --scale tiny --samples 1 --fields 1 --bounds 1e-3 \
    --out-dir "$obs_dir" --quiet
obs validate "$obs_dir/BENCH_0.json"
obs run --scale tiny --samples 1 --fields 1 --bounds 1e-3 \
    --out-dir "$obs_dir" --quiet --ignore-throughput

run_obs_smoke

run_profile_smoke

run_fuzz_smoke

echo "==> OK"
