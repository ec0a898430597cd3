#!/usr/bin/env bash
# Repository gate: formatting, lints, tests and the sampsim lint pass.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo test (e2ebench)"
# The end-to-end benchmark builds against the serve and core APIs in its
# own workspace; its tests fail here when an API change breaks it.
cargo test --offline -q --manifest-path e2ebench/Cargo.toml

echo "==> cargo test (property suite)"
cargo test -q -p sampsim --features property-tests --test property_tests

echo "==> sampsim lint --deny-warnings"
# Small scale keeps the suite-wide workload build fast; findings do not
# depend on scale (run-length rules are proportionality checks).
cargo run --release -q -p sampsim-cli -- lint --scale 0.01 --deny-warnings

echo "==> sampsim lint --format json (schema check)"
# Every diagnostic line must conform to the documented JSON shape. The
# maxk-0 config guarantees at least one diagnostic flows through; lint
# exits 1 on findings by design, so only exit codes >= 2 are failures.
{ cargo run --release -q -p sampsim-cli -- lint omnetpp_s --scale 0.002 --maxk 0 --format json \
    || [ "$?" -eq 1 ]; } \
    | cargo run --release -q -p sampsim-analyze --example validate_lint_json

echo "==> sampsim audit (dynamic differential, full suite)"
# The executor oracle: profiles every benchmark and checks the dynamic
# BBVs and slice cursors against bounds derived statically from the
# schedule. A clean executor can never fire these.
cargo run --release -q -p sampsim-cli -- audit --scale 0.002 --deny-warnings 2> /dev/null

echo "==> sampsim audit --artifacts (shipped .art summaries)"
# The committed summaries pin the scale-0.01 builds; any drift in the
# generators or the bounds derivation fails here.
cargo run --release -q -p sampsim-cli -- audit --scale 0.01 --deny-warnings --artifacts artifacts

echo "==> sampsim perf --quick (kernel smoke + scaling grid + regression gate)"
# Times the optimized kernels against their naive references at smoke
# sizes — every timed pair is asserted identical — runs the quick
# streaming scaling point (peak-RSS asserted inside the harness), and
# gates the size-normalized rates against the committed baseline: any
# shared metric more than 10% slower fails.
perf_report="$(mktemp)"
serve_dir="$(mktemp -d)"
trap 'rm -rf "$perf_report" "$serve_dir"' EXIT
cargo run --release -q -p sampsim-cli -- perf --quick -o "$perf_report" \
    --baseline BENCH_kernels.json > /dev/null
cargo run --release -q -p sampsim-cli -- perf --validate "$perf_report"
cargo run --release -q -p sampsim-cli -- perf --validate BENCH_kernels.json
# The committed baseline's cache-probe and streaming-footprint bounds are
# checked by the `cargo test` step above, in the crates/perf unit test
# committed_baseline_holds_the_cache_and_streaming_bounds.

echo "==> sampsim serve smoke (daemon reply == run stdout)"
# Starts the daemon on an ephemeral port, sends one request, checks the
# reply is byte-identical to `sampsim run` stdout, then shuts it down
# gracefully and requires exit code 0.
cargo build --release -q -p sampsim-cli
sampsim_bin="target/release/sampsim"
bench_args=(omnetpp_s --scale 0.002 --maxk 6)
"$sampsim_bin" serve --addr 127.0.0.1:0 --cache-dir "$serve_dir/cache" --jobs 2 \
    > "$serve_dir/announce" 2> /dev/null &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^sampsim-serve listening on //p' "$serve_dir/announce")"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve smoke: daemon never announced its address" >&2; exit 1; }
"$sampsim_bin" run "${bench_args[@]}" > "$serve_dir/direct.json" 2> /dev/null
"$sampsim_bin" request "${bench_args[@]}" --addr "$addr" > "$serve_dir/reply.json" 2> /dev/null
cmp "$serve_dir/direct.json" "$serve_dir/reply.json" \
    || { echo "serve smoke: served reply != run stdout" >&2; exit 1; }
# The run document must not depend on the worker count. Three workers
# give the cache truth its own thread and two BBV shards, and the truth
# overlaps region selection; one worker is the serial walk.
for jobs in 1 3; do
    "$sampsim_bin" run "${bench_args[@]}" --jobs "$jobs" > "$serve_dir/direct-jobs$jobs.json" 2> /dev/null
    cmp "$serve_dir/direct.json" "$serve_dir/direct-jobs$jobs.json" \
        || { echo "serve smoke: run stdout differs between default jobs and --jobs $jobs" >&2; exit 1; }
done
"$sampsim_bin" request --stats --addr "$addr" > /dev/null
"$sampsim_bin" request --shutdown --addr "$addr" > /dev/null
wait "$serve_pid" || { echo "serve smoke: daemon exited non-zero" >&2; exit 1; }

echo "==> sampsim compare smoke (all strategies vs whole-program truth)"
# Quick-scale cross-strategy study on one benchmark, then validate the
# report against the sampsim-compare/v1 schema AND the strategy registry
# (the validator fails when a registered strategy is missing a row).
compare_report="$serve_dir/compare.json"
"$sampsim_bin" compare omnetpp_s --scale 0.002 --maxk 6 --reps 2 \
    -o "$compare_report" > /dev/null 2> /dev/null
"$sampsim_bin" compare --validate "$compare_report"
# The same study on one worker must produce the same bytes: every
# distinct region is replayed once in one flat task list, whatever the
# job count.
"$sampsim_bin" compare omnetpp_s --scale 0.002 --maxk 6 --reps 2 --jobs 1 \
    -o "$serve_dir/compare-jobs1.json" > /dev/null 2> /dev/null
cmp "$compare_report" "$serve_dir/compare-jobs1.json" \
    || { echo "compare smoke: report differs between default jobs and --jobs 1" >&2; exit 1; }
# Belt and braces against registry drift: every strategy the CLI itself
# advertises in its usage text must have a row in the report, so adding a
# strategy to the CLI without teaching `compare` about it fails loudly.
cli_strategies="$("$sampsim_bin" help | sed -n '/one of:/{n;s/;.*//;s/,/ /g;p;}')"
[ -n "$cli_strategies" ] \
    || { echo "compare smoke: could not read the strategy list from 'sampsim help'" >&2; exit 1; }
for name in $cli_strategies; do
    grep -q "\"strategy\":\"$name\"" "$compare_report" \
        || { echo "compare smoke: CLI strategy '$name' missing from the compare report" >&2; exit 1; }
done

echo "==> sampsim plan smoke (static planner, every advertised strategy)"
# Planning is pure static analysis: for every strategy the CLI
# advertises, render a plan, validate it against the sampsim-plan/v1
# schema, and check the plan names the strategy it was asked for. Reuses
# the advertised-strategy list extracted above so a strategy added to
# the CLI without a working planner fails loudly.
for name in $cli_strategies; do
    plan_report="$serve_dir/plan-$name.json"
    "$sampsim_bin" plan omnetpp_s --scale 0.002 --maxk 6 --strategy "$name" \
        -o "$plan_report" > /dev/null 2> /dev/null
    "$sampsim_bin" plan --validate "$plan_report"
    grep -q "\"strategy\":\"$name\"" "$plan_report" \
        || { echo "plan smoke: plan for '$name' does not name it" >&2; exit 1; }
done
# The linter's rule catalogue must answer for the planner's soundness
# rules (the docs drift test pins the full registry; this pins the CLI
# plumbing end to end).
"$sampsim_bin" lint --explain SA140 > /dev/null
"$sampsim_bin" lint --explain SA145 > /dev/null
"$sampsim_bin" lint --explain SA150 > /dev/null

echo "all checks passed"
