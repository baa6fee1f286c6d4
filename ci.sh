#!/usr/bin/env bash
# Tier-1 verification entry point. Everything runs offline against an
# empty cargo registry: the workspace has zero external dependencies.
#
#   ./ci.sh            build + test + bench smoke
#   ./ci.sh --no-bench build + test only
set -euo pipefail
cd "$(dirname "$0")"

run_bench=1
[ "${1:-}" = "--no-bench" ] && run_bench=0

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# The rustdoc pass is part of tier-1: missing or broken documentation on
# public items fails the build (missing_docs is deny in govhost-types,
# govhost-par, govhost-obs, govhost-worldgen, govhost-scenario and
# govhost-serve; broken intra-doc links everywhere).
echo "==> cargo doc --no-deps --offline --workspace (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The fault-tolerance contract gets a named tier-1 pass of its own: the
# quarantine/abort policies and the lossless CSV round trip (including
# the property test over arbitrary field contents).
echo "==> quarantine + round-trip suites"
cargo test -q --offline --test failure_injection --test pipeline_recovery
cargo test -q --offline -p govhost-core --test prop_export export

# So is the observability contract: byte-identical telemetry exports
# across thread counts, plus the merge-law property tests behind them.
echo "==> telemetry suites"
cargo test -q --offline --release --test telemetry
cargo test -q --offline -p govhost-obs --test prop_obs

# The interned-build determinism pin runs at full paper scale (scale 1,
# ~1M URLs) across 1/2/4/8 work-stealing threads, so it is #[ignore]d in
# the debug pass above and exercised here in release, together with the
# interner-vs-reference-model property suite.
echo "==> interned build suites"
cargo test -q --offline --release --test interning -- --include-ignored
cargo test -q --offline -p govhost-core --test prop_table

# Longitudinal determinism: same-seed ticks are bit-identical, the
# evolved timeline does not depend on the build thread count, and the
# incremental dirty-set rebuild exports the same bytes as a full build.
# The scale-0.3 pins are #[ignore]d in the debug pass and run here in
# release. The property suite complements them: over arbitrary seeds,
# tick counts and over-approximated dirty sets, the incremental report
# and export bytes (meta included) equal a full build's, also when web
# content is mutated between ticks. Tick and shock rebuilds must re-run
# only §3.4 identify: evolve and scenario gate on zero crawled pages,
# and the worldgen content-version laws check that no tick or shock
# touches what a crawl reads.
echo "==> evolve suites"
cargo test -q --offline --release --test evolve -- --include-ignored
cargo test -q --offline --release --test scenario
cargo test -q --offline -p govhost-core --test prop_incremental
cargo test -q --offline -p govhost-worldgen --lib content_version

# Hygiene gate for the interned path: the build and table modules must
# obtain every hostname from the interner — parsing one from a raw
# string there reintroduces the per-row allocations the columnar
# representation removed. (Test modules are stripped before grepping.)
echo "==> interned-path hygiene gate"
for f in crates/core/src/dataset.rs crates/core/src/table.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
        | grep -nE 'parse::<Hostname>|Hostname::from_str|: *Hostname *=.*\.parse\('; then
        echo "raw hostname construction in $f — route it through the interner" >&2
        exit 1
    fi
done

# And the serving contract. `-p govhost-serve` runs, in one pass, the
# event-loop + readiness unit tests and the route-grammar pin in the
# serve crate; HTTP conformance (keep-alive, Connection token lists,
# ETag/304, HEAD, percent-decoding, typed query 400s, idle eviction,
# 503 shedding) and the parser/packing/query fuzz properties
# (http_conformance, prop_http), both of which drive the production
# EventLoop (with FakeReadiness + FakeClock) or the worker Pool; and
# the parameterized query engine (query_engine: canonicalization,
# result-cache accounting, identical-input hot swap). Then
# byte-identical responses and telemetry across worker counts (plus
# the slow-reader fairness pin and the real-socket smoke), and the CLI
# usage-error contract.
echo "==> serve suites"
cargo test -q --offline -p govhost-serve
cargo test -q --offline --test serve_http --test cli_usage

# The what-if engine: `-p govhost-scenario` runs the unit layers of
# govhost-scenario and the scenario DSL's never-panic fuzz suite
# (prop_dsl) in one pass; then the root determinism pins (empty
# scenario == baseline bytes, all-zero self-diff with zero insights,
# the shared-NS cascade acceptance, and /scenario/{name} responses
# byte-identical across 1/2/4 build threads).
echo "==> scenario suites"
cargo test -q --offline -p govhost-scenario
cargo test -q --offline --test scenario

# The repository benchmark's own unit tests: its statistics, span
# tracer, request mix and in-process connections. perfbench is a
# workspace of its own and builds into its own target directory. This
# build is also the guard that the API perfbench pins still compiles:
# in serve, `ServeState::with_timeline`, `ServeState::with_timeline_config`
# and the `PoolConfig { policy, max_conns }` literal; in core and
# scenario, `YearMetrics::measure`, the `Timeline { years }` literal,
# `govhost_scenario::BuildMetrics::measure`, the `ScenarioRun` metric
# fields (`baseline_metrics`, `shocked_metrics`, `ns_only_percent`) and
# `EvolveOutcome`.
echo "==> perfbench unit tests"
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path perfbench/Cargo.toml

if [ "$run_bench" = 1 ]; then
    echo "==> bench smoke (1 iteration each, writes BENCH_*.json)"
    GOVHOST_BENCH_SMOKE=1 cargo bench --offline -p govhost-bench
fi

echo "==> OK"
