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

# The workspace pass runs every suite of every crate once in debug,
# with the harness's fixed property seeds; the steps after it add only
# release, --include-ignored and golden runs. The contract comments
# below name the debug suites each contract rests on.
echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The fault-tolerance contract: the quarantine/abort policies
# (failure_injection, pipeline_recovery) and the lossless CSV round
# trip, including the property test over arbitrary field contents
# (prop_export), all in the workspace pass.

# The observability contract: byte-identical telemetry exports across
# thread counts, in release here, plus the merge-law property tests
# behind them (prop_obs, in the workspace pass).
echo "==> telemetry suites"
cargo test -q --offline --release --test telemetry

# The interned-build determinism pin runs at full paper scale (scale 1,
# ~1M URLs) across 1/2/4/8 work-stealing threads, so it is #[ignore]d in
# the debug pass above and exercised here in release, together with the
# interner-vs-reference-model property suite (prop_table, in the
# workspace pass). Those compare builds with
# each other; the digest pin (build_digests, also #[ignore]d in debug)
# compares the scale-0.3, seed-7 build at 1, 2 and 4 threads with the
# FNV-1a 64 digests of its export_csv files, metrics.json and trace.json
# recorded in results/build_digests_scale0.3.txt, so a change that
# alters the dataset the same way at every thread count fails too.
echo "==> interned build suites"
cargo test -q --offline --release --test interning -- --include-ignored
cargo test -q --offline --release --test build_digests -- --include-ignored

# Longitudinal determinism: same-seed ticks are bit-identical, the
# evolved timeline does not depend on the build thread count, and the
# incremental rebuild exports the same bytes as a full build. The tick
# and shock event logs must equal the digests recorded in
# results/event_digests_scale0.05.txt. The scale-0.3 pins are
# #[ignore]d in the debug pass and run here in release. A rebuild does
# not read the dirty set: it checks every cached record itself and
# re-identifies only the hosts whose recorded DNS reads changed, and
# evolve gates each tick rebuild's identify count on the hosts the year
# re-pointed plus their CNAME dependents, and each year's rebuild with
# an empty dirty set on the full build's bytes, so this holds in
# release as in debug. The property suite (prop_incremental, in the
# workspace pass) complements them: over arbitrary seeds, tick counts
# and dirty sets (padded, or empty), the incremental report and export
# bytes (meta included) equal a full build's, also when web content,
# the search index, reverse DNS or forward DNS (re-points, CNAMEs,
# shared zones) is mutated between rebuilds or the crawler or
# geolocation config changes, and a forward-DNS mutation re-identifies
# exactly the hosts whose alias chain moved. Tick and shock rebuilds
# must re-run only §3.4 identify: evolve and scenario gate on zero
# crawled pages, and the worldgen shared-surface laws (the
# shared_surfaces unit tests, in the workspace pass) check that a fork
# shares every surface, that no tick or shock writes one, that a fork's
# write is private, and that a write made while another clone is held
# (as a cached build result holds one) lands at a new allocation.
# Every measure folds over the per-host URL/byte rollup:
# prop_host_fold (in the workspace pass) checks each analysis and
# BuildMetrics bit for bit against the per-URL folds, on arbitrary
# imported datasets and on every year of a tiny evolve.
echo "==> evolve suites"
cargo test -q --offline --release --test evolve -- --include-ignored
cargo test -q --offline --release --test scenario
# The CLI golden of the evolve table: the release binary's ten-year
# trend at scale 0.05 (seed 42) must equal the recorded bytes, with the
# wall-clock rebuild-ms column masked.
./target/release/govhost evolve --years 10 --scale 0.05 2>/dev/null \
    | sed -E 's/ +[0-9]+\.[0-9]+$/  <ms>/' \
    | diff -u results/evolve_scale0.05.txt -

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

# And the serving contract, all in the workspace pass: the serve
# crate's event-loop + readiness unit tests and the route-grammar pin;
# HTTP conformance (keep-alive, Connection token lists,
# ETag/304, HEAD, percent-decoding, typed query 400s, idle eviction,
# 503 shedding) and the parser/packing/query fuzz properties
# (http_conformance, prop_http), both of which drive the production
# EventLoop (with FakeReadiness + FakeClock) or the worker Pool; and
# the parameterized query engine (query_engine: canonicalization,
# result-cache accounting, identical-input hot swap). Then
# byte-identical responses and telemetry across worker counts (plus
# the slow-reader fairness pin and the real-socket smoke, serve_http),
# and the CLI usage-error contract (cli_usage).

# The what-if engine: the unit layers of govhost-scenario and the
# scenario DSL's never-panic fuzz suite (prop_dsl) run in the workspace
# pass, and the root determinism pins (tests/scenario.rs) there and in
# release under "evolve suites". Then the CLI golden: the release
# binary's report cards and insights for the worked scenario file must
# equal the recorded bytes.
echo "==> scenario suites"
./target/release/govhost scenario examples/what-if.scn --scale 0.05 2>/dev/null \
    | diff -u results/what-if_scale0.05.txt -

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
