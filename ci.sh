#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repo root; everything is offline (no registry access).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> tablegen output matches the experiment archive"
# `tablegen` is deterministic, and its output is every simulated number
# the reproduction reports (EXPERIMENTS.md quotes it verbatim), across
# fine and coarse grain, forwarding off, sequential multiply and divide,
# and the finite fetch model. Any change in a cycle count fails here;
# after an intended model change, regenerate the archive with
# ./target/release/tablegen > docs/experiments_output.txt
./target/release/tablegen | diff - docs/experiments_output.txt

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> dependency policy (zero external crates)"
# Every resolved dependency must live in this tree (path deps only):
# the workspace builds with no crates.io access, and `mtasc serve` in
# particular is hand-rolled on std. Any line without an in-tree path
# is a smuggled external crate.
EXTERNAL="$(cargo tree --workspace -e normal --prefix none | grep -v '^$' | grep -v ' (/' || true)"
if [ -n "$EXTERNAL" ]; then
    echo "non-path dependencies detected:"
    echo "$EXTERNAL"
    exit 1
fi

echo "==> mtasc lint (deny warnings: examples + kernel corpus)"
# The committed corpus must stay lint-clean; see docs/static-analysis.md.
for prog in examples/programs/*; do
    ./target/release/mtasc lint "$prog" --deny warnings
done
./target/release/mtasc lint --kernels --deny warnings

echo "==> inter-thread race gate (E6001 divergence + corpus schedule invariance)"
# The family-6 severity contract enforced by execution: every
# error-flagged race fixture must reach divergent architectural state
# under perturbed legal schedules, and the kernel corpus must stay
# race-clean *and* bit-identical across >=8 scheduler seeds — under the
# default geometry, forced multi-segment execution, and the scalar
# dispatch tier. See docs/static-analysis.md ("Inter-thread analysis").
cargo test --test race_differential -q
MTASC_SEGMENTS=4 cargo test --test race_differential -q
MTASC_SEGMENTS=4 MTASC_NO_SIMD=1 cargo test --test race_differential -q

echo "==> mtasc stats validate (committed BENCH_*.json schemas)"
./target/release/mtasc stats validate BENCH_*.json baselines/*.json

echo "==> SIMD speedup gates (committed baselines/ pre-SIMD vs BENCH_*.json)"
# The pre_simd files are the kernel corpus and pe-scaling sweep measured
# at the commit before the compiled-kernel/SIMD work, on the same machine
# and with the same median-of-N harness as the current files. `stats diff`
# lowers both tables into metric registries (kernel.<name>.wall_ms etc.),
# so any committed slowdown trips the regression gate, and the awk checks
# prove the headline speedups: corpus geomean >= 1.5x, sort and search
# each >= 1.3x at 4096 PEs.
./target/release/mtasc stats diff baselines/BENCH_kernels.pre_simd.json BENCH_kernels.json \
    --fail-on-regress 0
./target/release/mtasc stats diff baselines/BENCH_kernels.pre_simd.json BENCH_kernels.json --all \
    | awk '
        $1 == "geomean.wall_ms"       { if ($2 / $4 < 1.5) { print "geomean speedup < 1.5x:", $2, "->", $4; bad = 1 } }
        $1 == "kernel.sort.wall_ms"   { if ($2 / $4 < 1.3) { print "sort speedup < 1.3x:",   $2, "->", $4; bad = 1 } }
        $1 == "kernel.search.wall_ms" { if ($2 / $4 < 1.3) { print "search speedup < 1.3x:", $2, "->", $4; bad = 1 } }
        END { exit bad }'
# pe-scaling: no committed point may be slower; sweep sizes new in this
# PR (2^17, 2^18) are new information, not regressions
./target/release/mtasc stats diff baselines/BENCH_pe_scaling.pre_simd.json BENCH_pe_scaling.json \
    --fail-on-regress 0 > /dev/null

echo "==> scale-out gates (committed pe-scaling sweep: segmentation wins)"
# The pre_scaleout file is the sweep measured at the commit before the
# core-affine segmentation work. The diff proves the committed 2^18-2^20
# points regressed nowhere, and the awk pass proves that at every point
# from 2^16 up — including the 2^20 point this PR adds — the default
# multi-segment execution beats the forced monolithic build
# (wall_seconds < wall_seconds_1seg), from the committed report alone.
./target/release/mtasc stats diff baselines/BENCH_pe_scaling.pre_scaleout.json BENCH_pe_scaling.json \
    --fail-on-regress 0 > /dev/null
awk '
    function num(key,    s) {
        if (match($0, "\"" key "\": *[0-9.eE+-]+")) {
            s = substr($0, RSTART, RLENGTH); sub(/.*: */, "", s); return s + 0
        }
        return -1
    }
    /"num_pes"/ {
        n = num("num_pes"); w = num("wall_seconds"); w1 = num("wall_seconds_1seg")
        if (n >= 262144) top++
        if (n >= 65536 && w >= w1) {
            printf "no multi-segment win at %d PEs: %g >= %g\n", n, w, w1; bad = 1
        }
    }
    END {
        if (top < 3) { print "2^18-2^20 sweep points missing"; bad = 1 }
        exit bad
    }' BENCH_pe_scaling.json

echo "==> mtasc profile + stats diff smoke (sort kernel, fail-on-regress)"
# Profile one kernel (conservation is asserted by the profiler's tests;
# here we check the CLI surface end to end), then diff the profile
# against itself — any regression past 0% would be a determinism bug.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/smoke.asc" <<'ASC'
        li    s2, 5
        li    s3, 0
        pidx  p1
loop:   paddi p1, p1, 1
        rsum  s1, p1
        add   s4, s4, s1
        addi  s3, s3, 1
        ceq   f1, s3, s2
        bf    f1, loop
        halt
ASC
./target/release/mtasc profile "$SMOKE_DIR/smoke.asc" --json "$SMOKE_DIR/a.json" --no-record \
    | grep -q "conservation: exact"
./target/release/mtasc profile "$SMOKE_DIR/smoke.asc" --json "$SMOKE_DIR/b.json" --no-record \
    > /dev/null
./target/release/mtasc stats validate "$SMOKE_DIR/a.json"
./target/release/mtasc stats diff "$SMOKE_DIR/a.json" "$SMOKE_DIR/b.json" --fail-on-regress 0
# stdin (`-`) on one side feeds the same diff engine
./target/release/mtasc stats diff - "$SMOKE_DIR/b.json" --fail-on-regress 0 \
    < "$SMOKE_DIR/a.json" > /dev/null

echo "==> mtasc runs (registry end to end: record, list, show, diff, gc, export)"
RUNS_DIR="$SMOKE_DIR/runs"
MTASC="./target/release/mtasc"
# two recorded runs: a baseline and a deliberately slower one (forwarding
# off) so the registry diff has a real regression to catch
"$MTASC" run "$SMOKE_DIR/smoke.asc" --runs-dir "$RUNS_DIR" --progress-every 2 \
    2> "$SMOKE_DIR/heartbeats.jsonl" | grep -q "recorded run "
grep -q '"schema":"mtasc.progress.v1"' "$SMOKE_DIR/heartbeats.jsonl"
"$MTASC" run "$SMOKE_DIR/smoke.asc" --no-forwarding --runs-dir "$RUNS_DIR" > /dev/null
FAST_ID="$("$MTASC" runs list --runs-dir "$RUNS_DIR" --limit 1 --offset 1 \
    | sed -n '2p' | cut -d' ' -f1)"
SLOW_ID="$("$MTASC" runs list --runs-dir "$RUNS_DIR" --limit 1 \
    | sed -n '2p' | cut -d' ' -f1)"
# list paginates: one row per page, two runs total
test "$("$MTASC" runs list --runs-dir "$RUNS_DIR" | wc -l)" -ge 3
test "$FAST_ID" != "$SLOW_ID"
"$MTASC" runs show "$FAST_ID" --runs-dir "$RUNS_DIR" | grep -q "status   ok"
# recorded artifacts and manifests satisfy their schemas — including a
# lint report captured as a registry-style artifact (mtasc.lint.v1)
"$MTASC" lint "$SMOKE_DIR/smoke.asc" --json > "$RUNS_DIR/$FAST_ID/lint.json"
"$MTASC" stats validate "$RUNS_DIR/$FAST_ID/report.json" "$RUNS_DIR/$FAST_ID/run_meta.json" \
    "$RUNS_DIR/$FAST_ID/lint.json"
# the injected regression must trip the gate (exit 1, and only 1)
set +e
"$MTASC" runs diff "$FAST_ID" "$SLOW_ID" --fail-on-regress 0 --runs-dir "$RUNS_DIR" > /dev/null 2>&1
DIFF_EXIT=$?
set -e
test "$DIFF_EXIT" -eq 1
# heartbeats recorded into the registry replay through runs watch
"$MTASC" runs watch "$FAST_ID" --no-follow --runs-dir "$RUNS_DIR" | grep -q "cycle"
# prometheus export sees both runs
"$MTASC" runs export --prometheus --runs-dir "$RUNS_DIR" \
    | grep -q 'mtasc_runs_total{status="ok"} 2'
# gc keeps the newest run and prunes the other
"$MTASC" runs gc --keep 1 --runs-dir "$RUNS_DIR" | grep -q "pruned 1"
"$MTASC" runs list --runs-dir "$RUNS_DIR" | grep -q "$SLOW_ID"
! "$MTASC" runs list --runs-dir "$RUNS_DIR" | grep -q "$FAST_ID"

echo "==> mtasc serve (HTTP observability daemon end to end)"
SERVE_RUNS="$SMOKE_DIR/serve-runs"
# two recorded runs: the first with a tight heartbeat cadence (so the SSE
# replay below yields several events), the second with forwarding off (so
# the diff endpoint has a real regression to report)
"$MTASC" run "$SMOKE_DIR/smoke.asc" --runs-dir "$SERVE_RUNS" --progress-every 2 \
    > /dev/null 2> /dev/null
"$MTASC" run "$SMOKE_DIR/smoke.asc" --no-forwarding --runs-dir "$SERVE_RUNS" > /dev/null
BASE_ID="$("$MTASC" runs list --runs-dir "$SERVE_RUNS" --limit 1 --offset 1 \
    | sed -n '2p' | cut -d' ' -f1)"
NOFWD_ID="$("$MTASC" runs list --runs-dir "$SERVE_RUNS" --limit 1 \
    | sed -n '2p' | cut -d' ' -f1)"
"$MTASC" serve --addr 127.0.0.1:0 --runs-dir "$SERVE_RUNS" > "$SMOKE_DIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 50); do
    if grep -q "listening on" "$SMOKE_DIR/serve.log" 2>/dev/null; then break; fi
    sleep 0.1
done
PORT="$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$SMOKE_DIR/serve.log")"
test -n "$PORT"
# tiny std-only HTTP client on bash's /dev/tcp: prints the decoded body
http_get() {
    exec 3<>"/dev/tcp/127.0.0.1/$PORT"
    printf 'GET %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "$1" >&3
    tr -d '\r' <&3 | sed '1,/^$/d'
    exec 3<&- 3>&-
}
# listing parity: the API document is byte-for-byte `runs list --json`,
# and it satisfies `stats validate` as a run listing
http_get /api/v1/runs > "$SMOKE_DIR/api_runs.json"
"$MTASC" runs list --json --runs-dir "$SERVE_RUNS" | diff - "$SMOKE_DIR/api_runs.json"
"$MTASC" stats validate "$SMOKE_DIR/api_runs.json" | grep -q "mtasc.run_meta.v1 list"
http_get /healthz | grep -q '"status":"ok"'
http_get "/api/v1/runs/$BASE_ID" | grep -q "\"id\": \"$BASE_ID\""
http_get "/api/v1/runs/$BASE_ID/report" | grep -q '"schema": "mtasc.run_report.v1"'
# the forwarding-off run regresses against the baseline, and the diff
# endpoint says so in mtasc.stats_diff.v1 terms
http_get "/api/v1/runs/$BASE_ID/diff/$NOFWD_ID?fail-on-regress=0" > "$SMOKE_DIR/diff.json"
grep -q '"schema": "mtasc.stats_diff.v1"' "$SMOKE_DIR/diff.json"
grep -q '"regressed": true' "$SMOKE_DIR/diff.json"
# SSE replay of the recorded heartbeats: >=2 progress events, clean end
http_get "/api/v1/runs/$BASE_ID/progress" > "$SMOKE_DIR/sse.log"
test "$(grep -c '^event: progress' "$SMOKE_DIR/sse.log")" -ge 2
grep -q '^event: end' "$SMOKE_DIR/sse.log"
# prometheus: registry totals plus the server's own request metrics
http_get /metrics > "$SMOKE_DIR/metrics.txt"
grep -q 'mtasc_runs_total{status="ok"} 2' "$SMOKE_DIR/metrics.txt"
grep -q 'mtasc_http_requests_total{route="/api/v1/runs",status="200"}' "$SMOKE_DIR/metrics.txt"
grep -q 'mtasc_http_request_duration_ms_count' "$SMOKE_DIR/metrics.txt"
# clean SIGTERM shutdown: exit 0 and the stopped line on stdout
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q "mtasc serve stopped" "$SMOKE_DIR/serve.log"

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test --features proptest (property tests)"
cargo test -p asc-core -p asc-asm -p asc-pe -p asc-obs-store --features proptest -q

echo "==> fusion differential suite at the scalar dispatch tier"
# The proptest fusion suite runs once at the detected SIMD tier (above)
# and once with dispatch forced scalar, so fused-vs-unfused bit-identity
# is proven on both sides of the runtime CPU dispatch.
MTASC_NO_SIMD=1 cargo test -p asc-core --features proptest -q fusion

echo "==> fusion + SIMD differential suites under forced multi-segment execution"
# MTASC_SEGMENTS=4 shards every machine in the suites into four
# core-affine segments, so fused-vs-unfused and SIMD-vs-scalar
# bit-identity — and the sharded-vs-monolithic proptest itself — are
# proven with the commit map at a second granularity. Every sweep and
# reduction walks the same tiles at every segment count, so these reruns
# guard that invariance rather than a second code path.
MTASC_SEGMENTS=4 cargo test -p asc-core --features proptest -q fusion
MTASC_SEGMENTS=4 cargo test -p asc-core --features proptest -q proptests
MTASC_SEGMENTS=4 MTASC_NO_SIMD=1 cargo test -p asc-core --features proptest -q fusion

echo "==> 2^20-PE planes and split sweeps (release)"
# Lazily-materialized planes: a million-PE machine must construct in
# microseconds (budget 500ms for slow CI hosts) with zero bytes
# committed until the first write. Run in release so the budget
# measures the allocator, not debug-mode overhead. The same build runs
# the tests whose arrays are large, where debug builds are slow: the
# plane-reuse test at the 2^20 shape (a machine built on a dropped one's
# planes must read zero everywhere), and the split-geometry tests at
# 2^18 + 70 PEs, where sweeps pass the worker pool's gate and run on
# every host core (lane-local sweeps against the per-PE reference, every
# reduction unit against lane references, a fused block faulting in two
# occupancy groups against --no-fuse, and a fused block whose operands
# alias its destinations, read in place, against --no-fuse, --no-simd and
# a host-computed answer). With them run the responder word-span kernels
# against a word loop at every tier, the `?pf` mask refill against a
# fresh mask of each plane, and the response count group by group and
# past the pool's gate at 2^24 + 70 lanes.
cargo test --release -p asc-pe --features proptest -q -- \
    sparse_million_pe_array_constructs_cheaply reused_planes_read_zero_at_2_20 \
    split_sweeps_match_per_pe_reference word_span_kernels_match_a_word_loop \
    refills_match_a_fresh_mask_of_each_plane
cargo test --release -p asc-network -q -- units_match_lane_references_at_scale \
    group_by_group_counts_sum_to_the_whole
cargo test --release --test fusion -q -- split_block_faults_keep_their_identity \
    aliased_operands_fuse_when_split

echo "==> single-CPU reference (taskset -c 0: the worker pool has no helpers)"
# The pool sizes itself from available_parallelism(), so one CPU means no
# helper threads and every sweep on its caller. Rerunning the pool tests
# and the split-geometry tests there proves that serial path.
if command -v taskset > /dev/null; then
    taskset -c 0 cargo test --release -p asc-pe --features proptest -q \
        --test workers --test workers_alloc
    taskset -c 0 cargo test --release -p asc-pe --features proptest -q --lib -- \
        split_sweeps_match_per_pe_reference word_span_kernels_match_a_word_loop \
        refills_match_a_fresh_mask_of_each_plane
    taskset -c 0 cargo test --release -p asc-network -q -- units_match_lane_references_at_scale \
        group_by_group_counts_sum_to_the_whole
    taskset -c 0 cargo test --release --test fusion -q -- split_block_faults_keep_their_identity \
        aliased_operands_fuse_when_split
else
    echo "taskset not found: single-CPU reference skipped"
fi

echo "==> portability check (intrinsics compiled out)"
# --cfg mtasc_force_scalar removes the x86 intrinsics at compile time;
# the PE crate must still build cleanly (the non-x86 fallback path).
RUSTFLAGS="--cfg mtasc_force_scalar" cargo check -p asc-pe -q

echo "==> benchmark crate gate (simbench/check.sh)"
# The benchmark crate has its own workspace: fmt, clippy -D warnings,
# unit tests, the path-deps-only check, and a smoke run that checks every
# op against a reference run with fusion off, SIMD off and one segment.
simbench/check.sh

echo "==> cargo bench --no-run (benches compile)"
cargo bench --workspace --no-run

echo "==> kernel bench smoke-compare (quick mode, vs BENCH_kernels.json)"
# Median-of-5 wall times against the committed baseline; fails on any
# kernel more than MTASC_BENCH_TOLERANCE percent slower (default here
# 150). This is a catastrophic-regression smoke guard, not the precision
# gate — the committed numbers are medians from a quiet machine, and the
# sub-ms kernels measured right after the full test suite has saturated
# the host can swing 2-3x on loaded single-core CI runners; the
# deterministic perf gates are the committed-file `stats diff` checks
# above. Regenerate the baseline with:
# cargo bench -p asc-bench --bench kernels -- --save-baseline
MTASC_BENCH_RUNS="${MTASC_BENCH_RUNS:-5}" MTASC_BENCH_TOLERANCE="${MTASC_BENCH_TOLERANCE:-150}" \
    cargo bench -p asc-bench --bench kernels -- --compare-baseline

echo "==> kernel bench smoke-compare at the scalar dispatch tier"
# Same corpus with SIMD dispatch forced off: proves the scalar tier runs
# the full suite end to end. The committed baseline was measured at the
# detected tier, so the tolerance only guards against catastrophic
# scalar-path regressions, not the expected SIMD-vs-scalar gap.
MTASC_NO_SIMD=1 MTASC_BENCH_RUNS=5 MTASC_BENCH_TOLERANCE=400 \
    cargo bench -p asc-bench --bench kernels -- --compare-baseline

echo "==> ci.sh: all green"
