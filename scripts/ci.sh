#!/usr/bin/env bash
# Tier-1 verification: everything CI runs, runnable locally and offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace

echo "== end-to-end benchmark build =="
# e2ebench is a workspace of its own (path dependencies on the crates), so
# the workspace build above does not compile it; build it here so a core,
# nn or tensor API change that breaks the benchmark fails CI.
cargo build --release --offline --manifest-path e2ebench/Cargo.toml

echo "== end-to-end benchmark smoke (fit-books, 1 s of traffic) =="
# One short fit-books run: generate, fit, evaluate, export, save/load the
# checkpoint and serve it. The benchmark checks that a refit reproduces
# the fitted parameters and that served lists match the in-process pass;
# its last line reports the verdict, which must be correct with no failed
# operation.
e2e_last=$(cargo run --release --quiet --offline --manifest-path e2ebench/Cargo.toml -- \
  --workload fit-books --seed 1 --seconds 1 --trace 0 | tail -n 1)
echo "$e2e_last"
case "$e2e_last" in
  *'"correct":true'*'"failed":0'*) ;;
  *) echo "e2ebench fit-books smoke failed" >&2; exit 1 ;;
esac

echo "== cargo test (default threads) =="
cargo test --workspace -q

echo "== cargo test (METADPA_THREADS=1, exact serial path) =="
# The pool contract: METADPA_THREADS=1 is the exact serial code path and
# every other thread count is bit-identical to it. Running the whole suite
# under both settings pins that contract in CI, not just in the dedicated
# determinism tests.
METADPA_THREADS=1 cargo test --workspace -q

echo "== cargo test (METADPA_SIMD=off, forced-scalar kernels) =="
# The SIMD dispatch contract: METADPA_SIMD=off resolves every matmul to
# the scalar kernel family, and the exact SIMD kernels the default
# dispatch picks on AVX2 hosts are bit-identical to it. Running the whole suite again with the env switch
# set proves the fallback is complete (no test depends on SIMD being on)
# and drives the differential suites' scalar side through the real
# process-global override, not just the thread-local test hook.
METADPA_SIMD=off cargo test --workspace -q

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== microbench smoke + perf gate =="
# Smoke-sized sweep (3 iters/case) feeding the BENCH regression gate
# against the checked-in baseline. On hardware that doesn't match the
# baseline's fingerprint the gate downgrades to warnings automatically;
# set METADPA_BENCH_STRICT=1 to fail regardless. The smoke tolerance is
# loose (50%) because 3-iteration runs on shared CI hardware are noisy —
# it still catches order-of-magnitude regressions; tracked perf work
# should use the full sweep with --tolerance 0.15 on pinned hardware.
cargo bench -p metadpa-bench --bench blocks -- --smoke --bench-out "$PWD/BENCH_ci.json"
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  check BENCH_ci.json --baseline benchmarks/BENCH_baseline.json --tolerance 0.5

echo "== parallel kernels bench + perf gate =="
# Serial vs parallel matmul on the same inputs. The >= 2x speedup floor is
# enforced by the bench itself on 4+ core hosts (warn-only below that, like
# the fingerprint downgrade in obs-report check); the BENCH record is gated
# against the checked-in baseline either way.
cargo bench -p metadpa-bench --bench parallel -- --smoke --bench-out "$PWD/BENCH_parallel_ci.json"
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  check BENCH_parallel_ci.json --baseline benchmarks/BENCH_parallel_baseline.json --tolerance 0.5

echo "== blocked kernels bench + SIMD/alloc gates =="
# Blocked-vs-naive matmul throughput, the SIMD and f32-serving rows, and
# the training epoch's allocation budget. The bench enforces its own
# floors: >= 2x blocked throughput on 4+ core hosts (warn-only below),
# >= 2x exact-SIMD matmul and >= 3x fused f32 catalogue ranking on hosts
# with AVX2+FMA (warn-only elsewhere — the rows compare dispatch paths
# that don't exist without the features), and >= 5x fewer allocations per
# epoch through the workspace API everywhere. The BENCH record is
# additionally gated against the checked-in baseline.
cargo bench -p metadpa-bench --bench kernels -- --smoke --bench-out "$PWD/BENCH_kernel_ci.json"
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  check BENCH_kernel_ci.json --baseline benchmarks/BENCH_kernel_baseline.json --tolerance 0.5

echo "== sparse bench (streaming generator + CSR input path) + perf gate =="
# A full chunked-generation pass plus the CSR CVAE-input feed. The bench
# enforces its own memory floor everywhere: the streaming pass's peak
# live-bytes watermark must stay under 256 MB (the smoke shape's dense
# interaction matrix alone would be 1.6 GB), proving nothing of shape
# n_users x n_items is ever materialized. Wall times are gated against the
# checked-in baseline with the usual fingerprint downgrade.
cargo bench -p metadpa-bench --bench sparse -- --smoke --bench-out "$PWD/BENCH_sparse_ci.json"
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  check BENCH_sparse_ci.json --baseline benchmarks/BENCH_sparse_baseline.json --tolerance 0.5

echo "== serve smoke (export -> load -> every route -> shutdown) =="
# Exercise the full serving path end to end: fit + export a tiny artifact,
# reload it, walk every HTTP route (health, warm/cold recommend, adapt,
# the 422 path, metrics) over loopback, then shut down cleanly. Runs once
# per ranking policy, so exact and fused ranking both cross HTTP.
cargo run --release -q -p metadpa-serve --bin metadpa-serve -- \
  export --out serve_smoke.ckpt --seed 7
cargo run --release -q -p metadpa-serve --bin metadpa-serve -- \
  smoke --artifact serve_smoke.ckpt
cargo run --release -q -p metadpa-serve --bin metadpa-serve -- \
  export --out serve_smoke_fused.ckpt --seed 7 --ranking fused
cargo run --release -q -p metadpa-serve --bin metadpa-serve -- \
  smoke --artifact serve_smoke_fused.ckpt

echo "== serve loadgen + perf gate =="
# Short loopback load burst; must clear the 1k req/s floor and stay within
# the (loose, shared-hardware) tolerance of the checked-in baseline. Like
# the microbench gate above, a host-fingerprint mismatch downgrades the
# comparison to warnings unless METADPA_BENCH_STRICT=1.
cargo run --release -q -p metadpa-bench --bin serve-loadgen -- \
  --duration-ms 2000 --min-rps 1000 --bench-out "$PWD/BENCH_serve_ci.json"
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  check BENCH_serve_ci.json --baseline benchmarks/BENCH_serve_baseline.json --tolerance 0.5

echo "== traced serve smoke + trace integrity gate =="
# Re-run the serve smoke with request tracing on, then verify the trace:
# the smoke drives exactly 7 loopback requests, and check-trace demands
# one request record per request, unique request IDs, a parse-clean
# stream, and windowed p99 fields in the closing metrics snapshot.
cargo run --release -q -p metadpa-serve --bin metadpa-serve -- \
  smoke --artifact serve_smoke.ckpt --trace-out trace_smoke.jsonl
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  check-trace trace_smoke.jsonl --expect-requests 7

echo "== traced loadgen + trace/BENCH cross-check =="
# A short traced load burst, cross-checked against its own BENCH record:
# every recommend the loadgen counted must appear in the trace exactly
# once. (No --min-rps: tracing adds per-request I/O, and this stage gates
# integrity, not throughput — the untraced stage above gates perf.)
cargo run --release -q -p metadpa-bench --bin serve-loadgen -- \
  --duration-ms 1000 --trace-out trace_load.jsonl --bench-out "$PWD/BENCH_trace_ci.json"
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  check-trace trace_load.jsonl --expect-bench BENCH_trace_ci.json

echo "== feedback smoke + replay gate =="
# The streaming-feedback loop end to end: the loadgen mixes seeded
# POST /v1/feedback events into its traffic, the background adapter tails
# the log and graduates users live (the loadgen itself fails if the log
# does not drain or any graduation errors), then check-feedback replays
# the recorded log through the graduation state machine and demands the
# live adapter's trace match that oracle exactly — same run-ledger key,
# contiguous sequence, identical graduation/refresh counts.
cargo run --release -q -p metadpa-bench --bin serve-loadgen -- \
  --duration-ms 1200 --feedback-frac 0.3 --feedback-threshold 3 \
  --feedback-log feedback_ci.jsonl --trace-out trace_feedback.jsonl
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  check-feedback feedback_ci.jsonl --threshold 3 --trace trace_feedback.jsonl

echo "== traced training smoke + train gate + lineage =="
# Fit + export with training telemetry on, then gate the training trace:
# check-train demands one run-ledger ID on every record, contiguous
# per-phase epoch sequences, zero sentinel anomalies, a clean (untruncated)
# stream, and an overall loss improvement. lineage then joins the training
# trace against the exported checkpoint's stamped run ID — the train →
# export chain must agree on one key, end to end.
cargo run --release -q -p metadpa-serve --bin metadpa-serve -- \
  export --out train_smoke.ckpt --seed 7 --train-trace-out train_trace.jsonl
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  check-train train_trace.jsonl
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  lineage train_trace.jsonl --ckpt train_smoke.ckpt
cargo run --release -q -p metadpa-bench --bin obs-report -- \
  train-tail train_trace.jsonl --once >/dev/null

echo "== obs stream smoke (record -> report -> diff) =="
cargo run --release -q -p metadpa-bench --bin exp_tables_1_2 -- \
  --fast --obs-out obs_smoke.jsonl >/dev/null
cargo run --release -q -p metadpa-bench --bin obs-report -- report obs_smoke.jsonl
cargo run --release -q -p metadpa-bench --bin obs-report -- diff obs_smoke.jsonl obs_smoke.jsonl

echo "CI OK"
