#!/usr/bin/env sh
# Continuous-integration gate for the neural-ner workspace.
#
# Runs the same checks as .github/workflows/ci.yml:
#   1. formatting       (cargo fmt --check, rustfmt.toml style)
#   2. lints            (cargo clippy --workspace, warnings are errors)
#      + docs           (cargo doc --no-deps, rustdoc warnings are errors)
#   3. tier-1 tests     (release build + full test suite, serial and at
#      4 threads — the parallel paths must not change results — and once
#      more at NER_SIMD=off so forced-scalar kernels reproduce the same
#      bits the default SIMD level produced; ner-tensor and ner-core once
#      more at NER_SIMD=sse2, so the 4-lane kernels run on AVX2 hosts too)
#   4. kernel smoke     (exp_kernels --smoke exits non-zero on any
#      blocked/SIMD/parallel-vs-naive kernel divergence, or any exp/
#      sigmoid/tanh/lstm_cell lane differing from the scalar reference,
#      run at the default SIMD level, NER_SIMD=off and NER_SIMD=sse2)
#   5. inference smoke  (exp_inference --smoke at 1 and 4 threads exits
#      non-zero if the tape-free plan's tags — or the batched [B,T]
#      backend's — diverge from the tape path)
#   6. training smoke   (exp_train --smoke at 1 and 4 threads exits
#      non-zero if the batched packed-autograd trainer's loss curve
#      diverges in any f64 bit from the per-sentence oracle under the
#      shared bucketed schedule; zoo-wide final-weight/F1 bit-identity
#      is covered by ner-core's train_parity suite in step 3)
#   7. prometheus lint  (the /metrics exposition must have typed, unique
#      families with cumulative histogram buckets)
#   8. serving smoke    (serve integration tests — including the request
#      tracing, flight-recorder, batch-formation, slow-client and
#      shutdown-race suites — + exp_serving --smoke at 1 and 4 threads:
#      its overload-and-recovery soak drives the server into SLO shedding,
#      hot-reloads it under load, and drains it, exiting non-zero if a
#      batched response diverges from offline annotate, an accepted
#      request is lost, or the server fails to recover after overload;
#      its idle-connection ladder fails the run if the server's threads
#      burn CPU while holding 1k idle keep-alive sockets, or if a request
#      after the ladder is not answered byte-equal)
#
# The build is fully offline: every external dependency is a vendored stub
# under compat/, so no network access is required.
set -eu

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny rustdoc warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "== tier-1: release build + tests (NER_THREADS=1) =="
cargo build --release
NER_THREADS=1 cargo test -q

echo "== tier-1: tests again on the parallel paths (NER_THREADS=4) =="
NER_THREADS=4 cargo test -q

echo "== tier-1: tests with SIMD forced off (NER_SIMD=off, NER_THREADS=1) =="
NER_SIMD=off NER_THREADS=1 cargo test -q

echo "== tier-1: tests with SIMD forced off (NER_SIMD=off, NER_THREADS=4) =="
NER_SIMD=off NER_THREADS=4 cargo test -q

echo "== tier-1: ner-tensor + ner-core at 4-lane width (NER_SIMD=sse2) =="
NER_SIMD=sse2 cargo test -q -p ner-tensor -p ner-core

echo "== kernel smoke: blocked/SIMD/parallel must match the naive oracle =="
cargo run --release -p ner-bench --bin exp_kernels -- --smoke

echo "== kernel smoke again with SIMD forced off (NER_SIMD=off) =="
NER_SIMD=off cargo run --release -p ner-bench --bin exp_kernels -- --smoke

echo "== kernel smoke again at 4-lane width (NER_SIMD=sse2) =="
NER_SIMD=sse2 cargo run --release -p ner-bench --bin exp_kernels -- --smoke

echo "== inference smoke: plan and batched [B,T] must reproduce the tape (NER_THREADS=1) =="
NER_THREADS=1 cargo run --release -p ner-bench --bin exp_inference -- --smoke

echo "== inference smoke: plan and batched [B,T] must reproduce the tape (NER_THREADS=4) =="
NER_THREADS=4 cargo run --release -p ner-bench --bin exp_inference -- --smoke

echo "== training smoke: batched trainer must reproduce the per-sentence oracle (NER_THREADS=1) =="
NER_THREADS=1 cargo run --release -p ner-bench --bin exp_train -- --smoke

echo "== training smoke: batched trainer must reproduce the per-sentence oracle (NER_THREADS=4) =="
NER_THREADS=4 cargo run --release -p ner-bench --bin exp_train -- --smoke

echo "== prometheus lint: /metrics families must be typed, unique, cumulative =="
cargo test --release -p ner-serve --lib -q prometheus

echo "== serving: poll-loop integration + exp_serving soak (overload, reload, recovery; NER_THREADS=1) =="
NER_THREADS=1 cargo test --release -p ner-serve --test serve_integration -q
NER_THREADS=1 cargo run --release -p ner-bench --bin exp_serving -- --smoke

echo "== serving: poll-loop integration + exp_serving soak (overload, reload, recovery; NER_THREADS=4) =="
NER_THREADS=4 cargo test --release -p ner-serve --test serve_integration -q
NER_THREADS=4 cargo run --release -p ner-bench --bin exp_serving -- --smoke

echo "CI OK"
