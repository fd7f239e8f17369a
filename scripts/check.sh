#!/usr/bin/env bash
# Repository check: build + test suite four times — once plain, once
# with ThreadSanitizer focused on the concurrency surface, once with
# AddressSanitizer focused on the interner/feature-pipeline surface,
# and once with UBSan over the FULL ctest suite.
#
#   scripts/check.sh             # all passes
#   scripts/check.sh --no-tsan   # skip the TSan pass
#   scripts/check.sh --no-asan   # skip the ASan pass
#   scripts/check.sh --no-ubsan  # skip the UBSan pass
#   scripts/check.sh --no-fuzz   # skip the ASan+UBSan fuzz-replay pass
#   scripts/check.sh --tidy      # additionally run scripts/tidy.sh
#   PAE_CHECK_JOBS=4 scripts/check.sh   # override build/test parallelism
#
# Pass 1 (default flags) configures build-check/ and runs every ctest
# target (including pae_lint), repeats the serve, protocol and
# concurrency tests 20 times at full parallelism, then runs an
# instrumented pae-extract
# pass over a small synthetic corpus, validates the emitted
# --metrics-out JSON report, and packs + deep-verifies the mmap'ed
# .paez model artifact (pass 1b), drives the pae-serve daemon
# end-to-end over its unix socket — 200 loadgen requests, one hot swap
# publishing the .paez artifact, protocol shutdown — (pass 1d), then
# reruns the full suite with
# PAE_SIMD=scalar (pass 1c) so the portable kernel tier — the one CI
# hosts without AVX2 would silently fall back to — gets the same
# coverage as the dispatched default. Pass 2 configures build-check-tsan/ with
# -DPAE_SANITIZE=thread and runs the thread-pool + concurrency +
# feature-pipeline + serve binaries directly: they are the tests whose
# failure modes are data races (concurrency_test covers ProcessCorpus
# and IngestCorpusDir across thread counts); the serve hot-swap hammer
# is additionally repeated 100 times because the publish/drain race is
# the daemon's central invariant. Pass 3 configures
# build-check-asan/ with -DPAE_SANITIZE=address and runs the interner +
# feature-pipeline + serve + model-artifact binaries: the interner hands
# out raw string_views into a hand-managed arena, the serve protocol
# tests feed adversarial frames, and the packed-artifact tests probe
# mmap'ed tables in place — exactly the kind of code ASan exists for.
# Pass 4 configures build-check-ubsan/ with -DPAE_SANITIZE=undefined
# (which also enables float-divide-by-zero and -fno-sanitize-recover)
# and runs the WHOLE ctest suite: UBSan's costs are cheap enough to
# afford full coverage, and the ubsan_regression_test corpus of
# malformed UTF-8 / boundary offsets only earns its keep under it.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${PAE_CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}"
RUN_TSAN=1
RUN_ASAN=1
RUN_UBSAN=1
RUN_FUZZ=1
RUN_TIDY=0
for arg in "$@"; do
  [[ "${arg}" == "--no-tsan" ]] && RUN_TSAN=0
  [[ "${arg}" == "--no-asan" ]] && RUN_ASAN=0
  [[ "${arg}" == "--no-ubsan" ]] && RUN_UBSAN=0
  [[ "${arg}" == "--no-fuzz" ]] && RUN_FUZZ=0
  [[ "${arg}" == "--tidy" ]] && RUN_TIDY=1
done

if [[ "${RUN_TIDY}" == "1" ]]; then
  # Fail fast before spending minutes on sanitizer builds: tidy.sh
  # exits 3 with an install hint when clang-tidy is not on PATH.
  if ! scripts/tidy.sh --probe; then
    echo "check.sh: --tidy requested but clang-tidy is unavailable" >&2
    exit 3
  fi
fi

echo "==> pass 1: default build + full ctest"
cmake -B build-check -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
cmake --build build-check -j "${JOBS}"
ctest --test-dir build-check --output-on-failure -j "${JOBS}"
# Stress leg: the socket, stats-counter and thread-count tests repeated
# at full parallelism, where shared paths or unsynchronized reads show
# up as intermittent failures that a single pass can miss.
ctest --test-dir build-check --output-on-failure -j"$(nproc)" \
      -R 'Serve|Protocol|Concurrency' --repeat until-fail:20

echo "==> pass 1b: instrumented extraction run + metrics report"
# An end-to-end pae-extract run with --metrics-out proves the metrics
# surface works outside of unit tests: the run must succeed AND emit a
# parseable JSON report containing the core pipeline instruments.
./build-check/tools/pae-datagen --category vacuum --products 80 \
      --seed 5 --out build-check/metrics-corpus > /dev/null
./build-check/tools/pae-extract --in build-check/metrics-corpus \
      --out build-check/metrics-triples.tsv --iterations 2 \
      --metrics-out build-check/metrics-report.json \
      --save-model build-check/metrics-model.crf > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - build-check/metrics-report.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
for key in ("version", "counters", "gauges", "histograms", "series"):
    assert key in report, f"metrics report missing top-level key {key!r}"
assert report["version"] == 1, report["version"]
assert report["counters"].get("cleaning.input", 0) > 0, "no cleaning counters"
assert len(report["series"].get("crf.objective", [])) > 0, "no CRF objective"
assert len(report["series"].get("bootstrap.triples_total", [])) > 0, \
    "no bootstrap triple series"
print("metrics report OK:", len(report["counters"]), "counters,",
      len(report["histograms"]), "histograms,", len(report["series"]),
      "series")
PYEOF
else
  # No python3: settle for a structural grep that the report at least
  # contains the expected keys.
  for key in '"version"' '"counters"' '"crf.objective"' \
             '"bootstrap.triples_total"' '"cleaning.input"'; do
    grep -q "${key}" build-check/metrics-report.json || {
      echo "check.sh: metrics report missing ${key}" >&2; exit 1; }
  done
  echo "metrics report OK (grep-checked; python3 unavailable)"
fi
# Pack the trained model into the mmap'ed .paez artifact and deep-verify
# it (structure + every section checksum): the packed form feeds the
# serve smoke below, so a packer regression fails here, not there.
./build-check/tools/pae-model-pack --model build-check/metrics-model.crf \
      --out build-check/metrics-model.paez
./build-check/tools/pae-model-pack --check build-check/metrics-model.paez

echo "==> pass 1d: serve smoke (daemon + loadgen + hot swap + shutdown)"
# End-to-end over the real wire: start the pae-serve daemon on the model
# saved in pass 1b, drive 200 requests through pae-loadgen with one
# mid-run hot swap, then shut the daemon down over the protocol. Driver
# threads stay below the daemon's worker count so the swap/shutdown
# admin connections always find a free worker (the server parks each
# persistent connection on one pool thread).
SMOKE_SOCK="build-check/pae-serve-smoke.sock"
SMOKE_LOG="build-check/pae-serve-smoke.log"
rm -f "${SMOKE_SOCK}" "${SMOKE_LOG}"
./build-check/tools/pae-serve --socket "${SMOKE_SOCK}" \
      --model build-check/metrics-model.crf \
      --resources build-check/metrics-corpus --workers 4 \
      > "${SMOKE_LOG}" 2>&1 &
SMOKE_PID=$!
for _ in $(seq 1 100); do
  grep -q "pae-serve ready" "${SMOKE_LOG}" 2>/dev/null && break
  kill -0 "${SMOKE_PID}" 2>/dev/null || {
    echo "check.sh: pae-serve died before ready:" >&2
    cat "${SMOKE_LOG}" >&2; exit 1; }
  sleep 0.1
done
grep -q "pae-serve ready" "${SMOKE_LOG}" || {
  echo "check.sh: pae-serve never became ready" >&2
  kill "${SMOKE_PID}" 2>/dev/null || true; exit 1; }
# The mid-run swap publishes the mmap'ed .paez artifact packed in pass
# 1b — the legacy-loaded generation 1 and the zero-copy generation 2
# must serve identical responses (the response checksum in the JSON
# report is seed-deterministic across both).
./build-check/tools/pae-loadgen --socket "${SMOKE_SOCK}" \
      --corpus build-check/metrics-corpus --requests 200 --threads 2 \
      --swap-at 100 --swap-model build-check/metrics-model.paez \
      --swap-resources build-check/metrics-corpus --shutdown-after \
      --json build-check/serve-smoke.json \
      | tee build-check/serve-smoke.out
grep -q "hot-swapped to generation 2" build-check/serve-smoke.out || {
  echo "check.sh: serve smoke hot swap did not happen" >&2; exit 1; }
grep -q "daemon shutdown acknowledged" build-check/serve-smoke.out || {
  echo "check.sh: daemon did not acknowledge shutdown" >&2; exit 1; }
for _ in $(seq 1 100); do
  kill -0 "${SMOKE_PID}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${SMOKE_PID}" 2>/dev/null; then
  echo "check.sh: pae-serve did not exit after shutdown request" >&2
  kill "${SMOKE_PID}"; exit 1
fi
wait "${SMOKE_PID}" || {
  echo "check.sh: pae-serve exited non-zero:" >&2
  cat "${SMOKE_LOG}" >&2; exit 1; }
grep -q '"transport_errors": 0' build-check/serve-smoke.json || {
  echo "check.sh: serve smoke saw transport errors" >&2
  cat build-check/serve-smoke.json >&2; exit 1; }
echo "serve smoke OK: 200 requests, one hot swap, clean shutdown"

echo "==> pass 1c: full ctest with PAE_SIMD=scalar"
# Same binaries, scalar kernel tier. The kernels are bit-identical
# across tiers by contract, so every pass-1 expectation must hold
# unchanged here; a divergence means a tier broke the lane discipline.
PAE_SIMD=scalar ctest --test-dir build-check --output-on-failure -j "${JOBS}"
# The batched-BiLSTM determinism gate, explicitly and by name: training
# and decode must be byte-identical at B ∈ {1, 8, 32} (and across
# thread counts) on the scalar tier too, not just on the dispatched
# default the full suite above already covered.
PAE_SIMD=scalar ./build-check/tests/lstm_test \
      --gtest_filter='BiLstmTaggerTest.TrainingByteIdenticalAcrossBatchSizes:BiLstmTaggerTest.DecodeByteIdenticalAcrossBatchSizesAndThreads'

if [[ "${RUN_TSAN}" == "1" ]]; then
  echo "==> pass 2: ThreadSanitizer build + concurrency binaries"
  cmake -B build-check-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPAE_SANITIZE=thread > /dev/null
  cmake --build build-check-tsan -j "${JOBS}" \
        --target thread_pool_test concurrency_test feature_pipeline_test \
        serve_test
  ./build-check-tsan/tests/thread_pool_test
  ./build-check-tsan/tests/concurrency_test
  ./build-check-tsan/tests/feature_pipeline_test
  ./build-check-tsan/tests/serve_test
  # The hot-swap hammer is the one test whose whole point is the
  # publish/drain race; a single pass can get lucky, 100 consecutive
  # passes under TSan cannot.
  ./build-check-tsan/tests/serve_test \
        --gtest_filter='GenerationCellTest.HotSwapHammer*' \
        --gtest_repeat=100 --gtest_brief=1
fi

if [[ "${RUN_ASAN}" == "1" ]]; then
  echo "==> pass 3: AddressSanitizer build + interner/pipeline binaries"
  cmake -B build-check-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPAE_SANITIZE=address > /dev/null
  cmake --build build-check-asan -j "${JOBS}" \
        --target interner_test feature_pipeline_test crf_test serve_test \
        serve_protocol_test model_artifact_test
  ./build-check-asan/tests/interner_test
  ./build-check-asan/tests/feature_pipeline_test
  ./build-check-asan/tests/crf_test
  ./build-check-asan/tests/serve_test
  # The packed-artifact tests run inference directly over the mmap'ed
  # tables (guarded probes into a caller-owned mapping) — the exact
  # surface where an off-by-one becomes an out-of-mapping read.
  ./build-check-asan/tests/model_artifact_test
  # The adversarial frame corpus (oversize length words, truncations,
  # partial writes) is exactly the input family that turns a missing
  # bounds check into a heap overflow; run it with ASan watching.
  ./build-check-asan/tests/serve_protocol_test
fi

if [[ "${RUN_UBSAN}" == "1" ]]; then
  echo "==> pass 4: UndefinedBehaviorSanitizer build + full ctest"
  cmake -B build-check-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPAE_SANITIZE=undefined > /dev/null
  cmake --build build-check-ubsan -j "${JOBS}"
  ctest --test-dir build-check-ubsan --output-on-failure -j "${JOBS}"
fi

if [[ "${RUN_FUZZ}" == "1" ]]; then
  echo "==> pass 5: ASan+UBSan fuzz-harness replay over the corpus"
  # Both structure-aware harnesses over the committed corpus plus the
  # mutation-sweep gtest, instrumented with the fuzzing combo: ASan for
  # the out-of-mapping reads hostile artifacts aim for, UBSan for the
  # arithmetic on hostile header fields. Bounded (corpus replay, not
  # coverage search) so it fits every CI run; the coverage-guided
  # libFuzzer targets run on the Clang leg.
  cmake -B build-check-fuzz -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPAE_SANITIZE=address+undefined > /dev/null
  cmake --build build-check-fuzz -j "${JOBS}" \
        --target pae-fuzz-replay fuzz_replay_test
  ./build-check-fuzz/fuzz/pae-fuzz-replay --target=paez fuzz/corpus/paez
  ./build-check-fuzz/fuzz/pae-fuzz-replay --target=frame fuzz/corpus/frame
  ./build-check-fuzz/tests/fuzz_replay_test
fi

if [[ "${RUN_TIDY}" == "1" ]]; then
  echo "==> extra pass: clang-tidy"
  scripts/tidy.sh
fi

echo "==> all checks passed"
