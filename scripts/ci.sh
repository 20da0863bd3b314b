#!/usr/bin/env bash
# CI entry point: tier-1 verification plus Release and sanitizer passes.
#
#   scripts/ci.sh            # plain build + full ctest (perfbench
#                            # self-tests and committed-JSON checks
#                            # included), then Release (-O2) build + ctest,
#                            # then an x86-64-v4 build + ctest (AVX-512
#                            # hosts only), then ASan+UBSan build + ctest,
#                            # then TSan on the threaded data path, then
#                            # the forced-fallback CRC legs
#   scripts/ci.sh --fast     # plain build + full ctest only
#
# The plain, Release, x86-64-v4 and ASan+UBSan trees each run their full
# ctest once, in parallel; that one pass covers every label (obs, policy,
# delta, chaos, bench, perf, perfbench).
#
# The Release pass builds into a separate tree (build-release/) with
# -DCMAKE_BUILD_TYPE=Release: the perf-labelled benches gate their speedup
# shape checks there, at the optimization level the claims are made for, and
# an -O2-only miscompile or assert-hidden bug surfaces before merge. The ISA
# pass builds into build-isa/ with -march=x86-64-v4, so the whole tree (not
# only the trainer's dispatched AVX-512 kernel) is compiled for AVX-512 with
# FMA available; its ctest compares every committed BENCH_<name>.json byte
# for byte, which holds only while -ffp-contract=off keeps the compiler from
# fusing multiply-adds. It is skipped, with a message, on hosts whose
# /proc/cpuinfo lacks avx512dq. The
# sanitizer pass builds into build-asan/ with
# -DGEMINI_SANITIZE=address,undefined so the instrumented binaries never mix
# with the plain ones. The TSan pass builds into build-tsan/ with
# -DGEMINI_SANITIZE=thread and runs the suites that exercise worker threads:
# the simulator itself is single-threaded, but the ThreadPool, the parallel
# CRC/serializer, the replicator's stream assembly, the pipelined
# capture/verify path (pipeline_threads > 1) and the disk-backed persistent
# delta path (serialization on a 4-thread pool) are not. The trainer's
# copy-on-write reads a live buffer's use_count on the simulator thread while
# those workers may hold captures of it, so training_test runs there too.
#
# The repo benchmark's self-tests (perfbench/run.py --selftest) are the ctest
# entry perfbench_selftest (label perfbench), so the plain ctest pass runs
# them. Every simulated bench is a ctest entry too (label bench): it reruns
# the bench and fails on a failed shape check or on any byte of difference
# from its committed BENCH_<name>.json, so each ctest pass below (plain,
# Release, ASan+UBSan) regenerates and compares all of them.
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then
  fast=1
fi

echo "==> tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j

echo "==> tier-1: ctest"
(cd build && ctest --output-on-failure -j"$(nproc)")

if [[ "$fast" == "1" ]]; then
  echo "==> done (fast mode: Release and sanitizer passes skipped)"
  exit 0
fi

echo "==> release pass: configure + build (-DCMAKE_BUILD_TYPE=Release)"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j

echo "==> release pass: ctest"
(cd build-release && ctest --output-on-failure -j"$(nproc)")

if grep -qw avx512dq /proc/cpuinfo 2>/dev/null; then
  echo "==> ISA pass: configure + build (-march=x86-64-v4)"
  cmake -B build-isa -S . -DCMAKE_CXX_FLAGS=-march=x86-64-v4 >/dev/null
  cmake --build build-isa -j

  echo "==> ISA pass: ctest"
  (cd build-isa && ctest --output-on-failure -j"$(nproc)")
else
  echo "==> ISA pass: skipped (no avx512dq in /proc/cpuinfo; x86-64-v4 binaries cannot run here)"
fi

echo "==> sanitizer pass: configure + build (address,undefined)"
cmake -B build-asan -S . -DGEMINI_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j

echo "==> sanitizer pass: ctest"
(cd build-asan && ctest --output-on-failure -j"$(nproc)")

echo "==> TSan pass: configure + build (thread)"
cmake -B build-tsan -S . -DGEMINI_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target common_test storage_test replicator_test \
  gemini_system_test delta_test training_test

echo "==> TSan pass: threaded data path"
./build-tsan/tests/common_test --gtest_filter='ThreadPool*:Crc32*'
./build-tsan/tests/storage_test
./build-tsan/tests/replicator_test
./build-tsan/tests/delta_test
./build-tsan/tests/training_test
./build-tsan/tests/gemini_system_test \
  --gtest_filter='*PipelineThreadsDoNotChangeSimulatedResults*'

# Smoke-run the data-path bench from the Release tree: its shape check gates
# the slice-by-8 CRC speedup (>= 3x over the byte-wise reference), the
# hardware CRC speedup (>= 2x over slicing-by-8 where dispatched) and the
# pooled-vs-inline serialize ratio (>= 0.9), each on the median of its
# per-round ratios.
echo "==> bench smoke: bench_perf_datapath (Release)"
./build-release/bench/bench_perf_datapath

# Forced-fallback leg: build with the hardware CRC kernels compiled out
# (-DGEMINI_DISABLE_HWCRC=ON) and re-run the CRC/serialization-sensitive
# suites, so the portable slicing-by-8 path stays bit-identical and green on
# machines without PCLMUL/ARMv8-CRC. The bench must report the fallback as
# the active implementation under this build.
echo "==> forced-fallback pass: configure + build (-DGEMINI_DISABLE_HWCRC=ON)"
cmake -B build-nohwcrc -S . -DCMAKE_BUILD_TYPE=Release -DGEMINI_DISABLE_HWCRC=ON >/dev/null
cmake --build build-nohwcrc -j --target common_test storage_test replicator_test \
  bench_perf_datapath

echo "==> forced-fallback pass: CRC/serializer/replicator suites"
./build-nohwcrc/tests/common_test --gtest_filter='Crc32*:ThreadPool*'
./build-nohwcrc/tests/storage_test
./build-nohwcrc/tests/replicator_test
nohw_out="$(./build-nohwcrc/bench/bench_perf_datapath)"
echo "$nohw_out"
if ! grep -q 'active CRC implementation: slicing-by-8' <<<"$nohw_out"; then
  echo "FAIL: GEMINI_DISABLE_HWCRC build still dispatched a hardware CRC kernel" >&2
  exit 1
fi

# The same switch must also work at runtime, on the hardware-enabled build.
echo "==> forced-fallback pass: GEMINI_DISABLE_HWCRC=1 env override"
env_out="$(GEMINI_DISABLE_HWCRC=1 ./build-release/bench/bench_perf_datapath)"
if ! grep -q 'active CRC implementation: slicing-by-8' <<<"$env_out"; then
  echo "FAIL: GEMINI_DISABLE_HWCRC=1 did not force the portable CRC path" >&2
  exit 1
fi

echo "==> done"
