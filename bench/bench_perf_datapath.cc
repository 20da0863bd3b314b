// Wall-clock gates on the two host kernels of the checkpoint data path:
// CRC-32 (the dispatched kernel, the portable slicing-by-8 fallback and the
// byte-wise reference) and serialize+CRC (inline versus a 4-thread pool).
// Unlike the figure benches these are host wall-clock ratios, not simulated
// time. The per-stage data-plane timings (step, capture, commit, verify,
// serialize) live in the repo benchmark's traced leg (perfbench/README.md),
// with p50/p90 against the host's memcpy and CRC ceilings.
//
// Each ratio's legs are timed back to back in every one of kRounds
// interleaved rounds, and a gate reads the median of the per-round ratios: a
// burst of load from elsewhere on the host slows both legs of one round
// together, or spoils that round, instead of deciding the verdict.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/storage/serializer.h"

// Sanitizer instrumentation skews the cost of table loads vs. intrinsics vs.
// plain loops arbitrarily (slicing-by-8 can measure *slower* than the
// byte-wise reference under ASan), so the speedup-ratio gates only hold in
// uninstrumented builds. The sanitizer CI leg still runs this bench for its
// memory coverage of the CRC kernels and the serializer; it just skips the
// ratio thresholds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GEMINI_BENCH_INSTRUMENTED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GEMINI_BENCH_INSTRUMENTED 1
#endif
#endif

namespace gemini {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRounds = 7;
// Minimum wall-clock time per leg per round; the leg repeats its pass until
// the timer has run this long.
constexpr double kLegSeconds = 0.04;

// Throughput of `pass`, which pushes `bytes_per_pass` bytes, after one
// warm-up pass (faults in buffers and tables, refills caches the previous leg
// evicted).
template <typename Pass>
double MbPerSec(size_t bytes_per_pass, Pass&& pass) {
  pass();
  const auto start = Clock::now();
  size_t passes = 0;
  double elapsed = 0.0;
  do {
    pass();
    ++passes;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < kLegSeconds);
  return static_cast<double>(passes) * static_cast<double>(bytes_per_pass) / elapsed / 1e6;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// One gated ratio: its per-round samples, threshold and whether it applies
// on this host and build.
struct RatioGate {
  std::string key;
  double threshold;
  bool applies;
  std::vector<double> rounds;

  bool Pass() const { return !applies || Median(rounds) >= threshold; }
};

}  // namespace
}  // namespace gemini

int main() {
  using gemini::bench::BenchReporter;
  BenchReporter reporter("perf_datapath", "Checkpoint data-path wall-clock",
                         "harness perf trajectory (Section 5 data path)");

  const std::string crc_impl = gemini::Crc32ImplementationName();
  const bool hw_active = crc_impl != "slicing-by-8";
  std::cout << "active CRC implementation: " << crc_impl << "\n";
  reporter.Metric("crc.hw_active", static_cast<int64_t>(hw_active ? 1 : 0));

  // CRC throughput over a buffer large enough to defeat caches of the lookup
  // tables' surroundings.
  std::vector<uint8_t> crc_buffer(8 << 20);
  gemini::Rng crc_rng(0x63726331ULL);
  for (auto& byte : crc_buffer) {
    byte = static_cast<uint8_t>(crc_rng.UniformInt(0, 255));
  }
  uint32_t crc_sink = 0;
  const auto crc_mb_s = [&](gemini::Crc32UpdateFn kernel) {
    return gemini::MbPerSec(crc_buffer.size(), [&] {
      crc_sink = kernel(crc_sink, crc_buffer.data(), crc_buffer.size());
    });
  };

  // Serialize+CRC end to end: the bytes a disk-backed shard write pushes
  // through SerializeCheckpointShared, inline versus handed a small pool. The
  // 16 MiB blob sits below the serializer's bytes-per-worker floor, so the
  // pooled call must take the inline path: the earlier fan-out-always version
  // measured the parallel leg *slower* than serial at this size.
  constexpr size_t kPayloadFloats = 4 << 20;
  gemini::Checkpoint checkpoint;
  checkpoint.owner_rank = 0;
  checkpoint.iteration = 1;
  checkpoint.logical_bytes = static_cast<gemini::Bytes>(kPayloadFloats * sizeof(float));
  std::vector<float> payload(kPayloadFloats);
  gemini::Rng payload_rng(0x5E71A112ULL);
  for (auto& value : payload) {
    value = static_cast<float>(payload_rng.NextDouble());
  }
  checkpoint.payload = std::move(payload);
  checkpoint.StampPayloadCrc();
  gemini::BlobPool blob_pool;
  gemini::ThreadPool workers(4);
  size_t blob_bytes =
      gemini::SerializeCheckpointShared(checkpoint, {nullptr, &blob_pool})->size();
  const auto serialize_mb_s = [&](gemini::ThreadPool* pool) {
    return gemini::MbPerSec(blob_bytes, [&] {
      blob_bytes = gemini::SerializeCheckpointShared(checkpoint, {pool, &blob_pool})->size();
    });
  };

  std::vector<double> active_mb_s;
  std::vector<double> slicing_mb_s;
  std::vector<double> bytewise_mb_s;
  std::vector<double> serial_mb_s;
  std::vector<double> parallel_mb_s;
#if defined(GEMINI_BENCH_INSTRUMENTED)
  const bool gated = false;  // Wall-clock ratios are meaningless under sanitizers.
#else
  const bool gated = true;
#endif
  // 0.9 leaves room for run-to-run noise; the pre-threshold regression sat
  // near 0.92 consistently, and with the inline path taken both legs run the
  // same code.
  std::vector<gemini::RatioGate> gates = {
      {"crc.speedup_vs_bytewise", 3.0, gated, {}},
      {"crc.hw_speedup_vs_slicing8", 2.0, gated && hw_active, {}},
      {"serialize.parallel4_vs_serial_ratio", 0.9, gated, {}},
  };
  for (int round = 0; round < gemini::kRounds; ++round) {
    active_mb_s.push_back(crc_mb_s(gemini::Crc32ActiveKernel()));
    slicing_mb_s.push_back(crc_mb_s(&gemini::Crc32UpdateSlicing8));
    bytewise_mb_s.push_back(crc_mb_s(&gemini::Crc32UpdateBytewise));
    serial_mb_s.push_back(serialize_mb_s(nullptr));
    parallel_mb_s.push_back(serialize_mb_s(&workers));
    gates[0].rounds.push_back(slicing_mb_s.back() / bytewise_mb_s.back());
    gates[1].rounds.push_back(active_mb_s.back() / slicing_mb_s.back());
    gates[2].rounds.push_back(parallel_mb_s.back() / serial_mb_s.back());
  }
  // Keep the checksum and blob size observable so the loops cannot be dropped.
  volatile uint32_t keep_crc = crc_sink;
  volatile size_t keep_blob = blob_bytes;
  (void)keep_crc;
  (void)keep_blob;

  reporter.Metric("crc.throughput_mb_s", gemini::Median(active_mb_s));
  reporter.Metric("crc.slicing8_mb_s", gemini::Median(slicing_mb_s));
  reporter.Metric("crc.bytewise_mb_s", gemini::Median(bytewise_mb_s));
  reporter.Metric("serialize.throughput_mb_s", gemini::Median(serial_mb_s));
  reporter.Metric("serialize.parallel4_throughput_mb_s", gemini::Median(parallel_mb_s));

  gemini::TablePrinter table({"ratio gate", "min", "median", "max", "threshold", "verdict"});
  bool gates_pass = true;
  for (const gemini::RatioGate& gate : gates) {
    const double median = gemini::Median(gate.rounds);
    reporter.Metric(gate.key, median);
    gates_pass &= gate.Pass();
    const auto [min, max] = std::minmax_element(gate.rounds.begin(), gate.rounds.end());
    table.AddRow({gate.key, gemini::TablePrinter::Fmt(*min), gemini::TablePrinter::Fmt(median),
                  gemini::TablePrinter::Fmt(*max),
                  ">= " + gemini::TablePrinter::Fmt(gate.threshold, 1),
                  !gate.applies ? "waived" : gate.Pass() ? "pass" : "FAIL"});
  }
  reporter.Table(table);

  reporter.ShapeCheck(
      gates_pass && gemini::Median(serial_mb_s) > 0.0,
      "slice-by-8 CRC is >= 3x the byte-at-a-time reference, hardware CRC (when dispatched) "
      "is >= 2x slicing-by-8, and a pooled serialize of a small blob is no slower than "
      "inline (bytes-per-worker floor); each gate reads the median of its per-round ratios, "
      "and the ratio gates are waived in sanitizer builds");
  return reporter.Finish();
}
