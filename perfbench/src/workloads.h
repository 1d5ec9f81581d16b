// The benchmark's four workloads. Each one is run as a sequence of
// identical rounds built from the workload seed: build() makes one round's
// sessions and inputs (timed by the caller as a set-up sample), run()
// executes them and reports every session's outcome and output digest,
// teardown() releases them. A reference round (one worker, no faults, no
// pacing) gives the digests every timed round must reproduce.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "runtime/telemetry.h"

namespace perfbench {

struct SessionResult {
  std::uint64_t units = 0;
  bool ok = false;     ///< completed, not refused, failed or quarantined
  std::string digest;  ///< output CRCs and counts, compared to the reference
  const SessionProbe* probe = nullptr;
};

struct RoundResult {
  double wall_s = 0.0;  ///< timed span of the round
  std::vector<SessionResult> sessions;
};

struct WorkloadInfo {
  std::string name;
  double limit_ms = 0.0;       ///< fixed per-unit latency limit
  std::size_t traced_rounds = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const WorkloadInfo& info() const = 0;
  /// Build one round. `reference`: one worker, no faults, no pacing.
  /// `telemetry` (traced rounds only) is handed to engines, I/O contexts
  /// and fault injectors so the traced run can read their counters.
  virtual void build(bool reference, bool traced, mmsoc::Telemetry* telemetry) = 0;
  /// Run the built round; traced rounds fold their per-layer data into `layers`.
  virtual RoundResult run(Accum& layers) = 0;
  /// Append the spans of the last traced round.
  virtual void dump_spans(std::FILE* out) const = 0;
  virtual void teardown() = 0;
};

[[nodiscard]] std::vector<std::string> workload_names();
/// nullptr for an unknown name. `smoke` shrinks every size to a few units.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool smoke);

/// Direct timing of the dsp kernel table at the active SIMD level.
struct KernelTimes {
  double sad16_ns = 0.0, fdct8x8_ns = 0.0, idct8x8_ns = 0.0,
         quantize64_ns = 0.0;
  int simd_level = 0;
};
[[nodiscard]] KernelTimes time_kernels(std::uint64_t seed, bool smoke);

}  // namespace perfbench
