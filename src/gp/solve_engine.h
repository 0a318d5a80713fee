#ifndef POLYDAB_GP_SOLVE_ENGINE_H_
#define POLYDAB_GP_SOLVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "gp/gp_solver.h"
#include "gp/posynomial.h"
#include "gp/solver_internal.h"
#include "obs/metrics.h"

/// \file solve_engine.h
/// Memoizing solve server for the recompute hot path (docs/SOLVER.md).
/// One refresh service produces many small per-EQI-component GPs; the
/// engine exploits two regularities the per-call `SolveGp` entry point
/// cannot see:
///
///  1. **Shape sharing.** Each shape signature (num_vars +
///     constraint/term sparsity pattern) owns pooled `ConvexGp`
///     skeletons in SoA layout plus a solver workspace (Newton system,
///     softmax scratch), so a memo miss on a shape seen before reuses
///     its buffers with an incremental coefficient refill — a term whose
///     coefficient bits did not change since the previous program (the
///     usual case when a single item escaped) keeps its cached logarithm.
///
///  2. **Memoization.** Recent solutions live in an LRU keyed by a 64-bit
///     digest of the program, warm-start and solver-option bits. A hit is
///     only declared after verifying bitwise equality of all inputs, so
///     the returned solution is bit-for-bit what re-running the
///     deterministic solver would produce. EQI-equivalent queries across
///     users produce bitwise-identical programs, which is where the hit
///     rate comes from.
///
/// Both levers preserve byte-identity of every result, metric and trace
/// against the engine-off oracle (`tests/solve_engine_diff_test.cc`); on a
/// cache hit the engine replays the solve's `gp.solver.*` stats so the
/// telemetry totals match an engine-less run exactly. The engine is
/// thread-safe: `rt::BatchPool` workers share one instance, with the
/// actual Newton work running outside the lock.

namespace polydab::gp {

class SolveEngine {
 public:
  struct Options {
    /// LRU memo capacity in entries; 0 disables memoization (the engine
    /// then still shares structure skeletons and workspaces).
    int cache_entries = 0;
    /// Optional sink for the `gp.engine.*` instruments: cache hit/miss
    /// counters, warm vs cold Newton-iteration histograms, structure
    /// reuse and skipped-log counters. Not owned.
    obs::MetricRegistry* registry = nullptr;
  };

  explicit SolveEngine(const Options& options);
  ~SolveEngine();

  SolveEngine(const SolveEngine&) = delete;
  SolveEngine& operator=(const SolveEngine&) = delete;

  /// Drop-in replacement for `SolveGp` (which delegates here when
  /// `SolverOptions::engine` is set): bit-identical result, identical
  /// `gp.solver.*` instrument totals on `options.registry`.
  Result<GpSolution> Solve(const GpProblem& problem,
                           const SolverOptions& options,
                           const Vector* warm_start);

  /// Telemetry snapshots (also mirrored to `gp.engine.*` instruments).
  /// Deterministic for serial callers; under concurrent callers the
  /// hit/miss split depends on scheduling even though every returned
  /// solution does not.
  int64_t cache_hits() const { return hits_.load(); }
  int64_t cache_misses() const { return misses_.load(); }
  int64_t structure_reuses() const { return structure_reuses_.load(); }
  int64_t coef_log_skips() const { return coef_log_skips_.load(); }

 private:
  struct StructEntry;
  struct CacheEntry;

  StructEntry* AcquireStruct(uint64_t signature);
  void ReleaseStruct(StructEntry* entry);

  Options opts_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> structure_reuses_{0};
  std::atomic<int64_t> coef_log_skips_{0};

  std::mutex pool_mutex_;
  std::unordered_map<uint64_t, std::vector<std::unique_ptr<StructEntry>>>
      pool_;

  std::mutex cache_mutex_;
  std::list<CacheEntry> lru_;  ///< front = most recent
  std::unordered_multimap<uint64_t, std::list<CacheEntry>::iterator>
      cache_index_;
};

}  // namespace polydab::gp

#endif  // POLYDAB_GP_SOLVE_ENGINE_H_
