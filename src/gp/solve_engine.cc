#include "gp/solve_engine.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace polydab::gp {

namespace {

/// Pooled skeletons kept per signature; beyond this the extras are freed.
/// Concurrency above this per-shape level is rare (it needs that many
/// rt workers solving the same shape at the same instant) and the
/// fallback is a fresh build, never a wrong answer.
constexpr size_t kMaxPooledPerSignature = 8;

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool PosyEquals(const Posynomial& a, const Posynomial& b) {
  return internal::SameBits(a.coefs(), b.coefs()) &&
         a.term_end() == b.term_end() && a.exp_vars() == b.exp_vars() &&
         internal::SameBits(a.exp_vals(), b.exp_vals());
}

bool ProblemEquals(const GpProblem& a, const GpProblem& b) {
  if (a.num_vars != b.num_vars) return false;
  if (!PosyEquals(a.objective, b.objective)) return false;
  if (a.constraints.size() != b.constraints.size()) return false;
  for (size_t i = 0; i < a.constraints.size(); ++i) {
    if (!PosyEquals(a.constraints[i], b.constraints[i])) return false;
  }
  return true;
}

bool WarmEquals(bool a_has, const Vector& a, bool b_has, const Vector& b) {
  return a_has == b_has && (!a_has || internal::SameBits(a, b));
}

bool NumericsEqual(const SolverOptions& a, const SolverOptions& b) {
  return SameBits(a.duality_tol, b.duality_tol) &&
         SameBits(a.inner_tol, b.inner_tol) && SameBits(a.t0, b.t0) &&
         SameBits(a.barrier_mu, b.barrier_mu) &&
         a.max_newton_per_stage == b.max_newton_per_stage &&
         a.max_outer == b.max_outer;
}

void MixPosy(const Posynomial& p, internal::WordHash* h) {
  h->MixDoubles(p.coefs());
  h->MixInts(p.term_end());
  h->MixInts(p.exp_vars());
  h->MixDoubles(p.exp_vals());
}

/// The memo key digest. This is the "quantized value-vector key" of
/// docs/SOLVER.md: the program coefficients are deterministic functions
/// of the coordinator's value vector, and the quantization grid is the
/// identity (full double bits) because any coarser grid would return a
/// neighbor's solution and break byte-identity. The digest only locates
/// the bucket; a hit still requires bitwise equality of every input.
uint64_t KeyHash(const GpProblem& problem, const SolverOptions& options,
                 const Vector* warm) {
  internal::WordHash h;
  h.MixInt(problem.num_vars);
  MixPosy(problem.objective, &h);
  for (const Posynomial& c : problem.constraints) {
    h.Mix(0x5eed5eed5eed5eedull);
    MixPosy(c, &h);
  }
  h.Mix(warm != nullptr ? 0x9e3779b97f4a7c15ull : 0ull);
  if (warm != nullptr) h.MixDoubles(*warm);
  h.MixDouble(options.duality_tol);
  h.MixDouble(options.inner_tol);
  h.MixDouble(options.t0);
  h.MixDouble(options.barrier_mu);
  h.MixInt(options.max_newton_per_stage);
  h.MixInt(options.max_outer);
  return h.value;
}

}  // namespace

struct SolveEngine::StructEntry {
  uint64_t signature = 0;
  bool built = false;
  internal::ConvexGp cg;
  internal::Workspace ws;
};

struct SolveEngine::CacheEntry {
  uint64_t key = 0;
  GpProblem problem;
  bool has_warm = false;
  Vector warm;
  SolverOptions numerics;  ///< registry/engine/record fields ignored
  /// Shared so a hit can copy the solution after releasing the lock, even
  /// if a concurrent insert evicts the entry meanwhile.
  std::shared_ptr<const GpSolution> solution;
  SolveStats stats;
};

SolveEngine::SolveEngine(const Options& options) : opts_(options) {}

SolveEngine::~SolveEngine() = default;

SolveEngine::StructEntry* SolveEngine::AcquireStruct(uint64_t signature) {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    auto it = pool_.find(signature);
    if (it != pool_.end() && !it->second.empty()) {
      StructEntry* e = it->second.back().release();
      it->second.pop_back();
      return e;
    }
  }
  auto* e = new StructEntry();
  e->signature = signature;
  return e;
}

void SolveEngine::ReleaseStruct(StructEntry* entry) {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  auto& vec = pool_[entry->signature];
  if (vec.size() >= kMaxPooledPerSignature) {
    delete entry;
    return;
  }
  vec.emplace_back(entry);
}

Result<GpSolution> SolveEngine::Solve(const GpProblem& problem,
                                      const SolverOptions& options,
                                      const Vector* warm_start) {
  SolverOptions inner = options;
  inner.engine = nullptr;
  inner.record = nullptr;
  obs::MetricRegistry* sreg = inner.registry;
  obs::ScopedTimer timer(
      sreg == nullptr ? nullptr
                      : sreg->GetHistogram("gp.solver.solve_seconds"));

  const uint64_t key = KeyHash(problem, inner, warm_start);
  if (opts_.cache_entries > 0) {
    std::shared_ptr<const GpSolution> hit;
    SolveStats stats;
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      auto range = cache_index_.equal_range(key);
      for (auto it = range.first; it != range.second; ++it) {
        CacheEntry& e = *it->second;
        if (ProblemEquals(e.problem, problem) &&
            WarmEquals(e.has_warm, e.warm, warm_start != nullptr,
                       warm_start != nullptr ? *warm_start : Vector()) &&
            NumericsEqual(e.numerics, inner)) {
          lru_.splice(lru_.begin(), lru_, it->second);
          hit = e.solution;
          stats = e.stats;
          break;
        }
      }
    }
    if (hit != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      GpSolution sol = *hit;
      timer.Stop();
      // Replay the memoized solve's gp.solver.* stats: the totals an
      // engine-less run would have recorded for this (identical,
      // deterministic) solve. A hit implies the warm-start presence
      // matched the entry's.
      const bool warm_started = warm_start != nullptr;
      internal::RecordSolveInstruments(sreg, stats, warm_started, true);
      if (options.record != nullptr) {
        *options.record = {true, warm_started, true, stats};
      }
      if (opts_.registry != nullptr) {
        opts_.registry->GetCounter("gp.engine.cache_hits")->Inc();
      }
      return sol;
    }
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.registry != nullptr) {
    opts_.registry->GetCounter("gp.engine.cache_misses")->Inc();
  }

  SolveStats stats;
  Result<GpSolution> result{Status::Internal("not solved")};
  Status valid = internal::ValidateGpProblem(problem);
  if (!valid.ok()) {
    result = valid;
  } else {
    const uint64_t sig = internal::ShapeSignature(problem);
    StructEntry* se = AcquireStruct(sig);
    if (se->built && se->signature == sig &&
        internal::StructureMatches(se->cg, problem)) {
      const int64_t skipped = internal::RefillCoefficients(problem, &se->cg);
      structure_reuses_.fetch_add(1, std::memory_order_relaxed);
      coef_log_skips_.fetch_add(skipped, std::memory_order_relaxed);
      if (opts_.registry != nullptr) {
        opts_.registry->GetCounter("gp.engine.structure_reuses")->Inc();
        opts_.registry->GetCounter("gp.engine.coef_log_skips")->Add(skipped);
      }
    } else {
      internal::BuildConvexGp(problem, &se->cg);
      se->signature = sig;
      se->built = true;
    }
    result = internal::SolveConvexGp(problem, se->cg, inner, warm_start,
                                     &stats, &se->ws);
    ReleaseStruct(se);
  }

  timer.Stop();
  internal::RecordSolveInstruments(sreg, stats, warm_start != nullptr,
                                   result.ok());
  if (options.record != nullptr) {
    *options.record = {true, warm_start != nullptr, result.ok(), stats};
  }
  if (opts_.registry != nullptr) {
    opts_.registry
        ->GetHistogram(stats.warm_feasible
                           ? "gp.engine.warm_newton_iterations"
                           : "gp.engine.cold_newton_iterations")
        ->Record(static_cast<double>(stats.newton_iterations));
  }

  if (result.ok() && opts_.cache_entries > 0) {
    // The entry (and its list node) is built before taking the lock and
    // spliced in; evicted nodes are spliced out into the same list and
    // freed after the lock is released.
    std::list<CacheEntry> node(1);
    CacheEntry& e = node.front();
    e.key = key;
    e.problem = problem;
    e.has_warm = warm_start != nullptr;
    if (warm_start != nullptr) e.warm = *warm_start;
    e.numerics = inner;
    e.solution = std::make_shared<const GpSolution>(*result);
    e.stats = stats;
    std::lock_guard<std::mutex> lock(cache_mutex_);
    lru_.splice(lru_.begin(), node);
    cache_index_.emplace(key, lru_.begin());
    while (lru_.size() > static_cast<size_t>(opts_.cache_entries)) {
      auto victim = std::prev(lru_.end());
      auto range = cache_index_.equal_range(victim->key);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == victim) {
          cache_index_.erase(it);
          break;
        }
      }
      node.splice(node.begin(), lru_, victim);
    }
  }
  return result;
}

}  // namespace polydab::gp
