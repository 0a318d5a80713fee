#ifndef POLYDAB_OBS_SLO_H_
#define POLYDAB_OBS_SLO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/record.h"

/// \file slo.h
/// Declarative service-level objectives over the windowed series
/// (obs/timeseries.h). A rule is parsed from the one-line DSL
///
///     <metric> <op> <threshold> [for <N>]
///
/// e.g. `sim.fidelity.violation_rate > 0.01 for 3`: the rule *breaches*
/// in every window where the comparison holds, and *fires* at the close
/// of the N-th consecutive breaching window. A firing rule *resolves* at
/// the first non-breaching close. Multiple rules are ';'-separated.
/// Evaluation is pure arithmetic over the window values, so an offline
/// replay (obs/trace_check.h alerting mode) re-derives every fire and
/// resolve exactly.

namespace polydab::obs {

/// Comparison operator of a rule. Serialized as ">", "<", ">=", "<=".
enum class SloOp : uint8_t { kGt, kLt, kGe, kLe };

inline constexpr NameOf<SloOp> kSloOpNames[] = {
    {SloOp::kGt, ">"}, {SloOp::kLt, "<"}, {SloOp::kGe, ">="},
    {SloOp::kLe, "<="}};

/// Serialization name of \p op.
const char* Name(SloOp op);

/// One parsed rule. `windows` is the consecutive-breach count required
/// before the rule fires (the `for N` clause; 1 when omitted).
struct SloRule {
  std::string metric;
  SloOp op = SloOp::kGt;
  double threshold = 0.0;
  int64_t windows = 1;

  bool operator==(const SloRule&) const = default;

  /// The series file's `slo_rule` record (obs/record.h), after the
  /// rule's position under "index".
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("metric", s.metric);
    v("op", Named{s.op, kSloOpNames});
    v("threshold", s.threshold);
    v("windows", s.windows);
  }
};

/// Parse ';'-separated rules. Every metric name must appear in
/// \p known_metrics (pass an empty list to skip the check — used when
/// re-parsing a canonical string that was validated at authoring time).
/// Whitespace-only segments are skipped; anything else malformed —
/// unknown metric, unknown operator, non-finite threshold, `for` count
/// below 1, trailing tokens — is an InvalidArgument naming the rule.
Result<std::vector<SloRule>> ParseSloRules(
    const std::string& text, const std::vector<std::string>& known_metrics);

/// Canonical ';'-joined rendering (`metric op threshold for N`, threshold
/// in shortest-round-trip form). ParseSloRules inverts it exactly, which
/// is how rules travel inside a trace's `slo_rules` info key.
std::string CanonicalSloRules(const std::vector<SloRule>& rules);

/// Does \p value breach \p rule?
bool SloBreach(const SloRule& rule, double value);

/// One fire/resolve transition, produced at a window close.
struct SloAlert {
  int64_t window = 0;      ///< index of the closing window
  double time = 0.0;       ///< the window's end (simulated seconds)
  int32_t rule = 0;        ///< index into the rule list
  bool fire = false;       ///< true: started firing; false: resolved
  double value = 0.0;      ///< the observed metric value at the close
  double threshold = 0.0;  ///< the rule threshold
  int64_t consecutive = 0; ///< breaching windows behind a fire (0: resolve)
  uint64_t cause = 0;      ///< last event folded before the close (0: none)

  bool operator==(const SloAlert&) const = default;

  /// The series file's `alert` record (obs/record.h).
  template <class S, class V>
  static void Fields(S& s, V& v) {
    static constexpr NameOf<bool> kStates[] = {{true, "fire"},
                                               {false, "resolve"}};
    v("index", s.window);
    v("t", s.time);
    v("rule", s.rule);
    v("state", Named{s.fire, kStates});
    v("value", s.value);
    v("threshold", s.threshold);
    v("consecutive", s.consecutive);
    v("cause", Omit{s.cause, 0});
  }
};

/// The online fire/resolve state machine: one consecutive-breach counter
/// and a firing bit per rule, advanced once per window close.
class SloEngine {
 public:
  explicit SloEngine(std::vector<SloRule> rules);

  const std::vector<SloRule>& rules() const { return rules_; }

  /// Evaluate every rule against its metric value for the closing window
  /// (`values[i]` belongs to `rules()[i]`) and append the resulting
  /// transitions to \p out. \p cause stamps the alerts' cause id.
  void OnWindowClose(int64_t window, double end,
                     const std::vector<double>& values, uint64_t cause,
                     std::vector<SloAlert>* out);

 private:
  std::vector<SloRule> rules_;
  std::vector<int64_t> consecutive_;
  std::vector<char> firing_;
};

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_SLO_H_
