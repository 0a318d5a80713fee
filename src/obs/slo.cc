#include "obs/slo.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"
#include "obs/json_util.h"

namespace polydab::obs {

namespace {

/// Split on whitespace.
std::vector<std::string> Tokens(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) out.push_back(std::move(tok));
  return out;
}

Status BadRule(const std::string& rule, const std::string& why) {
  return Status::InvalidArgument("bad SLO rule \"" + rule + "\": " + why);
}

}  // namespace

const char* Name(SloOp op) { return NameFor<SloOp>(kSloOpNames, op); }

Result<std::vector<SloRule>> ParseSloRules(
    const std::string& text, const std::vector<std::string>& known_metrics) {
  std::vector<SloRule> rules;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t semi = text.find(';', pos);
    const std::string segment =
        text.substr(pos, semi == std::string::npos ? std::string::npos
                                                   : semi - pos);
    pos = semi == std::string::npos ? text.size() + 1 : semi + 1;

    const std::vector<std::string> toks = Tokens(segment);
    if (toks.empty()) continue;  // blank segment (e.g. a trailing ';')
    if (toks.size() < 3) {
      return BadRule(segment, "expected `metric op threshold [for N]`");
    }

    SloRule rule;
    rule.metric = toks[0];
    if (!known_metrics.empty()) {
      bool known = false;
      for (const std::string& name : known_metrics) {
        if (name == rule.metric) { known = true; break; }
      }
      if (!known) {
        std::string all;
        for (const std::string& name : known_metrics) {
          if (!all.empty()) all += ", ";
          all += name;
        }
        return BadRule(segment, "unknown metric \"" + rule.metric +
                                    "\" (known: " + all + ")");
      }
    }
    if (!ValueFor<SloOp>(kSloOpNames, toks[1], &rule.op)) {
      return BadRule(segment,
                     "unknown operator \"" + toks[1] + "\" (>, <, >=, <=)");
    }
    char* end = nullptr;
    rule.threshold = std::strtod(toks[2].c_str(), &end);
    if (end == toks[2].c_str() || *end != '\0' ||
        !std::isfinite(rule.threshold)) {
      return BadRule(segment, "threshold \"" + toks[2] +
                                  "\" is not a finite number");
    }
    if (toks.size() == 3) {
      rules.push_back(std::move(rule));
      continue;
    }
    if (toks.size() != 5 || toks[3] != "for") {
      return BadRule(segment, "trailing tokens (expected `for N` or nothing)");
    }
    const long n = std::strtol(toks[4].c_str(), &end, 10);
    if (end == toks[4].c_str() || *end != '\0' || n < 1) {
      return BadRule(segment,
                     "`for` count \"" + toks[4] + "\" must be an integer >= 1");
    }
    rule.windows = static_cast<int64_t>(n);
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::string CanonicalSloRules(const std::vector<SloRule>& rules) {
  std::string out;
  for (const SloRule& rule : rules) {
    if (!out.empty()) out += "; ";
    out += rule.metric;
    out += ' ';
    out += Name(rule.op);
    out += ' ';
    out += JsonNumber(rule.threshold);
    out += " for ";
    out += std::to_string(rule.windows);
  }
  return out;
}

bool SloBreach(const SloRule& rule, double value) {
  switch (rule.op) {
    case SloOp::kGt: return value > rule.threshold;
    case SloOp::kLt: return value < rule.threshold;
    case SloOp::kGe: return value >= rule.threshold;
    case SloOp::kLe: return value <= rule.threshold;
  }
  return false;
}

SloEngine::SloEngine(std::vector<SloRule> rules)
    : rules_(std::move(rules)),
      consecutive_(rules_.size(), 0),
      firing_(rules_.size(), 0) {}

void SloEngine::OnWindowClose(int64_t window, double end,
                              const std::vector<double>& values,
                              uint64_t cause, std::vector<SloAlert>* out) {
  POLYDAB_CHECK(values.size() == rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    SloAlert alert;
    alert.window = window;
    alert.time = end;
    alert.rule = static_cast<int32_t>(i);
    alert.value = values[i];
    alert.threshold = rule.threshold;
    alert.cause = cause;
    if (SloBreach(rule, values[i])) {
      ++consecutive_[i];
      if (firing_[i] == 0 && consecutive_[i] >= rule.windows) {
        firing_[i] = 1;
        alert.fire = true;
        alert.consecutive = consecutive_[i];
        out->push_back(alert);
      }
    } else {
      consecutive_[i] = 0;
      if (firing_[i] != 0) {
        firing_[i] = 0;
        alert.fire = false;
        alert.consecutive = 0;
        out->push_back(alert);
      }
    }
  }
}

}  // namespace polydab::obs
