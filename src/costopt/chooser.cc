#include "costopt/chooser.h"

#include <cstdio>

namespace cloudiq {
namespace costopt {
namespace {

std::string Cite(const char* verdict, const PlanEstimate& chosen,
                 const char* clause) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %s $%.6g, %.6gs predicted (%s)",
                verdict, chosen.name.c_str(), chosen.usd,
                chosen.latency_seconds, clause);
  return buf;
}

int CheapestOf(const std::vector<PlanEstimate>& candidates,
               const std::vector<int>& pool) {
  int best = pool.front();
  for (int i : pool) {
    const PlanEstimate& c = candidates[i];
    const PlanEstimate& b = candidates[best];
    if (c.usd < b.usd ||
        (c.usd == b.usd && c.latency_seconds < b.latency_seconds)) {
      best = i;
    }
  }
  return best;
}

int FastestOf(const std::vector<PlanEstimate>& candidates,
              const std::vector<int>& pool) {
  int best = pool.front();
  for (int i : pool) {
    const PlanEstimate& c = candidates[i];
    const PlanEstimate& b = candidates[best];
    if (c.latency_seconds < b.latency_seconds ||
        (c.latency_seconds == b.latency_seconds && c.usd < b.usd)) {
      best = i;
    }
  }
  return best;
}

}  // namespace

const char* PolicyName(PlanPolicy policy) {
  switch (policy) {
    case PlanPolicy::kMinCostUnderSlo: return "min_cost_under_slo";
    case PlanPolicy::kMinLatencyUnderBudget:
      return "min_latency_under_budget";
  }
  return "?";
}

PlanChoice ChoosePlan(const std::vector<PlanEstimate>& candidates,
                      PlanPolicy policy, double slo_seconds,
                      double budget_left_usd) {
  PlanChoice choice;
  std::vector<int> all;
  all.reserve(candidates.size());
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    all.push_back(i);
  }
  switch (policy) {
    case PlanPolicy::kMinCostUnderSlo: {
      std::vector<int> fits;
      for (int i : all) {
        if (slo_seconds <= 0 ||
            candidates[i].latency_seconds <= slo_seconds) {
          fits.push_back(i);
        }
      }
      if (fits.empty()) {
        choice.index = FastestOf(candidates, all);
        choice.reason = Cite("min_cost_under_slo", candidates[choice.index],
                             "no candidate meets slo; fastest wins");
      } else {
        choice.index = CheapestOf(candidates, fits);
        choice.reason = Cite("min_cost_under_slo", candidates[choice.index],
                             "cheapest within slo");
      }
      return choice;
    }
    case PlanPolicy::kMinLatencyUnderBudget: {
      std::vector<int> fits;
      for (int i : all) {
        if (budget_left_usd < 0 || candidates[i].usd <= budget_left_usd) {
          fits.push_back(i);
        }
      }
      if (fits.empty()) {
        choice.index = CheapestOf(candidates, all);
        choice.reason =
            Cite("min_latency_under_budget", candidates[choice.index],
                 "no candidate fits budget; cheapest wins");
      } else {
        choice.index = FastestOf(candidates, fits);
        choice.reason =
            Cite("min_latency_under_budget", candidates[choice.index],
                 "fastest within budget");
      }
      return choice;
    }
  }
  return choice;
}

}  // namespace costopt
}  // namespace cloudiq
