#include "machine/cost_model.hpp"

namespace capsp {

CostReport CostReport::aggregate(const std::vector<RankCost>& ranks) {
  CostReport report;
  for (const auto& rank : ranks) {
    const CostClock& measured = rank.measured_clock();
    report.critical_latency =
        std::max(report.critical_latency, measured.latency);
    report.critical_bandwidth =
        std::max(report.critical_bandwidth, measured.words);
    std::int64_t rank_messages = 0, rank_words = 0;
    for (const auto& [phase, volume] : rank.volume_by_phase) {
      report.phase_total[phase] += volume;
      auto& peak = report.phase_max_rank[phase];
      peak.messages = std::max(peak.messages, volume.messages);
      peak.words = std::max(peak.words, volume.words);
      rank_messages += volume.messages;
      rank_words += volume.words;
    }
    for (const auto& [phase, volume] : rank.pre_reset_volume_by_phase) {
      report.setup_phase_total[phase] += volume;
      report.setup_messages += volume.messages;
      report.setup_words += volume.words;
    }
    report.total_messages += rank_messages;
    report.total_words += rank_words;
    report.max_rank_messages =
        std::max(report.max_rank_messages, rank_messages);
    report.max_rank_words = std::max(report.max_rank_words, rank_words);
  }
  return report;
}

}  // namespace capsp
