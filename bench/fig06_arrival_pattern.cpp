// Fig. 6: the spiky task-arrival pattern.  Prints the per-type arrival rate
// over time (bucketed counts) for four task types, the same series the
// figure plots, plus the underlying piecewise-constant rate profile.  The
// arrival configuration comes from scenarios/fig06_arrival_pattern.json;
// this binary only buckets and renders.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "workload/arrival.h"

int main(int argc, char** argv) {
  using namespace hcs;
  const bench::Scenario run = bench::Scenario::load(
      argc, argv, "fig06_arrival_pattern.json",
      {"pet", "run.scale", "run.seed", "workload.rate", "workload.spikes",
       "workload.spike_factor", "workload.gap_variance_fraction"});
  const exp::BoundScenario bound = exp::bindScenario(run.spec);
  run.printHeader("Fig. 6",
                  "Spiky arrival pattern: per-type arrival rate vs time "
                  "(4 of 12 task types shown, as in the paper).");

  const workload::ArrivalSpec& spec = bound.experiment.arrival;
  prob::Rng rng(run.spec.experiment.baseSeed);
  const auto arrivals = workload::generateArrivals(spec, rng);

  constexpr int kBuckets = 40;
  constexpr int kTypesShown = 4;
  const double bucketWidth = spec.span / kBuckets;
  std::vector<std::vector<int>> counts(
      kTypesShown, std::vector<int>(kBuckets, 0));
  for (const auto& a : arrivals) {
    if (a.type >= kTypesShown) continue;
    const int b = std::min(static_cast<int>(a.time / bucketWidth),
                           kBuckets - 1);
    ++counts[static_cast<std::size_t>(a.type)][static_cast<std::size_t>(b)];
  }

  exp::Table table({"time", "rate_type0", "rate_type1", "rate_type2",
                    "rate_type3", "profile_rate_per_type"});
  const auto profile = workload::RateProfile::spiky(
      spec.span, static_cast<double>(spec.totalTasks) / spec.numTaskTypes,
      spec.numSpikes, spec.spikeFactor);
  for (int b = 0; b < kBuckets; ++b) {
    const double t = (b + 0.5) * bucketWidth;
    std::vector<std::string> row = {exp::formatValue(t, 1)};
    for (int k = 0; k < kTypesShown; ++k) {
      row.push_back(exp::formatValue(
          counts[static_cast<std::size_t>(k)][static_cast<std::size_t>(b)] /
              bucketWidth,
          3));
    }
    row.push_back(exp::formatValue(profile.rateAt(t), 3));
    table.addRow(std::move(row));
  }
  run.emit(table);

  if (!run.csv) {
    std::printf(
        "\nExpected shape: rate alternates between a lull and spikes of "
        "%gx the lull rate;\neach spike lasts 1/3 of the lull period "
        "(paper Section V-B).\n",
        spec.spikeFactor);
  }
  return 0;
}
