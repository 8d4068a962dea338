// Policy comparison: one paper workload across all four power-saving
// mechanisms, with and without the compiler-directed scheme — the core
// result of the paper (Figs. 12(c)/(d), 13(a)/(b)) on a single application.
//
//   $ ./examples/policy_comparison [app] [scale]
//   e.g. ./examples/policy_comparison madbench2 0.5
#include <cstdio>
#include <string>

#include "driver/experiment.h"
#include "util/parse.h"
#include "util/table.h"

using namespace dasched;

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "sar";
  const double factor =
      argc > 2 ? parse_double_or_die("scale", argv[2]) : 0.5;

  ExperimentConfig base;
  base.app = app;
  base.scale.factor = factor;
  base.scale.num_processes = 24;

  std::printf("== %s: %s ==\n", app.c_str(),
              app_by_name(app).description.c_str());
  std::printf("running the Default Scheme baseline...\n");
  const ExperimentResult baseline = run_experiment(base);
  std::printf("baseline: %.2f simulated minutes, %.1f kJ disk energy\n\n",
              baseline.exec_minutes(), baseline.energy_j.value() / 1'000.0);

  TextTable table({"policy", "scheme", "energy vs default", "exec change",
                   "spin-downs", "RPM changes", "buffer hits"});
  for (PolicyKind kind :
       {PolicyKind::kSimple, PolicyKind::kPrediction, PolicyKind::kHistory,
        PolicyKind::kStaggered}) {
    for (bool scheme : {false, true}) {
      ExperimentConfig cfg = base;
      cfg.policy = kind;
      cfg.use_scheme = scheme;
      const ExperimentResult r = run_experiment(cfg);
      table.add_row({to_string(kind), scheme ? "yes" : "no",
                     TextTable::pct(normalized_energy(r, baseline)),
                     TextTable::pct(degradation(r, baseline)),
                     std::to_string(r.storage.spin_downs),
                     std::to_string(r.storage.rpm_changes),
                     std::to_string(r.runtime.buffer_hits)});
    }
  }
  table.print();
  std::printf(
      "\nExpected shape (paper): history-based saves most; the scheme\n"
      "increases every policy's savings and reduces its degradation.\n");
  return 0;
}
