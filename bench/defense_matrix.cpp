// Defense matrix: every attack kind in the zoo crossed with every defense
// configuration (and dependability level L for the inner-circle family),
// each cell a full AODV scenario run whose coverage ledger is audited — a
// cell with an inconsistent ledger fails the whole bench, so the matrix
// doubles as a correctness gate over the attack/defense machinery.
//
// Per cell the bench reports:
//   detection_rate  detected' / injected across all fault classes
//   delivery        CBR packets received / sent
//   overhead        routing control packets sent (RREQ + RREP)
//   energy_j        mean per-node energy
//   injected / detected / neutralized / escaped   raw ledger sums
//
// Environment knobs:
//   ICC_DEFENSE_NODES        nodes per world (default 24)
//   ICC_DEFENSE_TIME         simulated seconds per cell (default 30)
//   ICC_DEFENSE_CONNECTIONS  CBR connections (default 4)
//   ICC_DEFENSE_SEED         base seed (default 7); each cell derives its own
//   ICC_DEFENSE_ATTACKS      comma list of attack kinds (strict: an unknown
//                            name aborts and prints the registry)
//   ICC_DEFENSE_LEVELS       comma list of L values for the icc defenses
//                            (default "1,2")
//   ICC_JSON                 write the matrix as a RunReport
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "aodv/blackhole_experiment.hpp"
#include "exp/env.hpp"
#include "exp/report.hpp"
#include "exp/seed.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "sim/report.hpp"

namespace {

using icc::fault::AttackKind;

/// Builds the canonical plan for one attack kind: attacker ids are the
/// lowest node ids and num_malicious steers the CBR endpoints clear of
/// them, so every cell measures the network under attack rather than a
/// flow that begins or ends inside the attacker.
bool make_attack(AttackKind kind, icc::fault::FaultPlan& plan, int& num_malicious) {
  using namespace icc::fault;
  switch (kind) {
    case AttackKind::kBlackHole:
      plan.protocol.push_back(black_hole(0));
      num_malicious = 1;
      return true;
    case AttackKind::kGrayHole:
      plan.protocol.push_back(gray_hole(0, 3.0, 3.0));
      num_malicious = 1;
      return true;
    case AttackKind::kSelectiveForward: {
      ProtocolFault f;
      f.node = 0;
      f.drop_prob = 0.5;
      plan.protocol.push_back(f);
      num_malicious = 1;
      return true;
    }
    case AttackKind::kDataDelay: {
      ProtocolFault f;
      f.node = 0;
      f.seq_inflation = 1'000'000;
      f.delay_s = 0.5;
      plan.protocol.push_back(f);
      num_malicious = 1;
      return true;
    }
    case AttackKind::kRrepReplay: {
      ProtocolFault f;
      f.node = 0;
      f.replay_interval_s = 1.0;
      plan.protocol.push_back(f);
      num_malicious = 1;
      return true;
    }
    case AttackKind::kRreqFlood: {
      ProtocolFault f;
      f.node = 0;
      f.flood_interval_s = 0.5;
      plan.protocol.push_back(f);
      num_malicious = 1;
      return true;
    }
    case AttackKind::kCoopBlackhole: {
      auto [attract, drop] = coop_blackhole_pair(0, 1);
      plan.protocol.push_back(attract);
      plan.protocol.push_back(drop);
      num_malicious = 2;
      return true;
    }
    case AttackKind::kRrepForgeSeq:
      plan.protocol.push_back(rrep_forge_seq(0));
      num_malicious = 1;
      return true;
    case AttackKind::kRrepForgeNextHop:
      plan.protocol.push_back(rrep_forge_next_hop(0));
      num_malicious = 1;
      return true;
    case AttackKind::kRushedRrep:
      plan.protocol.push_back(rushed_rrep(0));
      num_malicious = 1;
      return true;
    case AttackKind::kWormhole:
      plan.wormhole.push_back(wormhole(0, 1));
      num_malicious = 2;  // colluding radios, not CBR endpoints
      return true;
    case AttackKind::kNoise:
      plan.channel.push_back(adversarial_noise(0.15, 0.25));
      num_malicious = 0;
      return true;
    case AttackKind::kCount:
      break;
  }
  return false;
}

struct Defense {
  const char* name;
  bool watchdog;
  bool inner_circle;
  bool hardened;  ///< AODVSEC verification + suspicion escalation + geo leash
};

constexpr std::array<Defense, 4> kDefenses{{
    {"none", false, false, false},
    {"watchdog", true, false, false},
    {"icc", false, true, false},
    {"icc_sec", false, true, true},
}};

[[noreturn]] void bad_attack_name(const std::string& name) {
  std::fprintf(stderr, "defense_matrix: unknown attack kind '%s'; valid kinds:\n",
               name.c_str());
  for (std::size_t k = 0; k < icc::fault::kNumAttackKinds; ++k) {
    std::fprintf(stderr, "  %s\n",
                 icc::fault::attack_kind_name(static_cast<AttackKind>(k)));
  }
  std::abort();
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main() {
  const int nodes = icc::exp::env_int("ICC_DEFENSE_NODES", 24);
  const double sim_time = icc::exp::env_double("ICC_DEFENSE_TIME", 30.0);
  const int connections = icc::exp::env_int("ICC_DEFENSE_CONNECTIONS", 4);
  const std::uint64_t base_seed = icc::exp::env_u64("ICC_DEFENSE_SEED", 7);

  std::vector<AttackKind> attacks;
  const std::string attack_csv = icc::exp::env_string(
      "ICC_DEFENSE_ATTACKS",
      "black_hole,coop_blackhole,rrep_forge_seq,rrep_forge_next_hop,rushed_rrep,"
      "wormhole,noise");
  for (const std::string& name : split_csv(attack_csv)) {
    const auto kind = icc::fault::parse_attack_kind(name);
    if (!kind) bad_attack_name(name);
    attacks.push_back(*kind);
  }

  const std::vector<int> levels = icc::exp::env_int_list("ICC_DEFENSE_LEVELS", {1, 2});
  for (const int level : levels) {
    if (level < 1) {
      std::fprintf(stderr, "defense_matrix: ICC_DEFENSE_LEVELS has level %d; "
                           "the inner-circle dependability level L must be at least 1\n",
                   level);
      std::abort();
    }
  }

  std::printf("defense matrix: %zu attack(s) x %zu defense(s), %d nodes, %.0f s/cell\n\n",
              attacks.size(), kDefenses.size(), nodes, sim_time);
  std::printf("%-20s %-10s %3s %9s %9s %9s %9s %8s %8s %8s %8s\n", "attack", "defense",
              "L", "detect", "deliver", "overhead", "energy_j", "inj", "det", "neut",
              "esc");

  icc::sim::RunReport report;
  report.set_meta("experiment", "defense_matrix");
  report.set_meta("nodes", nodes);
  report.set_meta("sim_time_s", sim_time);
  report.set_meta("connections", connections);
  report.set_meta("seed", base_seed);

  bool all_consistent = true;
  std::uint64_t cell_index = 0;
  for (const AttackKind attack : attacks) {
    for (const Defense& defense : kDefenses) {
      // L only means something to the inner-circle family; the other
      // defenses get a single L=0 cell.
      const std::vector<int> cell_levels =
          defense.inner_circle ? levels : std::vector<int>{0};
      for (const int level : cell_levels) {
        icc::aodv::BlackholeExperimentConfig config;
        config.num_nodes = nodes;
        config.area = 500.0;
        config.tx_range = 175.0;
        config.num_connections = connections;
        config.rate_pps = 2.0;
        config.sim_time = sim_time;
        config.traffic_start = 2.0;
        config.watchdog = defense.watchdog;
        config.inner_circle = defense.inner_circle;
        config.aodvsec = defense.hardened;
        config.geo_leash = defense.hardened;
        config.level = std::max(level, 1);
        if (!make_attack(attack, config.plan, config.num_malicious)) {
          bad_attack_name(icc::fault::attack_kind_name(attack));
        }
        config.seed = icc::exp::derive_seed(base_seed, cell_index++, 0);

        const icc::aodv::BlackholeExperimentResult r =
            icc::aodv::run_blackhole_experiment(config);

        icc::fault::CoverageRow sum;
        for (const icc::fault::CoverageRow& row : r.coverage) sum += row;
        const double detection_rate =
            sum.injected > 0
                ? static_cast<double>(sum.detected) / static_cast<double>(sum.injected)
                : 0.0;
        all_consistent = all_consistent && r.coverage_consistent;

        std::printf("%-20s %-10s %3d %9.3f %9.3f %9llu %9.3f %8llu %8llu %8llu %8llu%s\n",
                    icc::fault::attack_kind_name(attack), defense.name, level,
                    detection_rate, r.throughput,
                    static_cast<unsigned long long>(r.control_packets), r.mean_energy_j,
                    static_cast<unsigned long long>(sum.injected),
                    static_cast<unsigned long long>(sum.detected),
                    static_cast<unsigned long long>(sum.neutralized),
                    static_cast<unsigned long long>(sum.escaped),
                    r.coverage_consistent ? "" : "  LEDGER-INCONSISTENT");

        std::string base = "cell.";
        base += icc::fault::attack_kind_name(attack);
        base += '.';
        base += defense.name;
        base += ".L" + std::to_string(level) + '.';
        report.add_gauge(base + "detection_rate", detection_rate);
        report.add_gauge(base + "delivery", r.throughput);
        report.add_gauge(base + "overhead", static_cast<double>(r.control_packets));
        report.add_gauge(base + "energy_j", r.mean_energy_j);
        report.add_gauge(base + "injected", static_cast<double>(sum.injected));
        report.add_gauge(base + "detected", static_cast<double>(sum.detected));
        report.add_gauge(base + "neutralized", static_cast<double>(sum.neutralized));
        report.add_gauge(base + "escaped", static_cast<double>(sum.escaped));
      }
    }
  }

  report.set_meta("ledger_consistent", static_cast<std::uint64_t>(all_consistent ? 1 : 0));
  icc::exp::write_report_from_env(report);

  if (!all_consistent) {
    std::printf("\nat least one cell FAILED the coverage-ledger invariant\n");
    return 1;
  }
  std::printf("\nall cells completed with a consistent coverage ledger\n");
  return 0;
}
