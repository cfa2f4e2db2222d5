#include "sched/population.hpp"

#include <algorithm>

#include "common/ckpt/serialize.hpp"
#include "common/ckpt/snapshot.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace dh::sched {

namespace {

constexpr const char* kMemberKind = "population_member";
constexpr const char* kManifestKind = "population_manifest";

std::string member_path(const std::string& dir, std::size_t index) {
  return dir + "/member_" + std::to_string(index) + ".dhck";
}

void save_summary(ckpt::Serializer& s, const SystemSummary& m) {
  s.begin_section("SSUM");
  s.write_f64(m.guardband_fraction);
  s.write_f64(m.final_degradation);
  s.write_f64(m.time_to_failure.value());
  s.write_f64(m.mean_throughput);
  s.write_f64(m.availability);
  s.write_f64(m.energy_joules);
  s.write_f64(m.mean_temperature_c);
  s.write_u64(m.recovery_quanta);
  s.write_f64(m.pdn_stats.worst_drop_v);
  s.write_f64(m.pdn_stats.max_void_len_m);
  s.write_u64(m.pdn_stats.nucleated_segments);
  s.write_u64(m.pdn_stats.broken_segments);
  s.write_u64(m.pdn_stats.immortal_segments);
  s.write_u64(m.pdn_stats.solver_factorizations);
  s.write_u64(m.pdn_stats.solver_cg_iterations);
}

SystemSummary load_summary(ckpt::Deserializer& d) {
  d.expect_section("SSUM");
  SystemSummary m;
  m.guardband_fraction = d.read_f64();
  m.final_degradation = d.read_f64();
  m.time_to_failure = Seconds{d.read_f64()};
  m.mean_throughput = d.read_f64();
  m.availability = d.read_f64();
  m.energy_joules = d.read_f64();
  m.mean_temperature_c = d.read_f64();
  m.recovery_quanta = static_cast<std::size_t>(d.read_u64());
  m.pdn_stats.worst_drop_v = d.read_f64();
  m.pdn_stats.max_void_len_m = d.read_f64();
  m.pdn_stats.nucleated_segments = static_cast<std::size_t>(d.read_u64());
  m.pdn_stats.broken_segments = static_cast<std::size_t>(d.read_u64());
  m.pdn_stats.immortal_segments = static_cast<std::size_t>(d.read_u64());
  m.pdn_stats.solver_factorizations =
      static_cast<std::size_t>(d.read_u64());
  m.pdn_stats.solver_cg_iterations =
      static_cast<std::size_t>(d.read_u64());
  return m;
}

/// Validate the sweep manifest against this call's arguments, writing it
/// on first use. The manifest is what stops `--resume` runs from quietly
/// mixing two different sweeps in one directory.
void check_or_write_manifest(const std::string& dir, const SystemParams& base,
                             std::size_t count, Seconds lifetime) {
  const std::string path = dir + "/manifest.dhck";
  if (ckpt::snapshot_valid(path, kManifestKind)) {
    ckpt::Deserializer d{ckpt::read_snapshot(path, kManifestKind)};
    d.expect_section("PMAN");
    const std::uint64_t m_count = d.read_u64();
    const double m_lifetime = d.read_f64();
    const std::uint64_t m_seed = d.read_u64();
    if (m_count != count || m_lifetime != lifetime.value() ||
        m_seed != base.seed) {
      throw Error("population resume directory '" + dir +
                  "' belongs to a different sweep (manifest: " +
                  std::to_string(m_count) + " members, seed " +
                  std::to_string(m_seed) + ") — use a fresh directory");
    }
    return;
  }
  ckpt::Serializer s;
  s.begin_section("PMAN");
  s.write_u64(count);
  s.write_f64(lifetime.value());
  s.write_u64(base.seed);
  ckpt::write_snapshot(path, kManifestKind, s.buffer());
}

/// Load member `index`'s persisted summary if it exists and matches this
/// sweep; nullopt-style via the `ok` flag (corrupt files read as absent).
bool try_load_member(const std::string& dir, std::size_t index,
                     std::uint64_t member_seed, Seconds lifetime,
                     SystemSummary& out) {
  const std::string path = member_path(dir, index);
  if (!ckpt::snapshot_valid(path, kMemberKind)) return false;
  try {
    ckpt::Deserializer d{ckpt::read_snapshot(path, kMemberKind)};
    d.expect_section("PMEM");
    if (d.read_u64() != index) return false;
    if (d.read_u64() != member_seed) return false;
    if (d.read_f64() != lifetime.value()) return false;
    out = load_summary(d);
    return d.exhausted();
  } catch (const Error&) {
    return false;
  }
}

}  // namespace

std::vector<SystemSummary> run_population(const SystemParams& base,
                                          std::size_t count,
                                          Seconds lifetime,
                                          const PolicyFactory& make_policy) {
  DH_REQUIRE(count >= 1, "population needs at least one member");
  DH_REQUIRE(make_policy != nullptr, "a policy factory is required");
  return parallel_map(count, [&](std::size_t i) {
    SystemParams p = base;
    p.seed = Rng::stream_seed(base.seed, i);
    SystemSimulator sim{p, make_policy(i)};
    sim.run(lifetime);
    return sim.summary();
  });
}

std::vector<SystemSummary> run_population(const SystemParams& base,
                                          std::size_t count,
                                          Seconds lifetime,
                                          const PolicyFactory& make_policy,
                                          const std::string& resume_dir) {
  DH_REQUIRE(count >= 1, "population needs at least one member");
  DH_REQUIRE(make_policy != nullptr, "a policy factory is required");
  DH_REQUIRE(!resume_dir.empty(), "resume directory must be non-empty");
  check_or_write_manifest(resume_dir, base, count, lifetime);
  return parallel_map(count, [&](std::size_t i) {
    const std::uint64_t member_seed = Rng::stream_seed(base.seed, i);
    SystemSummary summary;
    if (try_load_member(resume_dir, i, member_seed, lifetime, summary)) {
      return summary;
    }
    SystemParams p = base;
    p.seed = member_seed;
    SystemSimulator sim{p, make_policy(i)};
    sim.run(lifetime);
    summary = sim.summary();
    // Persist the moment the member finishes: each file is written
    // atomically under its own name, so concurrent members never contend
    // and a crash can only lose in-flight members.
    ckpt::Serializer s;
    s.begin_section("PMEM");
    s.write_u64(i);
    s.write_u64(member_seed);
    s.write_f64(lifetime.value());
    save_summary(s, summary);
    ckpt::write_snapshot(member_path(resume_dir, i), kMemberKind,
                         s.buffer());
    return summary;
  });
}

std::vector<bool> population_completion(const std::string& dir,
                                        std::size_t count) {
  std::vector<bool> done(count, false);
  for (std::size_t i = 0; i < count; ++i) {
    done[i] = ckpt::snapshot_valid(member_path(dir, i), kMemberKind);
  }
  return done;
}

PopulationAggregates aggregate_population(
    std::span<const SystemSummary> members) {
  PopulationAggregates agg;
  agg.members = members.size();
  if (members.empty()) return agg;
  std::vector<double> ttf;
  agg.min_availability = members.front().availability;
  for (const auto& m : members) {
    if (m.time_to_failure.value() >= 0.0) {
      ++agg.failed;
      ttf.push_back(m.time_to_failure.value());
    }
    agg.mean_guardband += m.guardband_fraction;
    agg.worst_guardband =
        std::max(agg.worst_guardband, m.guardband_fraction);
    agg.mean_availability += m.availability;
    agg.min_availability = std::min(agg.min_availability, m.availability);
  }
  const double n = static_cast<double>(members.size());
  agg.failed_fraction = static_cast<double>(agg.failed) / n;
  agg.mean_guardband /= n;
  agg.mean_availability /= n;
  if (!ttf.empty()) {
    agg.ttf_p50_s = stats::median(ttf);
    if (static_cast<double>(ttf.size()) * 0.01 >= 1.0) {
      agg.ttf_p1_s = stats::percentile(ttf, 0.01);
    }
  }
  return agg;
}

}  // namespace dh::sched
