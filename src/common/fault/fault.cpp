#include "common/fault/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "common/error.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"

namespace dh::fault {

namespace {

constexpr std::uint64_t kDefaultSeed = 0xDEADF417ull;

struct Site {
  SiteSpec spec;
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> injected{0};
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Site>> sites;  // small; linear scan is fine
  std::uint64_t seed = kDefaultSeed;
  bool env_loaded = false;
};

std::atomic<bool> g_armed{false};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

/// FNV-1a over the site name, mixed with the seed — the per-site stream
/// base for the deterministic decision hash.
std::uint64_t site_hash(std::uint64_t seed, const std::string& site) {
  std::uint64_t h = 0xCBF29CE484222325ull ^ seed;
  for (const char c : site) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return detail::mix64(h);
}

Site* find_locked(Registry& r, const char* site) {
  for (const auto& s : r.sites) {
    if (s->spec.site == site) return s.get();
  }
  return nullptr;
}

void load_env_locked(Registry& r) {
  if (r.env_loaded) return;
  if (const char* seed_env = std::getenv("DH_FAULT_SEED")) {
    if (seed_env[0] != '\0') {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(seed_env, &end, 0);
      if (end == seed_env || *end != '\0') {
        throw Error(std::string("DH_FAULT_SEED='") + seed_env +
                    "' is not an integer");
      }
      r.seed = v;
    }
  }
  if (const char* spec = std::getenv("DH_FAULTS")) {
    if (spec[0] != '\0') {
      for (SiteSpec& s : parse_fault_spec(spec)) {
        auto site = std::make_unique<Site>();
        site->spec = std::move(s);
        r.sites.push_back(std::move(site));
      }
    }
  }
  r.env_loaded = true;
  g_armed.store(!r.sites.empty(), std::memory_order_relaxed);
}

/// One-time environment pickup, off the hot path. A malformed DH_FAULTS
/// throws from here on every probe until fixed — loud, catchable, and
/// never during static initialization.
std::atomic<bool> g_env_checked{false};

void ensure_env() {
  if (g_env_checked.load(std::memory_order_acquire)) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  load_env_locked(r);
  g_env_checked.store(true, std::memory_order_release);
}

}  // namespace

std::vector<SiteSpec> parse_fault_spec(const std::string& spec) {
  std::vector<SiteSpec> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;
    const std::size_t c1 = clause.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : clause.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        clause.find(':', c2 + 1) != std::string::npos) {
      throw Error("fault spec clause '" + clause +
                  "' malformed: expected site:prob:count");
    }
    SiteSpec s;
    s.site = clause.substr(0, c1);
    if (s.site.empty()) {
      throw Error("fault spec clause '" + clause + "' has an empty site name");
    }
    try {
      std::size_t used = 0;
      const std::string prob_str = clause.substr(c1 + 1, c2 - c1 - 1);
      s.probability = std::stod(prob_str, &used);
      if (used != prob_str.size()) throw std::invalid_argument(prob_str);
      const std::string count_str = clause.substr(c2 + 1);
      s.max_count = std::stoull(count_str, &used);
      if (used != count_str.size()) throw std::invalid_argument(count_str);
    } catch (const std::exception&) {
      throw Error("fault spec clause '" + clause +
                  "' malformed: prob must be a real, count an integer");
    }
    if (s.probability < 0.0 || s.probability > 1.0) {
      throw Error("fault spec clause '" + clause +
                  "': probability must be in [0,1]");
    }
    if (s.max_count == 0) {
      throw Error("fault spec clause '" + clause +
                  "': count must be positive (omit the site to disable it)");
    }
    out.push_back(std::move(s));
  }
  return out;
}

void configure(const std::string& spec) {
  std::vector<SiteSpec> parsed = parse_fault_spec(spec);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.env_loaded = true;  // explicit configuration overrides the environment
  g_env_checked.store(true, std::memory_order_release);
  r.sites.clear();
  for (SiteSpec& s : parsed) {
    auto site = std::make_unique<Site>();
    site->spec = std::move(s);
    r.sites.push_back(std::move(site));
  }
  g_armed.store(!r.sites.empty(), std::memory_order_relaxed);
}

void set_seed(std::uint64_t seed) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.env_loaded = true;
  g_env_checked.store(true, std::memory_order_release);
  r.seed = seed;
  for (const auto& s : r.sites) {
    s->attempts.store(0, std::memory_order_relaxed);
    s->injected.store(0, std::memory_order_relaxed);
  }
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.env_loaded = true;
  g_env_checked.store(true, std::memory_order_release);
  r.sites.clear();
  r.seed = kDefaultSeed;
  g_armed.store(false, std::memory_order_relaxed);
}

bool armed() noexcept {
  return g_armed.load(std::memory_order_relaxed);
}

namespace {

bool should_inject_impl(const char* site, bool emit_trace) {
  ensure_env();
  if (!g_armed.load(std::memory_order_relaxed)) return false;
  Registry& r = registry();
  std::uint64_t seed = 0;
  Site* s = nullptr;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    s = find_locked(r, site);
    seed = r.seed;
  }
  if (s == nullptr) return false;
  const std::uint64_t n = s->attempts.fetch_add(1, std::memory_order_relaxed);
  // Decision hash: uniform in [0,1) as a pure function of (seed, site, n).
  const std::uint64_t h =
      detail::mix64(site_hash(seed, s->spec.site) +
                    (n + 1) * detail::kGolden);
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // 53-bit mantissa
  if (u >= s->spec.probability) return false;
  // Enforce the cap exactly under concurrency: claim a slot, back out if
  // the cap was already reached.
  const std::uint64_t claimed =
      s->injected.fetch_add(1, std::memory_order_relaxed);
  if (claimed >= s->spec.max_count) {
    s->injected.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  if (emit_trace && obs::trace_enabled()) {
    obs::trace_event("fault", "inject",
                     {{"attempt", static_cast<double>(n)},
                      {"count", static_cast<double>(claimed + 1)}});
  }
  return true;
}

}  // namespace

bool should_inject(const char* site) {
  return should_inject_impl(site, /*emit_trace=*/true);
}

bool should_inject_untraced(const char* site) {
  return should_inject_impl(site, /*emit_trace=*/false);
}

std::uint64_t injection_count(const char* site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  load_env_locked(r);
  const Site* s = find_locked(r, site);
  return s == nullptr ? 0 : s->injected.load(std::memory_order_relaxed);
}

std::vector<SiteSpec> configured_sites() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  load_env_locked(r);
  std::vector<SiteSpec> out;
  out.reserve(r.sites.size());
  for (const auto& s : r.sites) out.push_back(s->spec);
  return out;
}

}  // namespace dh::fault
