#include "common/obs/metrics.hpp"

#include <atomic>

namespace dh::obs {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace dh::obs
