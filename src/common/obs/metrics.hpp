// Process-wide observability flag.
//
// Nothing under src/ reads this flag: the library keeps its counts on the
// objects that own them (`PdnGrid::solve_stats`, `AgingPdn::stats`,
// `SystemSimulator::summary`) and emits events only through the JSONL
// trace (common/obs/trace.hpp). The flag stays so that callers which
// switch it (the repository benchmark's obs pricing) keep building;
// switching it changes no result and no cost.
#pragma once

namespace dh::obs {

/// Default on.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

}  // namespace dh::obs
