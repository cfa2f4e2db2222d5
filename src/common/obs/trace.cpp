#include "common/obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "common/error.hpp"

namespace dh::obs {

struct JsonlTraceSink::Impl {
  std::ofstream out;
};

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : path_(path), impl_(std::make_unique<Impl>()) {
  impl_->out.open(path, std::ios::out | std::ios::trunc);
  if (!impl_->out) {
    throw Error("trace sink: cannot open '" + path +
                "' for writing (check DH_TRACE / directory permissions)");
  }
}

JsonlTraceSink::~JsonlTraceSink() {
  // Flush-on-destruction: the trace tail must survive normal process exit
  // without an explicit flush. A failed final flush must NOT propagate
  // from a destructor. The drop count dies with the sink, so any loss is
  // reported on stderr.
  try {
    if (impl_ && impl_->out.is_open()) {
      impl_->out.flush();
      if (!impl_->out) ++dropped_;
    }
  } catch (...) {
    ++dropped_;
  }
  if (dropped_ > 0) {
    std::fprintf(stderr, "trace sink: %llu record(s) dropped writing '%s'\n",
                 static_cast<unsigned long long>(dropped_), path_.c_str());
  }
}

namespace {

void append_number(std::string& line, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  line += buf;
}

}  // namespace

void JsonlTraceSink::write(const TraceEvent& event) {
  std::string line;
  line.reserve(96 + 24 * event.field_count);
  line += "{\"cat\":\"";
  line += event.category;
  line += "\",\"name\":\"";
  line += event.name;
  line += "\",\"t_wall_ms\":";
  append_number(line, event.wall_ms);
  if (event.has_sim_time) {
    line += ",\"t_sim_s\":";
    append_number(line, event.sim_time_s);
  }
  if (event.field_count > 0) {
    line += ",\"f\":{";
    for (std::size_t i = 0; i < event.field_count; ++i) {
      if (i > 0) line += ',';
      line += '"';
      line += event.fields[i].key;
      line += "\":";
      append_number(line, event.fields[i].value);
    }
    line += '}';
  }
  line += "}\n";
  impl_->out << line;
  if (!impl_->out) {
    ++dropped_;
    throw Error("trace sink: write to '" + path_ +
                "' failed (disk full or file closed)");
  }
}

void JsonlTraceSink::flush() {
  if (impl_->out.is_open()) {
    impl_->out.flush();
    if (!impl_->out) ++dropped_;
  }
}

namespace {

// Dispatcher state. `g_armed` is the single hot-path flag: true while a
// sink is installed OR DH_TRACE is set but not yet opened. Everything
// else sits behind the mutex, touched only while tracing is on.
std::atomic<bool> g_armed{false};
std::mutex g_mu;
std::unique_ptr<TraceSink> g_sink;          // guarded by g_mu
bool g_env_pending = false;                 // DH_TRACE seen, not opened
std::string g_env_path;                     // guarded by g_mu
std::chrono::steady_clock::time_point g_epoch;  // guarded by g_mu

// Recompute the hot-path flag from the full state (call under g_mu).
void rearm_locked() {
  g_armed.store(g_sink != nullptr || g_env_pending,
                std::memory_order_relaxed);
}

// Arm from the environment exactly once per process.
const bool g_env_init = [] {
  if (const char* env = std::getenv("DH_TRACE")) {
    if (env[0] != '\0') {
      std::lock_guard<std::mutex> lock(g_mu);
      g_env_path = env;
      g_env_pending = true;
      rearm_locked();
    }
  }
  return true;
}();

void emit(const char* category, const char* name, double sim_time_s,
          bool has_sim_time, std::initializer_list<TraceField> fields) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_env_pending) {
    // Lazy open so an unwritable DH_TRACE surfaces as a catchable
    // dh::Error at the first emission instead of aborting static init.
    g_env_pending = false;
    try {
      g_sink = std::make_unique<JsonlTraceSink>(g_env_path);
    } catch (...) {
      g_armed.store(false, std::memory_order_relaxed);
      throw;
    }
    g_epoch = std::chrono::steady_clock::now();
  }
  if (!g_sink) return;  // disarmed concurrently
  TraceEvent e;
  e.category = category;
  e.name = name;
  e.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - g_epoch)
                  .count();
  e.sim_time_s = sim_time_s;
  e.has_sim_time = has_sim_time;
  e.fields = fields.begin();
  e.field_count = fields.size();
  g_sink->write(e);
}

}  // namespace

bool trace_enabled() noexcept {
  return g_armed.load(std::memory_order_relaxed);
}

void trace_event(const char* category, const char* name,
                 std::initializer_list<TraceField> fields) {
  if (!trace_enabled()) return;
  emit(category, name, 0.0, false, fields);
}

void trace_event_at(const char* category, const char* name,
                    double sim_time_s,
                    std::initializer_list<TraceField> fields) {
  if (!trace_enabled()) return;
  emit(category, name, sim_time_s, true, fields);
}

void set_trace_sink(std::unique_ptr<TraceSink> sink) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_sink) g_sink->flush();
  g_sink = std::move(sink);
  g_epoch = std::chrono::steady_clock::now();
  g_env_pending = false;
  rearm_locked();
}

}  // namespace dh::obs
