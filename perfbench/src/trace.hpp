// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around each call it makes into a layer's
// public functions (`attack.spray`, `nvme.loop`, ...).  A span holds
// its name, start, end and parent span; spans of one trial share a
// track id.  Nothing is recorded while the tracer is disabled, which is
// how every end-to-end metric is measured.  Counters recorded at the
// same boundaries (activations during hammer spans, ...) sit beside the
// spans so ratios are taken where the work happens.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host seconds on the steady clock.
[[nodiscard]] double Now();

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;  // since process start
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    // index into the same tracer, -1 = root
  std::uint64_t track = 0;     // trial / rep the span belongs to
};

/// Per-name aggregate derived from the spans.
struct SpanTotals {
  double total_s = 0.0;  // summed durations
  double self_s = 0.0;   // durations minus the time child spans cover
  std::uint64_t count = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled, std::uint64_t track = 0)
      : enabled_(enabled), track_(track) {}

  /// RAII span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when disabled
    std::size_t index_ = 0;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Scope span(std::string_view name) {
    return Scope(*this, name);
  }

  /// Adds `value` to a named counter (recorded only when enabled).
  void count(const std::string& name, double value);

  /// Moves another tracer's spans and counters into this one (parallel
  /// trials each record into their own tracer, merged afterwards).
  void merge(Tracer&& other);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double counter(const std::string& name) const;

  /// Per-name durations and self times.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as one JSON array; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::size_t open(std::string_view name);
  void close(std::size_t index);

  bool enabled_;
  std::uint64_t track_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // open spans, innermost last
  std::map<std::string, double> counters_;
};

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto Call(Tracer& tracer, const char* name, Fn&& fn) {
  auto scope = tracer.span(name);
  return fn();
}

}  // namespace perfbench
