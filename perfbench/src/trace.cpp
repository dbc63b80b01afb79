#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

double Now() { return static_cast<double>(NowNs()) * 1e-9; }

Tracer::Scope::Scope(Tracer& tracer, std::string_view name) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = tracer.open(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

std::size_t Tracer::open(std::string_view name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.track = track_;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = NowNs();
  stack_.pop_back();
}

void Tracer::count(const std::string& name, double value) {
  if (enabled_) counters_[name] += value;
}

void Tracer::merge(Tracer&& other) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (Span& s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  other.spans_.clear();
  other.counters_.clear();
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    SpanTotals& t = out[s.name];
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    ++t.count;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fputs("{\"name\":", f);
    WriteJsonString(f, s.name);
    std::fprintf(f,
                 ",\"start_ns\":%llu,\"end_ns\":%llu,\"parent\":%lld,"
                 "\"track\":%llu}%s\n",
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.track),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
