#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/// Small dense id per OS thread, for the Chrome trace's tid field.
int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// The calling thread's open spans, innermost last.
std::vector<long>& open_stack() {
  thread_local std::vector<long> stack;
  return stack;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

long Tracer::begin(const std::string& name, long request) {
  std::vector<long>& stack = open_stack();
  Span span;
  span.name = name;
  span.parent = stack.empty() ? kNone : stack.back();
  span.request = request;
  span.thread = thread_index();
  long id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<long>(spans_.size());
    span.start = now();
    spans_.push_back(std::move(span));
  }
  stack.push_back(id);
  return id;
}

void Tracer::end(long id) {
  std::vector<long>& stack = open_stack();
  if (stack.empty() || stack.back() != id) {
    throw std::logic_error("Tracer::end: span closed out of order");
  }
  stack.pop_back();
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

long Tracer::add(const std::string& name, double start, double end,
                 long parent, long request) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.request = request;
  span.thread = thread_index();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<long>(spans_.size()) - 1;
}

double Tracer::duration(long id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.end - s.start;
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent != kNone) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  return self;
}

std::vector<Tracer::LayerRow> Tracer::layer_table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = self_times();
  std::vector<LayerRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerRow* row = nullptr;
    for (LayerRow& r : rows) {
      if (r.name == spans_[i].name) row = &r;
    }
    if (row == nullptr) {
      rows.push_back({spans_[i].name, 0, 0.0, 0.0});
      row = &rows.back();
    }
    ++row->count;
    row->total_seconds += spans_[i].end - spans_[i].start;
    row->self_seconds += self[i];
  }
  return rows;
}

double Tracer::root_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == kNone) total += s.end - s.start;
  }
  return total;
}

double Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const double v : self_times()) total += v;
  return total;
}

double Tracer::root_self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = self_times();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == kNone) total += self[i];
  }
  return total;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %ld, \"request\": %ld}}%s\n",
                 json_escape(s.name).c_str(), s.thread, s.start * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent, s.request,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
  std::fclose(f);
}

void Tracer::write_table(const std::string& path) const {
  const std::vector<LayerRow> rows = layer_table();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "%-28s %8s %14s %14s\n", "span", "count", "total_s",
               "self_s");
  for (const LayerRow& r : rows) {
    std::fprintf(f, "%-28s %8zu %14.6f %14.6f\n", r.name.c_str(), r.count,
                 r.total_seconds, r.self_seconds);
  }
  std::fclose(f);
}

}  // namespace perfbench
