// In-memory span recorder of the traced run. The benchmark wraps each public
// layer call it makes in a span (name, start, end, parent, request id); at
// exit the spans are exported as Chrome trace-event JSON plus a flat
// per-layer table of counts, total time and self time (a span's duration
// minus the time its child spans cover). Nothing inside the library is
// instrumented: spans sit around calls made from outside.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr long kNone = -1;

  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    long parent = kNone;
    long request = kNone;
    int thread = 0;
  };

  struct LayerRow {
    std::string name;
    std::size_t count = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
  };

  Tracer();

  /// Seconds since the tracer was created.
  double now() const;

  /// Open a span on the calling thread, nested under that thread's
  /// innermost open span; returns its id.
  long begin(const std::string& name, long request = kNone);
  /// Close span `id` (must be the calling thread's innermost open span).
  void end(long id);
  /// Record an already finished interval, e.g. the queue and execute parts
  /// of a served request, which the frontend reports as durations.
  long add(const std::string& name, double start, double end, long parent,
           long request = kNone);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name, long request = kNone)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->begin(name, request) : kNone) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    long id() const { return id_; }

   private:
    Tracer* tracer_;
    long id_;
  };

  /// Duration of span `id`.
  double duration(long id) const;
  /// Per-name count, total and self time, ordered by first appearance.
  std::vector<LayerRow> layer_table() const;
  /// Summed duration of the root spans (the traced end-to-end time).
  double root_seconds() const;
  /// Summed self time of every span; equals root_seconds() when children
  /// nest inside their parents without overlapping.
  double self_seconds() const;
  /// Summed self time of the root spans alone: time no layer span covers.
  double root_self_seconds() const;
  /// Durations of the spans named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;

  void write_chrome(const std::string& path) const;
  void write_table(const std::string& path) const;

 private:
  std::vector<double> self_times() const;  ///< mutex_ held by caller

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::chrono::steady_clock::time_point origin_;
};

/// Run `fn` inside a root span named `name`; returns the span's duration.
template <typename Fn>
double traced_op(Tracer& tracer, const std::string& name, Fn&& fn) {
  long id = Tracer::kNone;
  {
    Tracer::Scope span(&tracer, name);
    id = span.id();
    fn();
  }
  return tracer.duration(id);
}

}  // namespace perfbench
