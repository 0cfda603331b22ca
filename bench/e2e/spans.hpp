// Bench-side spans for the traced run. Kept in memory (one vector per
// recording thread, so recording takes no lock) and written as JSONL when
// the run ends: one object per span with
//   trace    "<workload>/<site>/<epoch>" ("<workload>/fleet/<n>" for a span
//            that covers several sites)
//   span     the layer metric the span feeds, e.g. "sketch.serialize_ms"
//   parent   the enclosing span's name ("" at the root)
//   start_ns, end_ns   steady clock
//   tier     where the call ran: agent, leaf, root or collector
//   calls    calls aggregated into this span
//   busy_ns  time spent inside those calls; a batched span covers the
//            wall interval from its first call to its last, idle gaps
//            included, so its self time is busy_ns
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  const char* name = "";
  const char* parent = "";
  const char* tier = "";
  int site = -1;  ///< -1: the span covers several sites
  std::uint64_t epoch = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t calls = 1;
  std::uint64_t busy_ns = 0;  ///< 0: the whole interval was busy

  std::uint64_t busy() const { return busy_ns ? busy_ns : end_ns - start_ns; }
  double ms() const { return static_cast<double>(busy()) / 1e6; }
};

using SpanLog = std::vector<Span>;

std::uint64_t now_ns();

/// Accumulates timed calls into one span per `limit` calls (or until
/// flushed), keeping per-call spans — and their overhead — out of hot loops.
class SpanBatcher {
 public:
  explicit SpanBatcher(Span prototype, std::uint32_t limit = 256)
      : proto_(prototype), limit_(limit) {}

  void add(SpanLog& log, std::uint64_t epoch, std::uint64_t start_ns,
           std::uint64_t end_ns, std::uint32_t calls);
  void flush(SpanLog& log);

 private:
  Span proto_;
  Span open_;
  std::uint32_t limit_;
  bool pending_ = false;
};

/// Self time of every span: its duration minus the time its children (spans
/// of the same trace whose `parent` names it and that lie inside it) cover.
std::vector<double> self_ms(const SpanLog& spans);

/// Write `spans` as JSONL; throws std::runtime_error on I/O failure.
void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs);

}  // namespace e2e
