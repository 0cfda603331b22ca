#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

namespace e2e {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpanBatcher::add(SpanLog& log, std::uint64_t epoch,
                      std::uint64_t start_ns, std::uint64_t end_ns,
                      std::uint32_t calls) {
  if (pending_ && open_.epoch != epoch) flush(log);
  if (!pending_) {
    open_ = proto_;
    open_.epoch = epoch;
    open_.start_ns = start_ns;
    open_.calls = 0;
    open_.busy_ns = 0;
    pending_ = true;
  }
  open_.end_ns = end_ns;
  open_.busy_ns += end_ns - start_ns;
  open_.calls += calls;
  if (open_.calls >= limit_) flush(log);
}

void SpanBatcher::flush(SpanLog& log) {
  if (!pending_) return;
  log.push_back(open_);
  pending_ = false;
}

std::vector<double> self_ms(const SpanLog& spans) {
  std::map<std::pair<int, std::uint64_t>, std::vector<std::size_t>> traces;
  for (std::size_t i = 0; i < spans.size(); ++i)
    traces[{spans[i].site, spans[i].epoch}].push_back(i);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].ms();
  for (const auto& [key, members] : traces) {
    for (const std::size_t child : members) {
      const Span& c = spans[child];
      if (c.parent[0] == '\0') continue;
      for (const std::size_t parent : members) {
        const Span& p = spans[parent];
        if (parent != child && std::strcmp(p.name, c.parent) == 0 &&
            p.start_ns <= c.start_ns && c.end_ns <= p.end_ns) {
          self[parent] -= c.ms();
          break;
        }
      }
    }
  }
  return self;
}

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const SpanLog* log : logs) {
    for (const Span& s : *log) {
      char site[24];
      if (s.site < 0)
        std::snprintf(site, sizeof site, "fleet");
      else
        std::snprintf(site, sizeof site, "%d", s.site + 1);
      std::fprintf(out,
                   "{\"trace\":\"%s/%s/%llu\",\"span\":\"%s\","
                   "\"parent\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu,\"tier\":\"%s\","
                   "\"calls\":%u,\"busy_ns\":%llu}\n",
                   workload.c_str(), site,
                   static_cast<unsigned long long>(s.epoch), s.name, s.parent,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.tier, s.calls,
                   static_cast<unsigned long long>(s.busy()));
    }
  }
  if (std::fclose(out) != 0)
    throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace e2e
