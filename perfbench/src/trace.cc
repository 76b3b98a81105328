#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "measure.h"

namespace perfbench {

int Tracer::Open(const char* name, int parent, int64_t request,
                 double start) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      {name, parent, request, start, -1.0, std::this_thread::get_id()});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Close(int id, double end) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<Tracer::SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Record& r : spans_) {
    if (r.parent >= 0 && r.end >= 0) {
      children[static_cast<std::size_t>(r.parent)].push_back({r.start, r.end});
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.end < 0) continue;
    // Union of the children's intervals, clipped to the parent: children
    // may overlap (concurrent requests under one window).
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = r.start;
    for (auto [s, e] : kids) {
      s = std::max(s, reach);
      e = std::min(e, r.end);
      if (e > s) {
        covered += e - s;
        reach = e;
      }
    }
    SelfTime& t = by_name[r.name];
    t.name = r.name;
    t.count += 1;
    t.total_s += r.end - r.start;
    t.self_s += (r.end - r.start) - covered;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool Tracer::WriteChrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = spans_.empty() ? 0 : spans_.front().start;
  for (const Record& r : spans_) origin = std::min(origin, r.start);
  std::map<std::thread::id, int> tids;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.end < 0) continue;
    const int tid =
        tids.emplace(r.thread, static_cast<int>(tids.size()) + 1).first->second;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"request\": %lld}}",
                 first ? "" : ",\n", r.name, tid, (r.start - origin) * 1e6,
                 (r.end - r.start) * 1e6, i, r.parent,
                 static_cast<long long>(r.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(Tracer* tracer, const char* name, int parent, int64_t request)
    : Span(tracer, name, parent, request, Now()) {}

Span::Span(Tracer* tracer, const char* name, int parent, int64_t request,
           double start)
    : tracer_(tracer),
      id_(tracer->Open(name, parent, request, start)),
      start_(start) {}

double Span::Close() {
  if (elapsed_ < 0) {
    const double end = Now();
    elapsed_ = end - start_;
    tracer_->Close(id_, end);
  }
  return elapsed_;
}

}  // namespace perfbench
