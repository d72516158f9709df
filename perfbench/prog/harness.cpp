#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "util/parallel.hpp"

namespace perfbench {

namespace {

const auto kStart = std::chrono::steady_clock::now();

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected --key value pairs, got '" + key +
                               "'");
    }
    kv_[key.substr(2)] = argv[i + 1];
  }
}

std::string Args::required(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

std::int64_t Args::i64(const std::string& key, std::int64_t fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : std::stoll(it->second);
}

double Args::f64(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : std::stod(it->second);
}

int Trace::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = now_s();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Trace::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_s();
  // Spans close innermost-first (RAII), so the index is on top.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Trace::add(const std::string& name, double start, double end) {
  if (!enabled_) return;
  spans_.push_back({name, start, end, open_.empty() ? -1 : open_.back()});
}

std::string Trace::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "{\"name\":" + json_string(s.name) +
           ",\"start\":" + json_number(s.start) +
           ",\"end\":" + json_number(s.end) +
           ",\"parent\":" + std::to_string(s.parent) + "}";
  }
  return out + "]";
}

double Timed::stop() {
  if (seconds_ < 0.0) {
    seconds_ = now_s() - start_;
    trace_.close(index_);
  }
  return seconds_;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb(bool include_children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kib = static_cast<double>(self.ru_maxrss);
  if (include_children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kib += static_cast<double>(kids.ru_maxrss);
  }
  return kib / 1024.0;
}

void Result::set(const std::string& name, double value) {
  for (auto& [k, v] : values_) {
    if (k == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  std::fprintf(stderr, "check %-28s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

void Result::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

std::string Result::to_json(const Trace& trace) const {
  std::string out = "{\"workload\":" + json_string(workload_);
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"invalid\":" + json_string(invalid_);
  out += ",\"values\":{";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(values_[i].first) + ":" +
           json_number(values_[i].second);
  }
  out += "},\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":" + json_string(checks_[i].name) +
           ",\"ok\":" + (checks_[i].ok ? "true" : "false") +
           ",\"detail\":" + json_string(checks_[i].detail) + "}";
  }
  out += "],\"host\":{\"hw_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"omp_threads\":" + std::to_string(graphct::num_threads());
  out += "},\"info\":{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(info_[i].first);
    out += ':';
    out += json_string(info_[i].second);
  }
  out += "},\"spans\":" + trace.to_json() + "}";
  return out;
}

void report_bc_profiles(Result& res,
                        const std::vector<graphct::obs::KernelProfile>& bc) {
  if (bc.empty()) return;
  std::vector<double> secs, teps;
  for (const auto& p : bc) {
    secs.push_back(p.seconds);
    teps.push_back(p.teps());
  }
  res.set("core.bc_s", median(secs));
  res.set("core.bc.mteps", median(teps) / 1e6);
  for (const auto& ph : bc.back().phases) {
    if (ph.depth == 1) res.set("core." + ph.name + "_s", ph.seconds);
  }
}

void require_no_oversubscription(const std::string& what, int threads) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  const long usable =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : nproc;
  if (threads > usable) {
    throw std::runtime_error(what + " needs " + std::to_string(threads) +
                             " threads but only " + std::to_string(usable) +
                             " processors are usable: refusing to measure an "
                             "oversubscribed configuration");
  }
}

}  // namespace perfbench
