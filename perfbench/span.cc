#include "span.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json_writer.h"

namespace perfbench {

double WallNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuNowMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double MedianOfWindows(const std::vector<std::vector<double>>& windows,
                       double q, size_t min_samples) {
  min_samples = std::max<size_t>(1, min_samples);
  std::vector<std::vector<double>> groups(1);
  for (const std::vector<double>& w : windows) {
    if (groups.back().size() >= min_samples) groups.emplace_back();
    groups.back().insert(groups.back().end(), w.begin(), w.end());
  }
  // A short last group joins the one before it.
  if (groups.size() > 1 && groups.back().size() < min_samples) {
    const std::vector<double> tail = std::move(groups.back());
    groups.pop_back();
    groups.back().insert(groups.back().end(), tail.begin(), tail.end());
  }
  std::vector<double> per_group;
  for (std::vector<double>& g : groups) {
    if (!g.empty()) per_group.push_back(Quantile(std::move(g), q));
  }
  return Median(std::move(per_group));
}

CpuRotor::CpuRotor() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
}

void CpuRotor::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void CpuRotor::Release() {
  if (cpus_.empty()) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int cpu : cpus_) CPU_SET(cpu, &all);
  sched_setaffinity(0, sizeof(all), &all);
}

void Ledger::Add(const std::string& name, double wall_ms, double cpu_ms) {
  SpanTotal& t = totals_[name];
  t.wall_ms += wall_ms;
  t.cpu_ms += cpu_ms;
  ++t.count;
}

SpanTotal Ledger::Get(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? SpanTotal{} : it->second;
}

Span::Span(Ledger* ledger, std::string name)
    : ledger_(ledger),
      name_(std::move(name)),
      wall_start_(WallNowMs()),
      cpu_start_(ThreadCpuNowMs()) {}

double Span::End() {
  if (wall_ms_ >= 0.0) return wall_ms_;
  wall_ms_ = WallNowMs() - wall_start_;
  const double cpu_ms = ThreadCpuNowMs() - cpu_start_;
  if (ledger_ != nullptr) ledger_->Add(name_, wall_ms_, cpu_ms);
  return wall_ms_;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

void RunResult::Fail(const std::string& message) {
  ++failed;
  correct = false;
  if (errors.size() < 20) errors.push_back(message);
}

std::string RunResult::ToJson() const {
  std::ostringstream os;
  weber::JsonWriter json(os);
  json.BeginObject();
  json.Key("correct").Bool(correct);
  json.Key("attempted").Number(attempted);
  json.Key("failed").Number(failed);
  json.Key("metrics").BeginObject();
  for (const auto& [name, value_unit] : metrics.entries()) {
    json.Key(name).BeginObject();
    json.Key("value").Number(value_unit.first);
    json.Key("unit").String(value_unit.second);
    json.EndObject();
  }
  json.EndObject();
  json.Key("errors").BeginArray();
  for (const std::string& e : errors) json.String(e);
  json.EndArray();
  json.EndObject();
  std::string out = os.str();
  // Raw sections are spliced in as-is (they are JSON objects already).
  for (const auto& [key, body] : raw_sections) {
    out.insert(out.size() - 1,
               ",\"" + weber::JsonWriter::Escape(key) + "\":" + body);
  }
  return out;
}

}  // namespace perfbench
