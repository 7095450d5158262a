// Helpers shared by the perfbench subcommands (load, verify, trace).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// `--key value` pairs after the subcommand. Every flag takes a value.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("expected --flag value, got " + key);
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string str(const std::string& key, std::string fallback = "") const {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    if (fallback.empty()) {
      throw std::invalid_argument("missing --" + key);
    }
    return fallback;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  /// A comma-separated list of integers; empty when the flag is absent.
  std::vector<std::int64_t> ints(const std::string& key) const {
    std::vector<std::int64_t> out;
    const auto it = values_.find(key);
    if (it == values_.end()) return out;
    std::stringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) out.push_back(std::stoll(item));
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

inline std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) throw std::runtime_error(path + " holds no lines");
  return lines;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Nearest-rank percentile (p in (0, 1]) — the same rule run.py uses.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

/// A double with all its digits, for the result files.
inline std::string num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

int run_load(const Args& args);
int run_verify(const Args& args);
int run_trace(const Args& args);

}  // namespace perfbench
