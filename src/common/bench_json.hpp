#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace vlacnn::bench {

/// Machine-readable benchmark records (the perf trajectory the repo tracks
/// as BENCH_*.json): one `{bench, config, wall_ms, bytes_moved, ...}` object
/// per measured configuration, written as a JSON array when a `--json=path`
/// flag is given. With no path, add()/write() are no-ops, so harnesses can
/// record unconditionally.
class BenchJson {
 public:
  BenchJson(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Records one configuration. `extra` holds additional numeric fields
  /// (e.g. {"cycles", 1e6} or {"speedup", 1.4}).
  void add(const std::string& config, double wall_ms, double bytes_moved,
           const std::vector<std::pair<std::string, double>>& extra = {}) {
    if (!enabled()) return;
    records_.push_back({config, wall_ms, bytes_moved, extra});
  }

  /// Writes the records; returns false (with a message on stderr) on I/O
  /// failure so CI smoke steps fail loudly.
  bool write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   path_.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      // %.17g round-trips doubles exactly: the records exist to catch
      // traffic/time regressions across PRs, so exact counters (bytes,
      // cycles) must not be rounded away.
      std::fprintf(f,
                   "  {\"bench\": \"%s\", \"config\": \"%s\", "
                   "\"wall_ms\": %.17g, \"bytes_moved\": %.17g",
                   escape(bench_).c_str(), escape(r.config).c_str(),
                   r.wall_ms, r.bytes_moved);
      for (const auto& [key, value] : r.extra)
        std::fprintf(f, ", \"%s\": %.17g", escape(key).c_str(), value);
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "error: failed writing %s\n", path_.c_str());
      return false;
    }
    std::printf("wrote %zu records to %s\n", records_.size(), path_.c_str());
    return true;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // keep it simple
      out.push_back(c);
    }
    return out;
  }

  struct Record {
    std::string config;
    double wall_ms;
    double bytes_moved;
    std::vector<std::pair<std::string, double>> extra;
  };
  std::string bench_;
  std::string path_;
  std::vector<Record> records_;
};

}  // namespace vlacnn::bench
