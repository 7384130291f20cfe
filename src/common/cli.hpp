#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vlacnn {

/// Tiny `--key=value` / `--flag` command-line parser shared by the benchmark
/// harnesses and examples. Keys a caller never asks for are ignored unless
/// it calls require_known(). get_int/get_double throw InvalidArgument naming
/// the flag when its value is not entirely a number (`--input=abc`,
/// `--input=96x`).
class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Throws InvalidArgument naming the first flag (in key order) that is
  /// not in `known`, so a tool rejects a flag it does not take instead of
  /// running without it.
  void require_known(const std::vector<std::string>& known) const;

  /// Positional (non `--`) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace vlacnn
