#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace vlacnn {

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_[arg.substr(2)] = "true";
      } else {
        kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool CliArgs::has(const std::string& key) const { return kv_.count(key) != 0; }

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

namespace {

/// Parses all of `value` with `parse` (strtoll/strtod-like); throws
/// InvalidArgument naming `--key` on an empty value, trailing characters
/// or an out-of-range number.
template <typename Parse>
auto parse_number(const std::string& key, const std::string& value,
                  const char* kind, Parse parse) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const auto v = parse(begin, &end);
  if (value.empty() || end != begin + value.size() || errno == ERANGE)
    throw InvalidArgument("--" + key + "=" + value + ": expected " + kind);
  return v;
}

}  // namespace

std::int64_t CliArgs::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return parse_number(key, it->second, "an integer",
                      [](const char* s, char** e) {
                        return static_cast<std::int64_t>(
                            std::strtoll(s, e, 10));
                      });
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return parse_number(key, it->second, "a number",
                      [](const char* s, char** e) { return std::strtod(s, e); });
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

void CliArgs::require_known(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : kv_) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string names;
    for (const std::string& k : known) names += " --" + k;
    throw InvalidArgument("--" + key + ": unknown flag; expected one of" +
                          names);
  }
}

}  // namespace vlacnn
