#include "support/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "support/expect.hpp"

namespace bgp {

namespace {

[[noreturn]] void badValue(const std::string& key, const std::string& value,
                           const char* expected) {
  throw std::invalid_argument("--" + key + "=" + value + ": expected " +
                              expected);
}

/// Whether strto* consumed all of `value` without a range error.
bool parsedWhole(const std::string& value, const char* end) {
  return !value.empty() && end == value.c_str() + value.size() &&
         errno != ERANGE;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  BGP_REQUIRE(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& key) const { return flags_.count(key) != 0; }

std::string Cli::get(const std::string& key,
                     const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

long Cli::getInt(const std::string& key, long fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v.c_str(), &end, 10);
  if (!parsedWhole(v, end)) badValue(key, v, "an integer in range");
  return x;
}

double Cli::getDouble(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (!parsedWhole(v, end)) badValue(key, v, "a number in range");
  return x;
}

bool Cli::getBool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

}  // namespace bgp
