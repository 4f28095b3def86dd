#pragma once
// Minimal command-line parsing for the bench/example binaries.
// Supports "--key=value", "--key value" and boolean "--flag" forms.
// Unknown flags are ignored; a numeric flag whose value does not parse
// completely, or is out of range, throws std::invalid_argument naming the
// flag and the value.

#include <map>
#include <string>
#include <vector>

namespace bgp {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// `fallback` when the flag is absent; throws std::invalid_argument when
  /// its value is not entirely a (base-10) number in range.
  long getInt(const std::string& key, long fallback) const;
  double getDouble(const std::string& key, double fallback) const;
  bool getBool(const std::string& key, bool fallback = false) const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace bgp
