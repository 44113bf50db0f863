// Minimal --key=value command-line parsing for bench and example binaries.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace mcharge {

/// What a flag's value must look like (CliFlags::check).
enum class FlagKind {
  kCount,   ///< non-negative decimal integer that fits get_int()
  kNumber,  ///< finite decimal floating-point number
  kText,    ///< any string
};

/// One accepted flag: its name (without the leading dashes) and kind.
struct FlagSpec {
  const char* name;
  FlagKind kind;
};

/// Parses flags of the form --key=value (or bare --key, value "true").
/// Arguments without the leading dashes are collected as positionals.
/// The getters are lenient (get_int is atoll); a binary that wants typos
/// and malformed values turned away calls check() or require_valid().
class CliFlags {
 public:
  CliFlags(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& flags() const { return flags_; }

  /// Checks every parsed argument against `accepted`. Returns a message
  /// naming the first positional argument, unknown flag, or value that
  /// does not parse in full as its flag's kind; empty when all are valid.
  std::string check(const std::vector<FlagSpec>& accepted) const;

  /// check(), and on failure prints the message to stderr and exits with
  /// code 2.
  void require_valid(const std::vector<FlagSpec>& accepted) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positionals_;
};

}  // namespace mcharge
