#include "util/cli.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace mcharge {

namespace {

/// True when `value` is all decimal digits and at most LLONG_MAX, so
/// get_int() returns it unchanged.
bool is_count(const std::string& value) {
  if (value.empty() || value.find_first_not_of("0123456789") !=
                           std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), nullptr, 10);
  return errno != ERANGE && v <= static_cast<unsigned long long>(LLONG_MAX);
}

/// True when strtod consumes all of `value` (no leading space) and the
/// result is finite.
bool is_number(const std::string& value) {
  if (value.empty() || std::isspace(static_cast<unsigned char>(value[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  return *end == '\0' && errno != ERANGE && std::isfinite(v);
}

}  // namespace

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      positionals_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      flags_[std::string(arg)] = "true";
    } else {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

bool CliFlags::has(const std::string& key) const {
  return flags_.count(key) > 0;
}

std::string CliFlags::get(const std::string& key,
                          const std::string& fallback) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

long long CliFlags::get_int(const std::string& key, long long fallback) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : std::atoll(it->second.c_str());
}

double CliFlags::get_double(const std::string& key, double fallback) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : std::atof(it->second.c_str());
}

bool CliFlags::get_bool(const std::string& key, bool fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string CliFlags::check(const std::vector<FlagSpec>& accepted) const {
  if (!positionals_.empty()) {
    return "unexpected argument '" + positionals_.front() +
           "' (flags take the form --key=value)";
  }
  for (const auto& [key, value] : flags_) {
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& s : accepted) {
      if (key == s.name) spec = &s;
    }
    if (spec == nullptr) return "unknown flag --" + key;
    if (spec->kind == FlagKind::kCount && !is_count(value)) {
      return "flag --" + key + "=" + value +
             ": expected a non-negative integer";
    }
    if (spec->kind == FlagKind::kNumber && !is_number(value)) {
      return "flag --" + key + "=" + value + ": expected a finite number";
    }
  }
  return {};
}

void CliFlags::require_valid(const std::vector<FlagSpec>& accepted) const {
  const std::string error = check(accepted);
  if (error.empty()) return;
  std::fprintf(stderr, "%s\n", error.c_str());
  std::exit(2);
}

}  // namespace mcharge
