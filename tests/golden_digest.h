// 64-bit FNV-1a digest over hexfloat text, shared by the cross-commit
// golden tests (sim_golden_test.cpp, plan_golden_test.cpp). Doubles are
// hashed through their "%a" spelling, so a digest pins every bit, and
// every added field ends with a separator byte, so field boundaries are
// part of the hash.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "util/stats.h"

namespace mcharge::golden {

class Digest {
 public:
  void add(const std::string& s) {
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    hash_ ^= 0xff;  // field separator
    hash_ *= 0x100000001b3ULL;
  }
  void add(double x) { add(hexfloat(x)); }
  void add(std::size_t x) { add(std::to_string(x)); }
  void add(const RunningStats& s) {
    add(s.count());
    add(s.sum());
    add(s.mean());
    add(s.variance());
    add(s.min());
    add(s.max());
  }
  std::uint64_t value() const { return hash_; }

  static std::string hexfloat(double x) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", x);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace mcharge::golden
