// Tiny key=value configuration store backing the examples' CLI flags and
// the benches' environment overrides (e.g. FIFL_ROUNDS=20 for a quick run).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fifl::util {

class Config {
 public:
  Config() = default;

  /// Parse "--key=value" / "--flag" style arguments. Unrecognized
  /// positional arguments are collected in positional().
  static Config from_args(int argc, const char* const* argv);

  /// Parse newline-separated "key = value" text ('#' comments allowed).
  static Config from_text(const std::string& text);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::map<std::string, std::string>& entries() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Reads an integer environment override, e.g. env_int("FIFL_ROUNDS", 100).
std::int64_t env_int(const char* name, std::int64_t fallback);
double env_double(const char* name, double fallback);
/// Raw string environment override; fallback when unset or empty.
std::string env_string(const char* name, const std::string& fallback);

/// What the FIFL_KERNEL_ISA override asks of the two runtime ISA
/// dispatchers, the tensor kernels (tensor/kernels/dispatch.cpp) and the
/// SHA-256 compression (chain/sha256.cpp). Each dispatcher's backends give
/// the same bytes; the override serves the cross-ISA tests, the sanitizer
/// lanes' forced-scalar leg and benchmarking. Read once per process: unset
/// reads kAuto, and an unrecognised value is logged once and reads kAuto.
enum class IsaRequest { kAuto, kScalar, kAvx2 };
IsaRequest requested_isa();

}  // namespace fifl::util
