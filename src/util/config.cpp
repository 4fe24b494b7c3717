#include "util/config.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/logging.hpp"

namespace fifl::util {

namespace {
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}
}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        cfg.set(arg.substr(2), "true");
      } else {
        cfg.set(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else {
      cfg.positional_.push_back(arg);
    }
  }
  return cfg;
}

Config Config::from_text(const std::string& text) {
  Config cfg;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("Config: missing '=' in line: " + line);
    }
    cfg.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const { return values_.contains(key); }

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_or(const std::string& key,
                           const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return std::stoll(*v);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return std::stod(*v);
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return std::strtoll(v, nullptr, 10);
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return std::strtod(v, nullptr);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return v;
}

namespace {
IsaRequest parse_isa_request() {
  const std::string want = env_string("FIFL_KERNEL_ISA", "");
  if (want.empty()) return IsaRequest::kAuto;
  if (want == "scalar") return IsaRequest::kScalar;
  if (want == "avx2") return IsaRequest::kAvx2;
  log_warn() << "FIFL_KERNEL_ISA='" << want
             << "' not recognised (want scalar|avx2); auto-detecting";
  return IsaRequest::kAuto;
}
}  // namespace

IsaRequest requested_isa() {
  static const IsaRequest request = parse_isa_request();
  return request;
}

}  // namespace fifl::util
