// Engine half of fifl-lint: file loading with comment/string blanking,
// waiver collection, tree walking, waiver application, and JSON output.
// The linter itself must be deterministic (it lints determinism): every
// traversal sorts paths and every report is emitted in sorted order.
#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fifl::lint {

namespace {

// Lexer states carried across lines while blanking comments and literals.
enum class LexState { kCode, kLineComment, kBlockComment, kString, kChar,
                      kRawString };

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

std::size_t Report::active_count() const {
  std::size_t n = 0;
  for (const Finding& f : findings)
    if (!f.waived) ++n;
  return n;
}

std::map<std::string, std::size_t> Report::counts_by_rule() const {
  std::map<std::string, std::size_t> counts;
  for (const Finding& f : findings)
    if (!f.waived) ++counts[f.rule];
  return counts;
}

SourceFile load_source(const std::filesystem::path& abs,
                       const std::string& rel) {
  std::ifstream in(abs, std::ios::binary);
  if (!in) throw std::runtime_error("fifl-lint: cannot read " + abs.string());
  SourceFile f;
  f.abs_path = abs;
  f.rel_path = rel;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    f.raw.push_back(line);
  }

  LexState state = LexState::kCode;
  std::string raw_delim;  // raw-string closing delimiter, e.g. )foo"
  for (const std::string& src : f.raw) {
    std::string code(src.size(), ' ');
    std::string comment;
    for (std::size_t i = 0; i < src.size(); ++i) {
      const char c = src[i];
      const char next = i + 1 < src.size() ? src[i + 1] : '\0';
      switch (state) {
        case LexState::kCode:
          if (c == '/' && next == '/') {
            comment.append(src.substr(i + 2));
            i = src.size();
          } else if (c == '/' && next == '*') {
            state = LexState::kBlockComment;
            ++i;
          } else if (c == 'R' && next == '"' &&
                     (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                     src[i - 1])) &&
                                 src[i - 1] != '_'))) {
            // Raw string literal R"delim( ... )delim"
            std::size_t open = src.find('(', i + 2);
            if (open == std::string::npos) {
              code[i] = c;  // malformed; treat literally
              break;
            }
            // Built piecewise: `")" + substr + "\""` trips gcc 12's
            // -Wrestrict false positive (GCC PR 105651) under -Werror.
            raw_delim.assign(1, ')');
            raw_delim.append(src, i + 2, open - (i + 2));
            raw_delim.push_back('"');
            code[i] = 'R';
            code[i + 1] = '"';
            state = LexState::kRawString;
            i = open;  // contents blanked from here on
          } else if (c == '"') {
            code[i] = '"';
            state = LexState::kString;
          } else if (c == '\'') {
            code[i] = '\'';
            state = LexState::kChar;
          } else {
            code[i] = c;
          }
          break;
        case LexState::kString:
          if (c == '\\') {
            ++i;  // skip escaped char (stays blank)
          } else if (c == '"') {
            code[i] = '"';
            state = LexState::kCode;
          }
          break;
        case LexState::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            code[i] = '\'';
            state = LexState::kCode;
          }
          break;
        case LexState::kRawString: {
          const std::size_t end = src.find(raw_delim, i);
          if (end == std::string::npos) {
            i = src.size();
          } else {
            i = end + raw_delim.size() - 1;
            code[i] = '"';
            state = LexState::kCode;
          }
          break;
        }
        case LexState::kBlockComment: {
          const std::size_t end = src.find("*/", i);
          if (end == std::string::npos) {
            comment.append(src.substr(i));
            i = src.size();
          } else {
            comment.append(src.substr(i, end - i));
            i = end + 1;
            state = LexState::kCode;
          }
          break;
        }
        case LexState::kLineComment:
          break;  // unreachable: line comments end with the line
      }
    }
    if (state == LexState::kLineComment) state = LexState::kCode;
    f.code.push_back(std::move(code));
    f.comment.push_back(std::move(comment));
  }
  return f;
}

std::vector<Waiver> collect_waivers(const SourceFile& f) {
  std::vector<Waiver> waivers;
  for (std::size_t i = 0; i < f.comment.size(); ++i) {
    const std::string& c = f.comment[i];
    const std::size_t tag = c.find("fifl-lint:");
    if (tag == std::string::npos) continue;
    const std::size_t allow = c.find("allow(", tag);
    if (allow == std::string::npos) continue;
    const std::size_t open = allow + 6;
    const std::size_t close = c.find(')', open);
    if (close == std::string::npos) continue;
    Waiver w;
    w.file = f.rel_path;
    w.line = i + 1;
    w.rule = c.substr(open, close - open);
    const std::size_t dash = c.find("--", close);
    if (dash != std::string::npos) {
      std::string just = c.substr(dash + 2);
      const std::size_t b = just.find_first_not_of(" \t");
      w.justification = b == std::string::npos ? "" : just.substr(b);
    }
    waivers.push_back(std::move(w));
  }
  return waivers;
}

Report run(const Config& cfg) {
  namespace fs = std::filesystem;
  Report report;

  // Deterministic tree walk: collect, then sort.
  std::vector<std::pair<fs::path, std::string>> paths;  // abs, rel
  for (const std::string& dir : cfg.scan_dirs) {
    const fs::path abs_dir = cfg.root / dir;
    if (!fs::exists(abs_dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(abs_dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc")
        continue;
      std::string rel =
          fs::relative(entry.path(), cfg.root).generic_string();
      const bool excluded = std::any_of(
          cfg.exclude_fragments.begin(), cfg.exclude_fragments.end(),
          [&rel](const std::string& frag) {
            return rel.find(frag) != std::string::npos;
          });
      if (!excluded) paths.emplace_back(entry.path(), std::move(rel));
    }
  }
  std::sort(paths.begin(), paths.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const auto& [abs, rel] : paths) files.push_back(load_source(abs, rel));
  report.files_scanned = files.size();

  for (const SourceFile& f : files) {
    rule_unordered_iter(f, cfg, report.findings);
    rule_nondet_source(f, cfg, report.findings);
    rule_fp_order(f, cfg, report.findings);
    for (Waiver& w : collect_waivers(f)) report.waivers.push_back(w);
  }
  rule_concurrency(files, cfg, report.findings);
  if (cfg.check_headers && !cfg.cxx.empty())
    rule_header_hygiene(files, cfg, report);

  // Apply waivers: a waiver covers a matching-rule finding on its own line
  // or the line directly below (waiver comment above the offending line).
  for (Finding& f : report.findings) {
    for (Waiver& w : report.waivers) {
      if (w.file == f.file && w.rule == f.rule &&
          (w.line == f.line || w.line + 1 == f.line)) {
        f.waived = true;
        w.used = true;
      }
    }
  }
  // A waiver with no justification is itself a finding: the audit trail is
  // the point of the waiver syntax.
  for (const Waiver& w : report.waivers) {
    if (w.justification.empty()) {
      report.findings.push_back(
          {w.file, w.line, "waiver-justification",
           "waiver for '" + w.rule +
               "' has no justification; write `// fifl-lint: allow(" +
               w.rule + ") -- <reason>`"});
    }
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return report;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& all_rule_ids() {
  static const std::vector<std::string> ids = {
      "unordered-iter",  "nondet-source",       "fp-order",
      "header-hygiene",  "lock-order",          "cv-wait-predicate",
      "guarded-by",      "blocking-under-lock", "waiver-justification"};
  return ids;
}

std::string to_json(const Report& report, const Config& cfg) {
  std::ostringstream os;
  os << "{\"tool\":\"fifl-lint\",\"root\":\""
     << json_escape(cfg.root.generic_string()) << "\"";
  os << ",\"files_scanned\":" << report.files_scanned;
  os << ",\"headers_compiled\":" << report.headers_compiled;
  os << ",\"active_findings\":" << report.active_count();
  os << ",\"counts\":{";
  bool first = true;
  for (const auto& [rule, n] : report.counts_by_rule()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(rule) << "\":" << n;
  }
  // Per-rule totals over the full rule set (zeroes included), split into
  // active vs waived so dashboards can graph waiver debt per rule.
  os << "},\"rules\":{";
  first = true;
  for (const std::string& rule : all_rule_ids()) {
    std::size_t active = 0, waived = 0;
    for (const Finding& f : report.findings) {
      if (f.rule != rule) continue;
      if (f.waived) ++waived; else ++active;
    }
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(rule) << "\":{\"active\":" << active
       << ",\"waived\":" << waived << "}";
  }
  os << "},\"findings\":[";
  first = true;
  for (const Finding& f : report.findings) {
    if (!first) os << ",";
    first = false;
    os << "{\"file\":\"" << json_escape(f.file) << "\",\"line\":" << f.line
       << ",\"rule\":\"" << json_escape(f.rule) << "\",\"message\":\""
       << json_escape(f.message) << "\",\"waived\":"
       << (f.waived ? "true" : "false") << "}";
  }
  os << "],\"waivers\":[";
  first = true;
  for (const Waiver& w : report.waivers) {
    if (!first) os << ",";
    first = false;
    os << "{\"file\":\"" << json_escape(w.file) << "\",\"line\":" << w.line
       << ",\"rule\":\"" << json_escape(w.rule) << "\",\"justification\":\""
       << json_escape(w.justification) << "\",\"used\":"
       << (w.used ? "true" : "false") << "}";
  }
  os << "]}\n";
  return os.str();
}

// Shared helper for rules.cpp path policies.
bool path_matches_any(const std::string& rel,
                      const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&rel](const std::string& p) {
                       return starts_with(rel, p);
                     });
}

}  // namespace fifl::lint
