// Rule half of fifl-lint: the determinism/hygiene rules R1-R3 and R5 (R4
// was retired; see lint.hpp).
//
// These are line-oriented heuristics over comment/string-blanked source, not
// a full C++ front end.  They are tuned so the repo's real determinism bugs
// fire (hash-order iteration, wall-clock values, unannotated FP reductions)
// while idiomatic code does not; anything a rule cannot see (a type hidden
// behind an alias, a reduction via std::accumulate) is covered by review and
// the bitwise-equivalence keystone tests, not silently assumed safe.
#include "lint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <regex>
#include <thread>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace fifl::lint {

namespace {

// --- R1: iteration over unordered containers -------------------------------

// Declaration of an unordered container; capture the variable/member name
// that trails the (greedily matched) template argument list.
// Covers plain declarations, members, and (reference/pointer) parameters:
// `unordered_map<K,V> m;`, `const unordered_set<T>& s)`, `...>* p,`.
const std::regex kUnorderedDecl(
    R"(unordered_(?:map|set|multimap|multiset)\s*<.*>[&*\s]+(\w+)\s*(?:[;={(),]|$))");
// Any mention, used to catch iteration over expressions we cannot name-track.
const std::regex kRangeFor(R"(for\s*\([^)]*:\s*([A-Za-z_][\w.\->]*)\s*\))");

// --- R2: nondeterministic value sources ------------------------------------

struct BannedPattern {
  std::regex re;
  const char* what;
};

const BannedPattern kBanned[] = {
    {std::regex(R"((?:^|[^\w])rand\s*\(\s*\))"), "rand()"},
    {std::regex(R"((?:^|[^\w])srand\s*\()"), "srand()"},
    {std::regex(R"(random_device)"), "std::random_device"},
    {std::regex(R"((?:^|[^\w.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\))"),
     "time()"},
    {std::regex(
         R"((?:system_clock|steady_clock|high_resolution_clock)::now\s*\()"),
     "chrono clock now()"},
    {std::regex(R"((?:^|[^\w])gettimeofday\s*\()"), "gettimeofday()"},
    {std::regex(R"((?:^|[^\w])clock_gettime\s*\()"), "clock_gettime()"},
    {std::regex(R"((?:^|[^\w])getentropy\s*\()"), "getentropy()"},
};

// --- R3: floating-point reductions ------------------------------------------

const std::regex kFloatDecl(
    R"((?:^|[^\w])(?:double|float)\s+(\w+)\s*(?:=|;|\{))");
const std::regex kFloatVecDecl(
    R"(vector\s*<\s*(?:double|float)\s*>\s+(\w+)\s*(?:;|=|\{|\())");
// C-array lane accumulators (`double lane[8] = {};`) — the SIMD kernel
// layer's scalar mirrors reduce into these, and kPlusEq already matches
// the subscripted `lane[l] +=` form.
const std::regex kFloatArrDecl(
    R"((?:^|[^\w])(?:double|float)\s+(\w+)\s*\[)");
const std::regex kPlusEq(R"(([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*\+=)");

bool has_order_annotation(const SourceFile& f, std::size_t line_idx) {
  // Accept `// order: ...` on the line itself or up to 3 lines above.
  const std::size_t lo = line_idx >= 3 ? line_idx - 3 : 0;
  for (std::size_t i = lo; i <= line_idx && i < f.comment.size(); ++i) {
    if (f.comment[i].find("order:") != std::string::npos) return true;
  }
  return false;
}

// Per-line stack of enclosing for-loop head lines, derived from a char scan
// of the blanked code.  Single-statement (unbraced) loop bodies count the
// following statement as inside the loop.
std::vector<std::vector<std::size_t>> enclosing_for_heads(
    const SourceFile& f) {
  std::vector<std::vector<std::size_t>> enclosing(f.code.size());
  struct Brace {
    bool is_for = false;
    std::size_t head = 0;
  };
  std::vector<Brace> braces;
  long pending_for = -1;     // head line of a `for(` awaiting its body
  int paren_depth = 0;
  long unbraced_body_for = -1;  // single-statement body in flight

  const std::regex kForHead(R"((?:^|[^\w])for\s*\()");
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    for (const Brace& b : braces)
      if (b.is_for) enclosing[li].push_back(b.head);
    if (unbraced_body_for >= 0)
      enclosing[li].push_back(static_cast<std::size_t>(unbraced_body_for));
    if (pending_for >= 0 && paren_depth == 0 &&
        static_cast<std::size_t>(pending_for) != li) {
      // Head closed on an earlier line and no `{` yet: this line is the
      // (start of the) unbraced body.
      enclosing[li].push_back(static_cast<std::size_t>(pending_for));
    }

    const std::string& line = f.code[li];
    if (paren_depth == 0 && std::regex_search(line, kForHead))
      pending_for = static_cast<long>(li);
    for (char c : line) {
      if (c == '(') {
        ++paren_depth;
      } else if (c == ')') {
        if (paren_depth > 0) --paren_depth;
      } else if (c == '{') {
        braces.push_back({pending_for >= 0,
                          pending_for >= 0
                              ? static_cast<std::size_t>(pending_for)
                              : 0});
        pending_for = -1;
        unbraced_body_for = -1;
      } else if (c == '}') {
        if (!braces.empty()) braces.pop_back();
      } else if (c == ';' && paren_depth == 0) {
        if (pending_for >= 0) {
          // Unbraced `for (...) stmt;` body ended on this line; make sure
          // this line counts as inside the loop (covers the all-on-one-line
          // form where the start-of-line pass could not have seen it yet).
          enclosing[li].push_back(static_cast<std::size_t>(pending_for));
          pending_for = -1;
        }
        unbraced_body_for = -1;
      }
    }
  }
  return enclosing;
}

std::string first_line(const std::string& s) {
  const std::size_t nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

}  // namespace

void rule_unordered_iter(const SourceFile& f, const Config& cfg,
                         std::vector<Finding>& out) {
  if (!path_matches_any(f.rel_path, cfg.det_paths)) return;
  // Pass 1: names declared with an unordered container type.
  std::map<std::string, std::size_t> unordered_names;  // name -> decl line
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    auto begin = std::sregex_iterator(f.code[i].begin(), f.code[i].end(),
                                      kUnorderedDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
      unordered_names.emplace((*it)[1].str(), i + 1);
  }
  if (unordered_names.empty()) return;
  // Pass 2: iteration over any of those names.
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    std::smatch m;
    std::string iterated;
    if (std::regex_search(line, m, kRangeFor)) {
      std::string target = m[1].str();
      // Strip an object prefix: `obj.member` / `this->member`.
      const std::size_t dot = target.find_last_of(".>");
      if (dot != std::string::npos) target = target.substr(dot + 1);
      if (unordered_names.count(target)) iterated = target;
    }
    if (iterated.empty()) {
      for (const auto& [name, decl_line] : unordered_names) {
        const std::regex begin_call(
            "(?:^|[^\\w])" + name + R"(\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\()");
        if (std::regex_search(line, begin_call)) {
          iterated = name;
          break;
        }
      }
    }
    if (!iterated.empty()) {
      out.push_back(
          {f.rel_path, i + 1, "unordered-iter",
           "iteration over unordered container '" + iterated +
               "' (declared line " +
               std::to_string(unordered_names[iterated]) +
               ") leaks hash order into downstream bytes; use std::map or a "
               "sorted vector, or waive with "
               "`// fifl-lint: allow(unordered-iter) -- <reason>`"});
    }
  }
}

void rule_nondet_source(const SourceFile& f, const Config& cfg,
                        std::vector<Finding>& out) {
  // Only deterministic-engine paths; bench/ and tests/ legitimately measure
  // wall time, so the rule scopes to src/ and examples/.
  if (!path_matches_any(f.rel_path, {"src/", "examples/"})) return;
  if (path_matches_any(f.rel_path, cfg.nondet_allow)) return;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (const BannedPattern& b : kBanned) {
      if (std::regex_search(f.code[i], b.re)) {
        out.push_back(
            {f.rel_path, i + 1, "nondet-source",
             std::string(b.what) +
                 " is a nondeterministic value source; draw from the seeded "
                 "util::Rng (src/util/rng.hpp) instead, or waive with "
                 "`// fifl-lint: allow(nondet-source) -- <reason>` if this "
                 "is genuinely timeout/observability code"});
      }
    }
  }
}

void rule_fp_order(const SourceFile& f, const Config& cfg,
                   std::vector<Finding>& out) {
  if (!path_matches_any(f.rel_path, cfg.fp_paths)) return;
  // Pass 1: names declared floating-point in this file.
  std::map<std::string, std::size_t> float_names;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (auto it = std::sregex_iterator(f.code[i].begin(), f.code[i].end(),
                                        kFloatDecl);
         it != std::sregex_iterator(); ++it)
      float_names.emplace((*it)[1].str(), i + 1);
    for (auto it = std::sregex_iterator(f.code[i].begin(), f.code[i].end(),
                                        kFloatVecDecl);
         it != std::sregex_iterator(); ++it)
      float_names.emplace((*it)[1].str(), i + 1);
    for (auto it = std::sregex_iterator(f.code[i].begin(), f.code[i].end(),
                                        kFloatArrDecl);
         it != std::sregex_iterator(); ++it)
      float_names.emplace((*it)[1].str(), i + 1);
  }
  if (float_names.empty()) return;

  const auto enclosing = enclosing_for_heads(f);
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (enclosing[i].empty()) continue;
    for (auto it = std::sregex_iterator(f.code[i].begin(), f.code[i].end(),
                                        kPlusEq);
         it != std::sregex_iterator(); ++it) {
      const std::string target = (*it)[1].str();
      if (!float_names.count(target)) continue;
      bool annotated = has_order_annotation(f, i);
      for (std::size_t head : enclosing[i])
        annotated = annotated || has_order_annotation(f, head);
      if (annotated) continue;
      out.push_back(
          {f.rel_path, i + 1, "fp-order",
           "floating-point reduction into '" + target +
               "' inside a loop without an `// order:` annotation; FP "
               "addition is not associative, so name the iteration-order "
               "guarantee (e.g. `// order: worker id ascending`) or "
               "restructure"});
    }
  }
}

void rule_header_hygiene(const std::vector<SourceFile>& files,
                         const Config& cfg, Report& report) {
  namespace fs = std::filesystem;
  std::vector<const SourceFile*> headers;
  for (const SourceFile& f : files) {
    if (f.rel_path.size() > 4 &&
        f.rel_path.compare(f.rel_path.size() - 4, 4, ".hpp") == 0 &&
        path_matches_any(f.rel_path, {"src/"}))
      headers.push_back(&f);
  }
  if (headers.empty()) return;

  const fs::path tmp =
      fs::temp_directory_path() /
      ("fifl-lint-" + std::to_string(
#ifndef _WIN32
                          static_cast<long>(::getpid())
#else
                          0L
#endif
                              ));
  fs::create_directories(tmp);

  std::string include_flags = " -I \"" + (cfg.root / "src").string() + "\"";
  for (const std::string& inc : cfg.extra_includes)
    include_flags += " -I \"" + (cfg.root / inc).string() + "\"";

  std::mutex mu;
  std::atomic<std::size_t> next{0};
  std::vector<Finding> local;
  const unsigned n_threads =
      std::max(1u, std::min(std::thread::hardware_concurrency(),
                            static_cast<unsigned>(headers.size())));
  auto worker = [&](unsigned tid) {
    for (std::size_t i = next.fetch_add(1); i < headers.size();
         i = next.fetch_add(1)) {
      const SourceFile& h = *headers[i];
      // The TU includes the header by the same spelling the repo uses
      // (paths relative to src/).
      std::string spelling = h.rel_path.substr(4);  // strip "src/"
      const fs::path tu = tmp / ("tu_" + std::to_string(tid) + "_" +
                                 std::to_string(i) + ".cpp");
      {
        std::ofstream out_tu(tu);
        out_tu << "#include \"" << spelling << "\"\n"
               << "int fifl_lint_header_anchor_" << i << ";\n";
      }
      const std::string cmd = "\"" + cfg.cxx + "\" -std=c++20 -fsyntax-only" +
                              include_flags + " \"" + tu.string() +
                              "\" 2>&1";
      std::string output;
      if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
          output.append(buf, n);
        const int rc = ::pclose(pipe);
        if (rc != 0) {
          std::lock_guard<std::mutex> lock(mu);
          local.push_back(
              {h.rel_path, 1, "header-hygiene",
               "header does not compile stand-alone: " +
                   first_line(output)});
        }
      } else {
        std::lock_guard<std::mutex> lock(mu);
        local.push_back({h.rel_path, 1, "header-hygiene",
                         "failed to launch compiler '" + cfg.cxx + "'"});
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();

  std::error_code ec;
  fs::remove_all(tmp, ec);  // best effort

  report.headers_compiled += headers.size();
  for (Finding& f : local) report.findings.push_back(std::move(f));
}

}  // namespace fifl::lint
