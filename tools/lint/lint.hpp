// fifl-lint: repo-specific determinism and hygiene linter.
//
// The whole FIFL pipeline rests on replicated engines computing identical
// bytes from identical inputs (DESIGN.md "Determinism invariants").  The
// rules here make the classes of bugs that silently break that invariant
// machine-checkable at lint time instead of surfacing as a flaky bit-for-bit
// diff in the keystone tests:
//
//   R1 unordered-iter    iteration over std::unordered_{map,set} leaks hash
//                        order into bytes; lookup is fine, iteration is not.
//   R2 nondet-source     rand()/std::random_device/time()/*_clock::now() as a
//                        value source outside the seeded-RNG, observability
//                        and transport-timeout allowlist.
//   R3 fp-order          floating-point reduction over container iteration
//                        without an `// order:` annotation naming the
//                        ordering guarantee (FP addition is not associative).
//   R5 header-hygiene    every .hpp must compile stand-alone (checked by
//                        generating a one-include TU per header).
//
// (R4, msgtype-coverage, is retired: src/net/messages.hpp makes a
// MessageType without a name, a listed message without a field list, or a
// message list that misses a tag up to kLastMessageType a compile error,
// and tests/net/test_messages.cpp runs its codec properties over that
// same list.)
//
// The concurrency rules (tools/lint/concurrency.cpp) extend the same idea
// to lock discipline — races and deadlocks are just nondeterminism with
// worse failure modes:
//
//   R6 lock-order            every mutex/condition_variable declaration
//                            carries `// lock-order: <name> [before ...]`;
//                            the observed acquisition graph must respect
//                            the declared hierarchy and contain no cycles.
//   R7 cv-wait-predicate     cv wait/wait_for/wait_until must use the
//                            predicate overload.
//   R8 guarded-by            fields in a mutex's `// guards a_, b_` list
//                            are only touched while that mutex is held.
//   R9 blocking-under-lock   sleeps, joins and socket I/O never run under
//                            a held lock.
//
// Findings print as `file:line: rule-id: message`; a JSON report mirroring
// the fifl::obs bench-output shape is emitted with --json.  Violations can
// be waived in place with
//
//   // fifl-lint: allow(rule-id) -- justification
//
// on the offending line or the line directly above; a waiver without a
// justification is itself a finding (waiver-justification).
#pragma once

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fifl::lint {

struct Finding {
  std::string file;  // path relative to the scan root
  std::size_t line = 0;
  std::string rule;
  std::string message;
  bool waived = false;
};

struct Waiver {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string justification;
  bool used = false;
};

// A source file split into raw lines plus a comment/string-blanked shadow
// copy (`code`) that rules match against, so banned identifiers inside
// comments or string literals never fire.
struct SourceFile {
  std::filesystem::path abs_path;
  std::string rel_path;  // forward-slash path relative to the scan root
  std::vector<std::string> raw;      // original lines
  std::vector<std::string> code;     // comments/strings blanked with spaces
  std::vector<std::string> comment;  // comment text per line ("" if none)
};

struct Config {
  std::filesystem::path root;
  // C++ compiler driver for the header-hygiene rule; empty disables R5.
  std::string cxx;
  // Extra -I directories (relative to root) for R5; src/ is always added.
  std::vector<std::string> extra_includes;
  bool check_headers = true;
  // Directories under root to scan (relative, forward slashes).
  std::vector<std::string> scan_dirs = {"src", "tests", "bench", "examples"};
  // Path fragments that exclude a file from scanning entirely.
  std::vector<std::string> exclude_fragments = {"tests/lint/fixtures/"};
  // R2 allowlist: files/directories (prefix match on rel_path) where
  // wall-clock and entropy sources are legitimate by design.
  std::vector<std::string> nondet_allow = {
      "src/util/rng.hpp",     // the seeded RNG itself
      "src/util/logging.cpp", // timestamped log lines
      "src/obs/",             // observability layer measures wall time
      "src/net/tcp.cpp",      // socket timeouts / retry backoff
      "src/net/fault.cpp",    // delay-injection needs real deadlines
      "src/net/node.cpp",     // event-loop phase/join/liveness deadlines
      "src/net/transport.cpp" // blocking receive timeouts
  };
  // R1/R3 only fire on deterministic-output paths.
  std::vector<std::string> det_paths = {"src/"};
  // src/tensor/ and src/nn/ are the training path: θ and every upload
  // depend on their per-element operation order.
  std::vector<std::string> fp_paths = {"src/core/", "src/net/", "src/chain/",
                                       "src/tensor/", "src/nn/"};
  // R6-R9 scope: the deterministic service substrate. Tests/bench spin up
  // ad-hoc threads with ad-hoc locking; the discipline applies to src/.
  std::vector<std::string> lock_paths = {"src/"};
  // Files exempt from R6-R9 (prefix match). The annotation shim wraps a
  // std::mutex by definition and cannot name its own level.
  std::vector<std::string> lock_exclude = {"src/util/thread_annotations.hpp"};
};

struct Report {
  std::vector<Finding> findings;  // waived ones included, flagged
  std::vector<Waiver> waivers;
  std::size_t files_scanned = 0;
  std::size_t headers_compiled = 0;

  // Unwaived findings determine the exit code.
  std::size_t active_count() const;
  std::map<std::string, std::size_t> counts_by_rule() const;
};

// Load + pre-process one file (comment/string blanking, per-line comments).
SourceFile load_source(const std::filesystem::path& abs,
                       const std::string& rel);

// Waiver parsing over a file's comments.
std::vector<Waiver> collect_waivers(const SourceFile& f);

// Individual rules (exposed for unit testing).
void rule_unordered_iter(const SourceFile& f, const Config& cfg,
                         std::vector<Finding>& out);
void rule_nondet_source(const SourceFile& f, const Config& cfg,
                        std::vector<Finding>& out);
void rule_fp_order(const SourceFile& f, const Config& cfg,
                   std::vector<Finding>& out);
void rule_header_hygiene(const std::vector<SourceFile>& files,
                         const Config& cfg, Report& report);
// R6-R9 share one cross-TU pass (declarations, lock-scope tracking and the
// acquisition graph are common infrastructure).
void rule_concurrency(const std::vector<SourceFile>& files, const Config& cfg,
                      std::vector<Finding>& out);

// Every rule id the linter can emit, in rule order (R1-R3 and R5-R9 plus
// the waiver audit); the JSON report carries a count for each, including zeroes.
const std::vector<std::string>& all_rule_ids();

// Run everything over the tree. Returns the full report.
Report run(const Config& cfg);

// True if `rel` starts with any of `prefixes` (forward-slash paths).
bool path_matches_any(const std::string& rel,
                      const std::vector<std::string>& prefixes);

// Serialize the report as JSON (shape mirrors fifl::obs bench output:
// top-level tool/root/counts plus a findings array).
std::string to_json(const Report& report, const Config& cfg);

}  // namespace fifl::lint
