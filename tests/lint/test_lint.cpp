// fifl-lint's own test bed: each fixture tree under tests/lint/fixtures/
// violates exactly one rule (R1-R3 or R5-R9; R4 is retired); `waived/`
// carries justified waivers for every violation and must lint clean;
// `unjustified/` shows that a waiver without a justification is itself a
// finding. The real repo scan (ctest `fifl_lint`) covers the
// exit-0-on-the-repo half.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#ifndef FIFL_LINT_BIN
#error "FIFL_LINT_BIN must point at the fifl-lint binary"
#endif
#ifndef FIFL_LINT_FIXTURES
#error "FIFL_LINT_FIXTURES must point at tests/lint/fixtures"
#endif
#ifndef FIFL_LINT_CXX
#error "FIFL_LINT_CXX must name the C++ compiler driver"
#endif

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_lint(const std::string& args) {
  const std::string cmd = std::string(FIFL_LINT_BIN) + " " + args + " 2>&1";
  LintRun result;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (!pipe) return result;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
    result.output.append(buf, n);
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& name) {
  return std::string("--root ") + FIFL_LINT_FIXTURES + "/" + name;
}

// Parse `file:line: rule-id: message` lines into rule-id multiset.
std::multiset<std::string> rule_ids(const std::string& output) {
  std::multiset<std::string> rules;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    // Findings have at least three ": "-separated fields.
    const std::size_t c1 = line.find(": ");
    if (c1 == std::string::npos) continue;
    const std::size_t c2 = line.find(": ", c1 + 2);
    if (c2 == std::string::npos) continue;
    const std::size_t colon_line = line.rfind(':', c1 - 1);
    if (colon_line == std::string::npos) continue;  // not file:line:...
    rules.insert(line.substr(c1 + 2, c2 - c1 - 2));
  }
  return rules;
}

TEST(FiflLint, R1UnorderedIterFires) {
  const LintRun run = run_lint(fixture("r1_unordered_iter") + " --no-headers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output),
            (std::multiset<std::string>{"unordered-iter"}))
      << run.output;
}

TEST(FiflLint, R2NondetSourceFires) {
  const LintRun run = run_lint(fixture("r2_nondet_source") + " --no-headers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output),
            (std::multiset<std::string>{"nondet-source"}))
      << run.output;
}

TEST(FiflLint, R3FpOrderFires) {
  const LintRun run = run_lint(fixture("r3_fp_order") + " --no-headers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output), (std::multiset<std::string>{"fp-order"}))
      << run.output;
}

TEST(FiflLint, R3KernelReductionFires) {
  // src/tensor/kernels/ is an fp-order path, and C-array lane accumulators
  // (`double lane[8]`) are tracked like scalar/vector declarations; the
  // unannotated `lane[l] +=` in the fixture is the only finding.
  const LintRun run = run_lint(fixture("r3_kernels") + " --no-headers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output), (std::multiset<std::string>{"fp-order"}))
      << run.output;
  EXPECT_NE(run.output.find("'lane'"), std::string::npos) << run.output;
}

TEST(FiflLint, R3NnReductionFires) {
  // src/nn/ is an fp-order path: an unannotated batch reduction in a layer
  // is the fixture's only finding.
  const LintRun run = run_lint(fixture("r3_nn") + " --no-headers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output), (std::multiset<std::string>{"fp-order"}))
      << run.output;
  EXPECT_NE(run.output.find("src/nn/bad_layer.cpp"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'acc'"), std::string::npos) << run.output;
}

TEST(FiflLint, R5HeaderHygieneFires) {
  const LintRun run =
      run_lint(fixture("r5_header") + " --cxx " + FIFL_LINT_CXX);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output),
            (std::multiset<std::string>{"header-hygiene"}))
      << run.output;
  EXPECT_NE(run.output.find("bad_header.hpp"), std::string::npos)
      << run.output;
}

TEST(FiflLint, R6LockOrderFires) {
  const LintRun run = run_lint(fixture("r6_lock_order") + " --no-headers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output),
            (std::multiset<std::string>{"lock-order", "lock-order"}))
      << run.output;
  // Both failure modes: the order inversion and the unannotated mutex.
  EXPECT_NE(run.output.find("contradicts the declared order"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'c_' has no"), std::string::npos) << run.output;
}

TEST(FiflLint, R7CvWaitPredicateFires) {
  const LintRun run = run_lint(fixture("r7_cv_wait") + " --no-headers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output),
            (std::multiset<std::string>{"cv-wait-predicate"}))
      << run.output;
  // The regression fixture mirrors the PR 8 delivery-loop hot-spin: the
  // predicate-less wait_for fires, the predicated wait does not.
  EXPECT_NE(run.output.find("delivery_loop.cpp:18"), std::string::npos)
      << run.output;
}

TEST(FiflLint, R8GuardedByFires) {
  const LintRun run = run_lint(fixture("r8_guarded_by") + " --no-headers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output), (std::multiset<std::string>{"guarded-by"}))
      << run.output;
  // The locked path is clean; only the unlocked access fires.
  EXPECT_NE(run.output.find("'hits_' is guarded by 'stats'"),
            std::string::npos)
      << run.output;
}

TEST(FiflLint, R9BlockingUnderLockFires) {
  const LintRun run = run_lint(fixture("r9_blocking") + " --no-headers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output),
            (std::multiset<std::string>{"blocking-under-lock"}))
      << run.output;
  EXPECT_NE(run.output.find("while holding 'flusher'"), std::string::npos)
      << run.output;
}

TEST(FiflLint, JustifiedWaiversSuppressFindings) {
  const LintRun run = run_lint(fixture("waived") + " --no-headers");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(rule_ids(run.output).empty()) << run.output;
  // The summary still reports the waived count.
  EXPECT_NE(run.output.find("waived"), std::string::npos) << run.output;
}

TEST(FiflLint, ListWaiversAuditsAllWaivers) {
  const LintRun run =
      run_lint(fixture("waived") + " --no-headers --list-waivers");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("allow(unordered-iter)"), std::string::npos);
  EXPECT_NE(run.output.find("allow(nondet-source)"), std::string::npos);
  EXPECT_NE(run.output.find("allow(fp-order)"), std::string::npos);
  EXPECT_NE(run.output.find("allow(lock-order)"), std::string::npos);
  EXPECT_NE(run.output.find("allow(cv-wait-predicate)"), std::string::npos);
  EXPECT_NE(run.output.find("allow(guarded-by)"), std::string::npos);
  EXPECT_NE(run.output.find("allow(blocking-under-lock)"), std::string::npos);
  EXPECT_NE(run.output.find("7 waiver(s)"), std::string::npos) << run.output;
}

TEST(FiflLint, AuditWaiversPassesOnJustifiedUsedWaivers) {
  const LintRun run =
      run_lint(fixture("waived") + " --no-headers --audit-waivers");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 failing audit"), std::string::npos)
      << run.output;
}

TEST(FiflLint, AuditWaiversFailsOnUnjustifiedWaiver) {
  const LintRun run =
      run_lint(fixture("unjustified") + " --no-headers --audit-waivers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("(UNJUSTIFIED)"), std::string::npos)
      << run.output;
  // Both the classic R1 waiver and the satellite concurrency case: an R9
  // waiver whose justification was dropped is flagged, not silently kept.
  EXPECT_NE(run.output.find("allow(blocking-under-lock) -- (UNJUSTIFIED)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("2 failing audit"), std::string::npos)
      << run.output;
}

TEST(FiflLint, UnjustifiedWaiverIsAFinding) {
  const LintRun run = run_lint(fixture("unjustified") + " --no-headers");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(rule_ids(run.output),
            (std::multiset<std::string>{"waiver-justification",
                                        "waiver-justification"}))
      << run.output;
}

TEST(FiflLint, JsonReportCarriesFindings) {
  const std::string json_path =
      ::testing::TempDir() + "/fifl_lint_fixture_report.json";
  const LintRun run = run_lint(fixture("r1_unordered_iter") +
                               " --no-headers --json " + json_path);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  FILE* f = std::fopen(json_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string json;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) json.append(buf, n);
  std::fclose(f);
  std::remove(json_path.c_str());
  EXPECT_NE(json.find("\"tool\":\"fifl-lint\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"active_findings\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"unordered-iter\":1"), std::string::npos) << json;
}

TEST(FiflLint, JsonReportCarriesPerRuleTotals) {
  const std::string json_path =
      ::testing::TempDir() + "/fifl_lint_rules_report.json";
  const LintRun run = run_lint(fixture("r6_lock_order") +
                               " --no-headers --json " + json_path);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  FILE* f = std::fopen(json_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string json;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) json.append(buf, n);
  std::fclose(f);
  std::remove(json_path.c_str());
  // The "rules" object covers the full rule set, zeroes included, split
  // into active vs waived.
  EXPECT_NE(json.find("\"rules\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lock-order\":{\"active\":2,\"waived\":0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cv-wait-predicate\":{\"active\":0,\"waived\":0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"blocking-under-lock\":{\"active\":0,\"waived\":0}"),
            std::string::npos)
      << json;
}

TEST(FiflLint, UnknownFlagExitsWithUsageError) {
  const LintRun run = run_lint("--definitely-not-a-flag");
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace
