// Thread-count keystone for the assessment path. FiflEngine::process_round
// runs detection, contribution, aggregation and the ledger's record
// digests as tasks on the global pool, each output element written by one
// task in the serial order (DESIGN.md "Assessment path"). The same rounds
// run once from the test thread, where every phase splits into several
// tasks, and once inside a pool task, where util::parallel_for runs
// serially; both must produce the same bytes, and those bytes are pinned
// to a hash recorded before the assessment path ran on the pool.
//
// ctest runs this binary twice: as-is (AVX2 where the CPU has it) and as
// parallel_assessment_scalar_env under FIFL_KERNEL_ISA=scalar, so the same
// constant pins both kernel backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/sha256.hpp"
#include "core/contribution.hpp"
#include "core/detection.hpp"
#include "core/fifl.hpp"
#include "fl/attacks.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fifl::core {
namespace {

constexpr std::size_t kWorkers = 40;
constexpr std::size_t kAttackers = 8;  // the highest worker ids
// Five aggregation blocks of 4096, the last one short, and a width that
// is no multiple of the kernels' 16 lanes.
constexpr std::size_t kWidth = 16411;
constexpr std::size_t kServers = 4;
constexpr std::size_t kRounds = 4;
constexpr std::size_t kNonFiniteWorker = 5;  // in round 1

FiflConfig config() {
  FiflConfig cfg;
  cfg.servers = kServers;
  cfg.detection.threshold = 0.1;
  return cfg;
}

fl::BehaviourPtr attack(std::size_t i) {
  switch (i % 3) {
    case 0: return std::make_unique<fl::SignFlipBehaviour>(6.0);
    case 1: return std::make_unique<fl::GaussianNoiseBehaviour>(1.0);
    default: return std::make_unique<fl::FreeRiderBehaviour>(0.01);
  }
}

// Honest uploads share a per-round direction plus noise. Round 0 loses
// worker 0, a first-round server member, so benchmark substitution runs;
// round 2 loses one more worker; round 1 carries one NaN upload.
const std::vector<std::vector<fl::Upload>>& rounds() {
  static const std::vector<std::vector<fl::Upload>> bank = [] {
    util::Rng rng(2021);
    std::vector<std::vector<fl::Upload>> out(kRounds);
    for (std::size_t r = 0; r < kRounds; ++r) {
      std::vector<float> direction(kWidth);
      for (float& v : direction) v = static_cast<float>(rng.gaussian());
      out[r].resize(kWorkers);
      for (std::size_t i = 0; i < kWorkers; ++i) {
        fl::Upload& up = out[r][i];
        up.worker = static_cast<chain::NodeId>(i);
        up.samples = 100 + 10 * i;
        up.arrived = !(r == 0 && i == 0) && !(r == 2 && i == 13);
        if (!up.arrived) continue;
        fl::Gradient g(kWidth);
        for (std::size_t k = 0; k < kWidth; ++k) {
          g[k] = direction[k] + static_cast<float>(rng.gaussian(0.0, 1.0));
        }
        if (i >= kWorkers - kAttackers) {
          const fl::BehaviourPtr behaviour = attack(i);
          if (behaviour->skips_training()) g.zero();
          g = behaviour->transform(std::move(g), rng);
          up.ground_truth_attack = true;
        }
        if (r == 1 && i == kNonFiniteWorker) {
          g[kWidth / 2] = std::numeric_limits<float>::quiet_NaN();
        }
        up.gradient = std::move(g);
      }
    }
    return out;
  }();
  return bank;
}

template <typename T>
std::string digest_of(std::span<const T> values) {
  return chain::to_hex(chain::sha256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size_bytes())));
}

struct Field {
  std::string label;
  std::string digest;
};

// Every RoundReport output of every round, plus the ledger tip, as one
// SHA-256 per field.
std::vector<Field> run_rounds() {
  FiflEngine engine(config(), kWorkers, kWidth);
  std::vector<Field> fields;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const RoundReport report = engine.process_round(rounds()[r]);
    const auto add = [&](const char* name, auto values) {
      fields.push_back(
          {"round " + std::to_string(r) + " " + name, digest_of(values)});
    };
    const double threshold = report.contribution.threshold;
    const double fairness = report.fairness;
    add("servers", std::span<const chain::NodeId>(report.servers));
    add("scores", std::span<const double>(report.detection.scores));
    for (const auto& column : report.detection.server_scores) {
      add("server_scores", std::span<const double>(column));
    }
    add("accepted", std::span<const int>(report.detection.accepted));
    add("uncertain", std::span<const int>(report.detection.uncertain));
    add("global_gradient", report.global_gradient.flat());
    add("distances", std::span<const double>(report.contribution.distances));
    add("contribution_threshold", std::span<const double>(&threshold, 1));
    add("contributions",
        std::span<const double>(report.contribution.contributions));
    add("rewards", std::span<const double>(report.rewards));
    add("reputations", std::span<const double>(report.reputations));
    add("fairness", std::span<const double>(&fairness, 1));
  }
  const chain::Ledger& ledger = engine.ledger();
  fields.push_back({"ledger tip", chain::to_hex(ledger.block(
                                      ledger.block_count() - 1).block_hash)});
  return fields;
}

std::string combined_digest(const std::vector<Field>& fields) {
  std::string all;
  for (const Field& f : fields) all += f.label + '=' + f.digest + '\n';
  return chain::to_hex(chain::sha256(all));
}

TEST(ParallelAssessment, ScenarioExercisesEveryPath) {
  FiflEngine engine(config(), kWorkers, kWidth);
  const RoundReport r0 = engine.process_round(rounds()[0]);
  EXPECT_EQ(std::count(r0.servers.begin(), r0.servers.end(), 0u), 0)
      << "lost member 0 must be substituted";
  EXPECT_EQ(r0.detection.uncertain[0], 1);
  const RoundReport r1 = engine.process_round(rounds()[1]);
  EXPECT_EQ(r1.detection.accepted[kNonFiniteWorker], 0);
  EXPECT_TRUE(std::isinf(r1.contribution.distances[kNonFiniteWorker]));
  std::size_t accepted = 0, rejected_attackers = 0;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    accepted += static_cast<std::size_t>(r1.detection.accepted[i]);
    if (i >= kWorkers - kAttackers && !r1.detection.accepted[i]) {
      ++rejected_attackers;
    }
  }
  EXPECT_GT(accepted, kWorkers / 2);
  EXPECT_GT(rejected_attackers, 0u);
}

TEST(ParallelAssessment, PoolTaskAndTestThreadGiveIdenticalBytes) {
  // From the test thread every phase fans out over the pool; inside a pool
  // task parallel_for falls back to one serial loop.
  const std::vector<Field> parallel = run_rounds();
  const std::vector<Field> serial =
      util::ThreadPool::global().submit([] { return run_rounds(); }).get();
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t k = 0; k < parallel.size(); ++k) {
    EXPECT_EQ(parallel[k].label, serial[k].label);
    EXPECT_EQ(parallel[k].digest, serial[k].digest) << parallel[k].label;
  }
}

TEST(ParallelAssessment, OutputsMatchRecordedBytes) {
  EXPECT_EQ(combined_digest(run_rounds()),
            "8814cf487d411f3518217d9bf7717ac936fb81bdde8c091ee4862717042b94af");
}

TEST(ParallelAssessment, WrongWidthUploadThrowsWherever) {
  const fl::SlicePlan plan(kWidth, kServers);
  std::vector<std::vector<float>> benchmark;
  for (std::size_t j = 0; j < kServers; ++j) {
    benchmark.emplace_back(plan.slice_size(j), 1.0f);
  }
  const DetectionModule detection(config().detection);
  const ContributionModule contribution(config().contribution);
  const fl::Gradient global(kWidth);
  for (const std::size_t bad : {std::size_t{0}, std::size_t{29}, kWorkers - 1}) {
    std::vector<fl::Upload> uploads = rounds()[1];
    uploads[bad].gradient = fl::Gradient(kWidth - 1);
    EXPECT_THROW((void)detection.run(uploads, plan, benchmark),
                 std::invalid_argument)
        << "upload " << bad;
    EXPECT_THROW((void)contribution.run(uploads, global), std::invalid_argument)
        << "upload " << bad;
    FiflEngine engine(config(), kWorkers, kWidth);
    EXPECT_THROW((void)engine.process_round(uploads), std::invalid_argument)
        << "upload " << bad;
  }
}

}  // namespace
}  // namespace fifl::core
