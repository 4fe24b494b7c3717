#include "chain/ledger.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace fifl::chain {
namespace {

class LedgerTest : public ::testing::Test {
 protected:
  LedgerTest() : registry_(123), ledger_(&registry_) {
    for (NodeId n = 0; n < 5; ++n) registry_.register_node(n);
  }
  KeyRegistry registry_;
  Ledger ledger_;
};

TEST_F(LedgerTest, AppendAndSeal) {
  ledger_.append(RecordKind::kDetection, 0, 1, 0, 1.0);
  ledger_.append(RecordKind::kReputation, 0, 1, 0, 0.5);
  EXPECT_EQ(ledger_.pending_records(), 2u);
  const auto idx = ledger_.seal_block();
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(ledger_.pending_records(), 0u);
  EXPECT_EQ(ledger_.block_count(), 1u);
  EXPECT_EQ(ledger_.block(0).records.size(), 2u);
}

TEST_F(LedgerTest, AppendUnregisteredExecutorThrows) {
  EXPECT_THROW(ledger_.append(RecordKind::kReward, 0, 1, 99, 1.0),
               std::invalid_argument);
}

TEST_F(LedgerTest, ChainVerifiesWhenClean) {
  for (std::uint64_t r = 0; r < 3; ++r) {
    for (NodeId w = 0; w < 3; ++w) {
      ledger_.append(RecordKind::kReputation, r, w, 0, 0.1 * static_cast<double>(w));
    }
    ledger_.seal_block();
  }
  EXPECT_TRUE(ledger_.verify_chain());
}

TEST_F(LedgerTest, BlocksAreHashLinked) {
  ledger_.append(RecordKind::kReward, 0, 1, 0, 1.0);
  ledger_.seal_block();
  ledger_.append(RecordKind::kReward, 1, 1, 0, 2.0);
  ledger_.seal_block();
  EXPECT_EQ(ledger_.block(1).previous_hash, ledger_.block(0).block_hash);
}

TEST_F(LedgerTest, QueryFiltersCombine) {
  ledger_.append(RecordKind::kDetection, 0, 1, 0, 1.0);
  ledger_.append(RecordKind::kDetection, 0, 2, 0, 0.0);
  ledger_.append(RecordKind::kReputation, 0, 1, 0, 0.9);
  ledger_.seal_block();
  ledger_.append(RecordKind::kDetection, 1, 1, 0, 1.0);
  ledger_.seal_block();

  EXPECT_EQ(ledger_.query(RecordKind::kDetection, std::nullopt, std::nullopt).size(), 3u);
  EXPECT_EQ(ledger_.query(RecordKind::kDetection, 0, std::nullopt).size(), 2u);
  EXPECT_EQ(ledger_.query(RecordKind::kDetection, std::nullopt, NodeId{1}).size(), 2u);
  EXPECT_EQ(ledger_.query(std::nullopt, 0, NodeId{1}).size(), 2u);
  EXPECT_EQ(ledger_.query(std::nullopt, std::nullopt, std::nullopt).size(), 4u);
}

TEST_F(LedgerTest, PendingRecordsAreNotQueryable) {
  ledger_.append(RecordKind::kReward, 0, 1, 0, 1.0);
  EXPECT_TRUE(ledger_.query(RecordKind::kReward, std::nullopt, std::nullopt).empty());
}

TEST_F(LedgerTest, LatestReturnsMostRecent) {
  ledger_.append(RecordKind::kReputation, 0, 1, 0, 0.1);
  ledger_.seal_block();
  ledger_.append(RecordKind::kReputation, 1, 1, 0, 0.2);
  ledger_.seal_block();
  const auto rec = ledger_.latest(RecordKind::kReputation, 1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_DOUBLE_EQ(rec->value, 0.2);
  EXPECT_FALSE(ledger_.latest(RecordKind::kReputation, 4).has_value());
}

TEST_F(LedgerTest, MerkleProofForRecord) {
  for (int i = 0; i < 5; ++i) {
    ledger_.append(RecordKind::kContribution, 0, static_cast<NodeId>(i), 0,
                   static_cast<double>(i));
  }
  ledger_.seal_block();
  const Block& block = ledger_.block(0);
  const auto proof = ledger_.prove_record(0, 3);
  EXPECT_TRUE(MerkleTree::verify(block.records[3].digest(), proof,
                                 block.merkle_root));
  EXPECT_FALSE(MerkleTree::verify(block.records[2].digest(), proof,
                                  block.merkle_root));
}

/// Checks every record's proof in block `b` against a tree built afresh
/// from the block's records, and against the block's root.
void expect_proofs_match_fresh_tree(const Ledger& ledger, std::size_t b) {
  const Block& block = ledger.block(b);
  std::vector<Digest> leaves;
  for (const AuditRecord& rec : block.records) leaves.push_back(rec.digest());
  const MerkleTree fresh(leaves);
  ASSERT_EQ(fresh.root(), block.merkle_root) << "block " << b;
  for (std::size_t i = 0; i < block.records.size(); ++i) {
    const MerkleProof proof = ledger.prove_record(b, i);
    const MerkleProof expected = fresh.prove(i);
    ASSERT_EQ(proof.size(), expected.size()) << "block " << b << " record " << i;
    for (std::size_t s = 0; s < proof.size(); ++s) {
      EXPECT_EQ(proof[s].sibling, expected[s].sibling)
          << "block " << b << " record " << i << " step " << s;
      EXPECT_EQ(proof[s].sibling_on_left, expected[s].sibling_on_left)
          << "block " << b << " record " << i << " step " << s;
    }
    EXPECT_TRUE(MerkleTree::verify(leaves[i], proof, block.merkle_root))
        << "block " << b << " record " << i;
  }
  EXPECT_THROW((void)ledger.prove_record(b, block.records.size()),
               std::out_of_range);
}

TEST_F(LedgerTest, ProofsMatchAFreshTreeForNewestAndOlderBlocks) {
  // Odd and even record counts, so both tree shapes (the duplicated last
  // node and the full level) are served from the kept tree.
  const std::size_t widths[] = {7, 32, 1, 12};
  for (std::size_t b = 0; b < std::size(widths); ++b) {
    for (std::size_t i = 0; i < widths[b]; ++i) {
      ledger_.append(RecordKind::kReputation, b,
                     static_cast<NodeId>(i % 5), static_cast<NodeId>(b % 5),
                     0.01 * static_cast<double>(i));
    }
    ledger_.seal_block();
    // The newest block (kept tree) and every older one (rebuilt), also
    // once this block is no longer the newest.
    for (std::size_t older = 0; older <= b; ++older) {
      expect_proofs_match_fresh_tree(ledger_, older);
    }
  }
}

TEST_F(LedgerTest, AuditValueFlagsDeviatingExecutors) {
  // Server 0 records the true value for worker 1; server 2 records a
  // manipulated value.
  ledger_.append(RecordKind::kReputation, 0, 1, 0, 0.8);
  ledger_.append(RecordKind::kReputation, 0, 1, 2, 0.99);
  ledger_.seal_block();
  const auto cheats = ledger_.audit_value(RecordKind::kReputation, 0, 1, 0.8);
  ASSERT_EQ(cheats.size(), 1u);
  EXPECT_EQ(cheats[0], NodeId{2});
}

TEST_F(LedgerTest, AuditValueToleranceRespected) {
  ledger_.append(RecordKind::kReward, 0, 1, 0, 1.0 + 1e-12);
  ledger_.seal_block();
  EXPECT_TRUE(ledger_.audit_value(RecordKind::kReward, 0, 1, 1.0, 1e-9).empty());
  EXPECT_EQ(ledger_.audit_value(RecordKind::kReward, 0, 1, 1.0, 1e-15).size(), 1u);
}

TEST_F(LedgerTest, CanonicalPayloadDistinguishesFields) {
  AuditRecord a{RecordKind::kReward, 1, 2, 3, 4.0, {}};
  AuditRecord b = a;
  b.round = 2;
  EXPECT_NE(a.canonical_payload(), b.canonical_payload());
  b = a;
  b.subject = 9;
  EXPECT_NE(a.canonical_payload(), b.canonical_payload());
  b = a;
  b.value = 4.0000001;
  EXPECT_NE(a.canonical_payload(), b.canonical_payload());
}

// The signed and hashed payload bytes, recorded with the ostringstream and
// snprintf("%a") code that built them before std::to_chars did: every
// kind, the widest round and node ids, and values whose %a spelling is
// irregular (signed zero, subnormals, inf, nan).
TEST(AuditRecordPayload, MatchesRecordedBytesForEveryKindAndValue) {
  const std::string ids = "|18446744073709551615|4294967295|4294967295|";
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, std::string>> values = {
      {0.0, "0x0p+0"},
      {-0.0, "-0x0p+0"},
      {std::numeric_limits<double>::denorm_min(), "0x0.0000000000001p-1022"},
      {-2.5e-310, "-0x0.02e055c9a3f6cp-1022"},
      {inf, "inf"},
      {-inf, "-inf"},
      {nan, "nan"},
      {-nan, "-nan"},
      {DBL_MAX, "0x1.fffffffffffffp+1023"},
      {DBL_MIN, "0x1p-1022"},
      {-1.0, "-0x1p+0"},
      {0.1, "0x1.999999999999ap-4"},
  };
  const std::vector<std::pair<RecordKind, std::string>> kinds = {
      {RecordKind::kDetection, "detection"},
      {RecordKind::kReputation, "reputation"},
      {RecordKind::kContribution, "contribution"},
      {RecordKind::kReward, "reward"},
      {RecordKind::kServerSelection, "server_selection"},
  };
  for (const auto& [kind, name] : kinds) {
    for (const auto& [value, spelled] : values) {
      AuditRecord rec;
      rec.kind = kind;
      rec.round = std::numeric_limits<std::uint64_t>::max();
      rec.subject = std::numeric_limits<NodeId>::max();
      rec.executor = std::numeric_limits<NodeId>::max();
      rec.value = value;
      EXPECT_EQ(rec.canonical_payload(), name + ids + spelled);
    }
  }
  EXPECT_EQ(AuditRecord{}.canonical_payload(), "detection|0|0|0|0x0p+0");
}

// The value field is spelled as glibc's "%a" spells it for any double:
// random bit patterns, a quarter each with the exponent field forced to
// 0 (zero and subnormals) or all ones (inf and nan payloads).
TEST(AuditRecordPayload, ValueMatchesPrintfHexForRandomBitPatterns) {
  util::Rng rng(0xa11ce);
  for (int i = 0; i < 200000; ++i) {
    std::uint64_t bits = rng.next();
    if (i % 4 == 1) bits &= 0x800fffffffffffffull;
    if (i % 4 == 2) bits |= 0x7ff0000000000000ull;
    if (i % 4 == 3) bits &= 0xfff0000000000000ull | (rng.next() & 0xff);
    AuditRecord rec;
    rec.value = std::bit_cast<double>(bits);
    char expected[40];
    std::snprintf(expected, sizeof expected, "%a", rec.value);
    const std::string payload = rec.canonical_payload();
    ASSERT_EQ(payload.substr(payload.rfind('|') + 1), expected)
        << "bits " << std::hex << bits;
  }
}

TEST(Ledger, NullRegistryThrows) {
  EXPECT_THROW(Ledger(nullptr), std::invalid_argument);
}

TEST(Ledger, EmptyBlockSealsAndVerifies) {
  KeyRegistry reg(1);
  Ledger ledger(&reg);
  ledger.seal_block();
  EXPECT_EQ(ledger.block_count(), 1u);
  EXPECT_TRUE(ledger.verify_chain());
}

}  // namespace
}  // namespace fifl::chain
