// Golden digests of merge SpGEMM: C (offsets, columns, value bits) and
// the device log (name, grid, counters, modeled time bits) of every
// entry point, pinned to recorded resilience::checksum_bytes digests.
// The SpGEMM host code may compute C any way it likes; these digests
// hold it to seq::spgemm's output bits and to the same charges.
//
// Integrity-guard launches (MPS_INTEGRITY_CHECK) are left out of the log
// digest, and fault injection is off, so the digests hold under every
// CI environment.  A change that moves a modeled SpGEMM bit on purpose
// re-records the table and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/spgemm.hpp"
#include "golden.hpp"
#include "oracle.hpp"
#include "sparse/convert.hpp"
#include "vgpu/device.hpp"
#include "workloads/suite.hpp"

namespace mps {
namespace {

using core::merge::SpgemmConfig;
using testing::Golden;
using testing::GoldenTable;
using testing::kAllRegimes;
using testing::kFuzzSeeds;
using testing::make_regime_matrix;
using testing::regime_name;

// The log column was recorded from the implementation that emulated
// both radix sorts element by element and must never move: it is the
// proof that the charges are those of the modeled kernel.  The output
// column holds seq::spgemm's bits (the canonical Gustavson order).
constexpr Golden kRegimeGolden[] = {
    {"uniform/1/flat", 0x6b61955a49d0f920ULL, 0x5ac08b89a3be5869ULL},
    {"uniform/1/pair", 0x6b61955a49d0f920ULL, 0x5886a9f365cff2f5ULL},
    {"uniform/1/full", 0x6b61955a49d0f920ULL, 0x159b0e402ca2adfcULL},
    {"uniform/1/planned", 0x6b61955a49d0f920ULL, 0x5ac08b89a3be5869ULL},
    {"uniform/2/flat", 0xd609a250dc3e43feULL, 0xc09b1980a75dc215ULL},
    {"uniform/2/pair", 0xd609a250dc3e43feULL, 0x4b46183c41bb6a30ULL},
    {"uniform/2/full", 0xd609a250dc3e43feULL, 0x37c5ed8a3ac72d5cULL},
    {"uniform/2/planned", 0xd609a250dc3e43feULL, 0xc09b1980a75dc215ULL},
    {"uniform/3/flat", 0x0e028a59dd10c90eULL, 0xf7dd17ec32fa89f1ULL},
    {"uniform/3/pair", 0x0e028a59dd10c90eULL, 0xbb5e2e8804540e24ULL},
    {"uniform/3/full", 0x0e028a59dd10c90eULL, 0x6763ee8f4bdd3520ULL},
    {"uniform/3/planned", 0x0e028a59dd10c90eULL, 0xf7dd17ec32fa89f1ULL},
    {"banded/1/flat", 0x78da3d4ec76eaac6ULL, 0x2f75ed78b0cdc5f7ULL},
    {"banded/1/pair", 0x78da3d4ec76eaac6ULL, 0x00e383e917beacddULL},
    {"banded/1/full", 0x78da3d4ec76eaac6ULL, 0x57c9c4362ce1f94eULL},
    {"banded/1/planned", 0x78da3d4ec76eaac6ULL, 0x2f75ed78b0cdc5f7ULL},
    {"banded/2/flat", 0xde95de35127cdcfcULL, 0xd305750c39792423ULL},
    {"banded/2/pair", 0xde95de35127cdcfcULL, 0x0d74b1a0d952d8dfULL},
    {"banded/2/full", 0xde95de35127cdcfcULL, 0x68937e26ef2c6cc0ULL},
    {"banded/2/planned", 0xde95de35127cdcfcULL, 0xd305750c39792423ULL},
    {"banded/3/flat", 0x9c3f3c34d6a452b5ULL, 0x0b904a91191f7644ULL},
    {"banded/3/pair", 0x9c3f3c34d6a452b5ULL, 0xad6043cb03b79796ULL},
    {"banded/3/full", 0x9c3f3c34d6a452b5ULL, 0x7c529890e498c312ULL},
    {"banded/3/planned", 0x9c3f3c34d6a452b5ULL, 0x0b904a91191f7644ULL},
    {"powerlaw/1/flat", 0xc4fd99680bed5fb9ULL, 0x0a706937420192a0ULL},
    {"powerlaw/1/pair", 0xc4fd99680bed5fb9ULL, 0x4c2aea1967b22807ULL},
    {"powerlaw/1/full", 0xc4fd99680bed5fb9ULL, 0x7334dfdd31c5a7deULL},
    {"powerlaw/1/planned", 0xc4fd99680bed5fb9ULL, 0x0a706937420192a0ULL},
    {"powerlaw/2/flat", 0xcb4227f8d42b61b0ULL, 0x4e36dd319cc49b6eULL},
    {"powerlaw/2/pair", 0xcb4227f8d42b61b0ULL, 0x940c242e0c9abfd5ULL},
    {"powerlaw/2/full", 0xcb4227f8d42b61b0ULL, 0x9047aab0a7328b45ULL},
    {"powerlaw/2/planned", 0xcb4227f8d42b61b0ULL, 0x4e36dd319cc49b6eULL},
    {"powerlaw/3/flat", 0x7f792b15a2020dbfULL, 0xc7c80df5664b6092ULL},
    {"powerlaw/3/pair", 0x7f792b15a2020dbfULL, 0x22f84c025411aeceULL},
    {"powerlaw/3/full", 0x7f792b15a2020dbfULL, 0xf7779ae1e80ab968ULL},
    {"powerlaw/3/planned", 0x7f792b15a2020dbfULL, 0xc7c80df5664b6092ULL},
    {"hypersparse/1/flat", 0x79f2c4db5d2ac42dULL, 0x7de764099a719b54ULL},
    {"hypersparse/1/pair", 0x79f2c4db5d2ac42dULL, 0x5a6ffe960de5a0b6ULL},
    {"hypersparse/1/full", 0x79f2c4db5d2ac42dULL, 0xcb9d009c8829a887ULL},
    {"hypersparse/1/planned", 0x79f2c4db5d2ac42dULL, 0x7de764099a719b54ULL},
    {"hypersparse/2/flat", 0x65aac90c19e5825aULL, 0x740cddf1d8410a44ULL},
    {"hypersparse/2/pair", 0x65aac90c19e5825aULL, 0x8772b1d6dac701abULL},
    {"hypersparse/2/full", 0x65aac90c19e5825aULL, 0xce7d58c898ef8394ULL},
    {"hypersparse/2/planned", 0x65aac90c19e5825aULL, 0x740cddf1d8410a44ULL},
    {"hypersparse/3/flat", 0xf953df6724fd56d6ULL, 0x4cf339811da3c783ULL},
    {"hypersparse/3/pair", 0xf953df6724fd56d6ULL, 0x0980b7da1d701458ULL},
    {"hypersparse/3/full", 0xf953df6724fd56d6ULL, 0x86a8f4c1f6f78d28ULL},
    {"hypersparse/3/planned", 0xf953df6724fd56d6ULL, 0x4cf339811da3c783ULL},
    {"neardense/1/flat", 0xad1d4f6f747d0bb2ULL, 0xb03dab0fbb16b150ULL},
    {"neardense/1/pair", 0xad1d4f6f747d0bb2ULL, 0x30a2a348c7b76697ULL},
    {"neardense/1/full", 0xad1d4f6f747d0bb2ULL, 0x21581205063556ddULL},
    {"neardense/1/planned", 0xad1d4f6f747d0bb2ULL, 0xb03dab0fbb16b150ULL},
    {"neardense/2/flat", 0x7531659661b913f4ULL, 0x6eef13d09084ea70ULL},
    {"neardense/2/pair", 0x7531659661b913f4ULL, 0x2a1a384990bd9fa4ULL},
    {"neardense/2/full", 0x7531659661b913f4ULL, 0x1eda22f06f8b3d0bULL},
    {"neardense/2/planned", 0x7531659661b913f4ULL, 0x6eef13d09084ea70ULL},
    {"neardense/3/flat", 0x51d3c88bc15e2ee3ULL, 0x54ced0e0b6d1c0e2ULL},
    {"neardense/3/pair", 0x51d3c88bc15e2ee3ULL, 0x00ddc28754829fb0ULL},
    {"neardense/3/full", 0x51d3c88bc15e2ee3ULL, 0xef1510743c0349a9ULL},
    {"neardense/3/planned", 0x51d3c88bc15e2ee3ULL, 0x54ced0e0b6d1c0e2ULL},
    {"rectwide/1/flat", 0xb091d593df2c1f33ULL, 0x3f587163348c4c3aULL},
    {"rectwide/1/pair", 0xb091d593df2c1f33ULL, 0xd758d440a342d6a0ULL},
    {"rectwide/1/full", 0xb091d593df2c1f33ULL, 0xd676eb6f35b135dfULL},
    {"rectwide/1/planned", 0xb091d593df2c1f33ULL, 0x3f587163348c4c3aULL},
    {"rectwide/2/flat", 0xe303b072a28d0580ULL, 0xa931bbd575fbef75ULL},
    {"rectwide/2/pair", 0xe303b072a28d0580ULL, 0x9eaa834dc712cee0ULL},
    {"rectwide/2/full", 0xe303b072a28d0580ULL, 0xceee9f0eeb46b759ULL},
    {"rectwide/2/planned", 0xe303b072a28d0580ULL, 0xa931bbd575fbef75ULL},
    {"rectwide/3/flat", 0x5dcd4d10d58c4dc8ULL, 0x94ad085168476da8ULL},
    {"rectwide/3/pair", 0x5dcd4d10d58c4dc8ULL, 0x3a66824b0e52390fULL},
    {"rectwide/3/full", 0x5dcd4d10d58c4dc8ULL, 0xb776adbbd33c9b24ULL},
    {"rectwide/3/planned", 0x5dcd4d10d58c4dc8ULL, 0x94ad085168476da8ULL},
    {"recttall/1/flat", 0x98214c3fd88549afULL, 0x4a0c1ef1b92bc2f1ULL},
    {"recttall/1/pair", 0x98214c3fd88549afULL, 0xafbe1f9df013518cULL},
    {"recttall/1/full", 0x98214c3fd88549afULL, 0x1bc47c06d1437dedULL},
    {"recttall/1/planned", 0x98214c3fd88549afULL, 0x4a0c1ef1b92bc2f1ULL},
    {"recttall/2/flat", 0x470fd5e47432ad50ULL, 0xb1302102f8774cbeULL},
    {"recttall/2/pair", 0x470fd5e47432ad50ULL, 0x464616ad28dffe9fULL},
    {"recttall/2/full", 0x470fd5e47432ad50ULL, 0x1bdf9d510e0accdcULL},
    {"recttall/2/planned", 0x470fd5e47432ad50ULL, 0xb1302102f8774cbeULL},
    {"recttall/3/flat", 0xc39bfa8e17c724f5ULL, 0xbbd06da46748387aULL},
    {"recttall/3/pair", 0xc39bfa8e17c724f5ULL, 0xe293135dfca955dfULL},
    {"recttall/3/full", 0xc39bfa8e17c724f5ULL, 0x2aaff1044a6c513cULL},
    {"recttall/3/planned", 0xc39bfa8e17c724f5ULL, 0xbbd06da46748387aULL},
};

constexpr Golden kBlockGolden[] = {
    {"uniform/1/chunked", 0x6b61955a49d0f920ULL, 0x80ff2d815d97ffe3ULL},
    {"uniform/1/rowblock", 0x7edc84c85b1bdd99ULL, 0x77a5d7c5603830e5ULL},
    {"uniform/2/chunked", 0xd609a250dc3e43feULL, 0x29e6a109550d2157ULL},
    {"uniform/2/rowblock", 0x99ff3a8e87ade1aeULL, 0x7e40032d11ba2ea6ULL},
    {"uniform/3/chunked", 0x0e028a59dd10c90eULL, 0xd6471d2395a50c69ULL},
    {"uniform/3/rowblock", 0xdb104a30a93550aeULL, 0xdd424532a1e2e967ULL},
    {"banded/1/chunked", 0x78da3d4ec76eaac6ULL, 0xa1f690fd08537f67ULL},
    {"banded/1/rowblock", 0x5d0ef63a1d914793ULL, 0x0dc3df587e2efe26ULL},
    {"banded/2/chunked", 0xde95de35127cdcfcULL, 0x09311533e374185dULL},
    {"banded/2/rowblock", 0x80d868053ef731c2ULL, 0xf0889f113661b6cdULL},
    {"banded/3/chunked", 0x9c3f3c34d6a452b5ULL, 0x5e68d8ad95e5605dULL},
    {"banded/3/rowblock", 0x83e5ca561ecc7240ULL, 0x9fc40664683006e8ULL},
    {"powerlaw/1/chunked", 0xc4fd99680bed5fb9ULL, 0x0e686482bc926f15ULL},
    {"powerlaw/1/rowblock", 0xe69c377ac5ef867cULL, 0x1ddbb95d55353abdULL},
    {"powerlaw/2/chunked", 0xcb4227f8d42b61b0ULL, 0xe69c990db802a405ULL},
    {"powerlaw/2/rowblock", 0x3e0220d54cac1805ULL, 0x38fa81d7954be738ULL},
    {"powerlaw/3/chunked", 0x7f792b15a2020dbfULL, 0x4b5022b58ebc2918ULL},
    {"powerlaw/3/rowblock", 0x9097a87d632d6232ULL, 0x7ac74b51c7295c8dULL},
    {"hypersparse/1/chunked", 0x79f2c4db5d2ac42dULL, 0x6ff776e6f49d327aULL},
    {"hypersparse/1/rowblock", 0xef53d4b02d0cb625ULL, 0x3426b88bc56a04bcULL},
    {"hypersparse/2/chunked", 0x65aac90c19e5825aULL, 0xd546258c3bd86567ULL},
    {"hypersparse/2/rowblock", 0x08e8226781c8e369ULL, 0x5eb317a4267b6231ULL},
    {"hypersparse/3/chunked", 0xf953df6724fd56d6ULL, 0x9ec559a8466ac00cULL},
    {"hypersparse/3/rowblock", 0x3c95c5353445cc7bULL, 0x3f9167d2428bd59aULL},
    {"neardense/1/chunked", 0xad1d4f6f747d0bb2ULL, 0x85abb70ffb24a79dULL},
    {"neardense/1/rowblock", 0xd314bb9525261ea5ULL, 0xb715a51fa95d5b9dULL},
    {"neardense/2/chunked", 0x7531659661b913f4ULL, 0xccf614e1c82001f0ULL},
    {"neardense/2/rowblock", 0xeb460a8ebc3e4aa2ULL, 0xb3e82ef9fe120a2aULL},
    {"neardense/3/chunked", 0x51d3c88bc15e2ee3ULL, 0x242c7f7399f6440bULL},
    {"neardense/3/rowblock", 0xedc6342bd954c473ULL, 0x97081d1595b7fec7ULL},
    {"rectwide/1/chunked", 0xb091d593df2c1f33ULL, 0x24758780afc85378ULL},
    {"rectwide/1/rowblock", 0x691684691b10d360ULL, 0x7118954772132193ULL},
    {"rectwide/2/chunked", 0xe303b072a28d0580ULL, 0x64e1a7c474d52ae0ULL},
    {"rectwide/2/rowblock", 0x832a1e1d57afe6efULL, 0x0d290cd4efbc76b8ULL},
    {"rectwide/3/chunked", 0x5dcd4d10d58c4dc8ULL, 0x7619af3affbeea1bULL},
    {"rectwide/3/rowblock", 0xde8228f6041404e0ULL, 0x289e3d5dc35e2efdULL},
    {"recttall/1/chunked", 0x98214c3fd88549afULL, 0x69f7014dd789c2c3ULL},
    {"recttall/1/rowblock", 0x0c8e101d12506796ULL, 0x868e5caec8e20383ULL},
    {"recttall/2/chunked", 0x470fd5e47432ad50ULL, 0xbf1af2107c6fbbd1ULL},
    {"recttall/2/rowblock", 0xeca640c9f9e456daULL, 0x8b35a05d014cfe8bULL},
    {"recttall/3/chunked", 0xc39bfa8e17c724f5ULL, 0x07281284adb0be6aULL},
    {"recttall/3/rowblock", 0xb6c4e7757226d120ULL, 0xde7a83822d886eaeULL},
};

constexpr Golden kTable2Golden[] = {
    {"Dense", 0xaf05c04793f8e16fULL, 0x8f3d3f72f95d19bcULL},
    {"Protein", 0xd725f6f39b652bc4ULL, 0x91c4efb67ca22ea4ULL},
    {"Spheres", 0x8cce4e7af429ff9dULL, 0x3025ca8821ffba5fULL},
    {"Cantilever", 0x4de9aeaf7b600784ULL, 0xafdb12217818d591ULL},
    {"Wind Tunnel", 0xd28d68de550a20dbULL, 0x9b0fe7b2020693d6ULL},
    {"Harbor", 0xd17332504fdf345bULL, 0x934d5d488fe017b7ULL},
    {"QCD", 0x86e45e7180746f61ULL, 0xe77c76779738fb73ULL},
    {"Ship", 0xf15da08c1171571aULL, 0xe6d5c17dc724206aULL},
    {"Economics", 0xe96fd3e117baf327ULL, 0x7f8783d470ea68b5ULL},
    {"Epidemiology", 0x88998103613c8a8dULL, 0xe1e6da99334db264ULL},
    {"Accelerator", 0x04d38f35160a8a45ULL, 0x65cab1be54c338daULL},
    {"Circuit", 0x046c1b590dbfa86cULL, 0xdc6c79630d98acc2ULL},
    {"Webbase", 0x46c3cc01b90e7072ULL, 0x44a82ecf1e853aa0ULL},
    {"LP", 0xba3e9c80a53c1c60ULL, 0x021e5c6b00553912ULL},
};

/// A x B for regime matrices: B is the transpose of a second draw, so
/// the rectangular regimes conform (as tests/fuzz_ops_test.cpp does).
struct Operands {
  sparse::CsrD a, b;
};
Operands regime_operands(testing::Regime r, std::uint64_t seed) {
  return {make_regime_matrix(r, seed),
          sparse::transpose(make_regime_matrix(r, seed + 2000))};
}

std::string case_name(testing::Regime r, std::uint64_t seed,
                      const char* what) {
  return regime_name(r) + "/" + std::to_string(seed) + "/" + what;
}

// Flat spgemm at the default and both ablation configs, and the
// symbolic + numeric split, on every oracle regime and fuzz seed.
TEST(SpgemmGolden, RegimesFlatAblationAndPlanned) {
  GoldenTable table(kRegimeGolden);
  SpgemmConfig pair;
  pair.force_pair_sort = true;
  SpgemmConfig full;
  full.force_full_bits = true;
  for (const auto r : kAllRegimes) {
    for (const auto seed : kFuzzSeeds) {
      const auto [a, b] = regime_operands(r, seed);
      const std::pair<const char*, SpgemmConfig> flat_cfgs[] = {
          {"flat", SpgemmConfig{}}, {"pair", pair}, {"full", full}};
      for (const auto& [what, cfg] : flat_cfgs) {
        auto dev = testing::clean_golden_device();
        sparse::CsrD c;
        core::merge::spgemm(dev, a, b, c, cfg);
        table.check(case_name(r, seed, what), c, dev);
      }
      auto dev = testing::clean_golden_device();
      core::merge::SpgemmPlan plan;
      core::merge::spgemm_symbolic(dev, a, b, plan);
      sparse::CsrD c;
      core::merge::spgemm_numeric(dev, a, b, plan, c);
      table.check(case_name(r, seed, "planned"), c, dev);
    }
  }
}

// spgemm_chunked at a forced budget (a third of the whole-matrix
// footprint estimate: several chunks), and spgemm_row_block over an
// interior block whose global product origin is not a tile multiple.
TEST(SpgemmGolden, ChunkedAndRowBlock) {
  GoldenTable table(kBlockGolden);
  const std::size_t tile = static_cast<std::size_t>(SpgemmConfig{}.tile());
  int nonzero_phases = 0;
  for (const auto r : kAllRegimes) {
    for (const auto seed : kFuzzSeeds) {
      const auto [a, b] = regime_operands(r, seed);
      const auto prefix = core::merge::spgemm_row_prefix(a, b);
      {
        auto dev = testing::clean_golden_device();
        core::merge::ChunkedConfig chunked;
        chunked.chunk_bytes = static_cast<std::size_t>(
            (40 * prefix.back() + 16 * static_cast<std::uint64_t>(a.nnz())) /
                3 +
            4096);
        sparse::CsrD c;
        core::merge::spgemm_chunked(dev, a, b, c, chunked);
        table.check(case_name(r, seed, "chunked"), c, dev);
      }
      index_t r0 = a.num_rows / 3;
      while (r0 < a.num_rows &&
             prefix[static_cast<std::size_t>(r0)] % tile == 0) {
        ++r0;
      }
      const index_t r1 = std::max(r0, 2 * a.num_rows / 3);
      if (r0 < a.num_rows) ++nonzero_phases;
      auto dev = testing::clean_golden_device();
      sparse::CsrD c;
      core::merge::spgemm_row_block(dev, a, b, prefix, r0, r1, c);
      table.check(case_name(r, seed, "rowblock"), c, dev);
    }
  }
  EXPECT_GT(nonzero_phases, 0);
}

// Table II at scale 0.01 (LP as A x A^T, the rest as A x A).
TEST(SpgemmGolden, TableII) {
  GoldenTable table(kTable2Golden);
  for (const auto& e : workloads::paper_suite(0.01)) {
    const sparse::CsrD b =
        e.spgemm_transpose ? sparse::transpose(e.matrix) : e.matrix;
    auto dev = testing::clean_golden_device();
    sparse::CsrD c;
    core::merge::spgemm(dev, e.matrix, b, c);
    table.check(e.name, c, dev);
  }
}

}  // namespace
}  // namespace mps
