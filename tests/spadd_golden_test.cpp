// Golden digests of merge SpAdd and the balanced-path set operations:
// the output (C, or the set op's keys) and the device log (name, grid,
// counters, modeled time bits) of every entry point, pinned to recorded
// resilience::checksum_bytes digests.  The host may order C any way it
// likes; these digests hold it to the same output bits and the same
// charges.
//
// The plain tables leave integrity-guard launches out of the log digest
// and turn fault injection off, so they hold under every CI environment.
// The integrity table turns MPS_INTEGRITY_CHECK on itself and digests
// the guard launches too: C's guard scan is charged as a scan of its
// (row, col, val) tuples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/spadd.hpp"
#include "env_guard.hpp"
#include "golden.hpp"
#include "oracle.hpp"
#include "primitives/set_ops.hpp"
#include "sparse/convert.hpp"
#include "vgpu/device.hpp"
#include "workloads/suite.hpp"

namespace mps {
namespace {

using testing::clean_golden_device;
using testing::coo_digest;
using testing::csr_digest;
using testing::Golden;
using testing::GoldenTable;
using testing::kAllRegimes;
using testing::kFuzzSeeds;
using testing::log_digest;
using testing::make_regime_matrix;
using testing::regime_name;

// Recorded from the implementation that packed (row, col) keys, emitted
// the union element by element into COO and converted C to CSR.
constexpr Golden kRegimeGolden[] = {
    {"uniform/1/csr", 0x9c0ba6c8e2efef91ULL, 0x4b3092764c5ffab2ULL},
    {"uniform/1/coo", 0xe0293a7a89b9c988ULL, 0x4b3092764c5ffab2ULL},
    {"uniform/1/scaled", 0x84e8db84c2853c84ULL, 0x4b3092764c5ffab2ULL},
    {"uniform/1/float", 0x10dd6289f66be5efULL, 0x1163daf9d622bf64ULL},
    {"uniform/1/union", 0xec0e40871b86a483ULL, 0x0ca78e1870b2d2e5ULL},
    {"uniform/1/intersection", 0x8052fe35299746f5ULL, 0xf17ed2384bb9b0f5ULL},
    {"uniform/1/difference", 0x70c90a4047c227d0ULL, 0x36a8a034d423be50ULL},
    {"uniform/1/symdiff", 0x2726e52f15fceea0ULL, 0x9e92fc5b4130a754ULL},
    {"uniform/2/csr", 0xa7e8a04a69b0eb69ULL, 0xc980bd5178de1432ULL},
    {"uniform/2/coo", 0x6e10e0004bc5daf0ULL, 0xc980bd5178de1432ULL},
    {"uniform/2/scaled", 0xa7054ca235afae50ULL, 0xc980bd5178de1432ULL},
    {"uniform/2/float", 0x6558fa2b6d05475cULL, 0x3fabf8b1e8c66590ULL},
    {"uniform/2/union", 0xbb6d3b8378859ce4ULL, 0x6e7b3d09458d2195ULL},
    {"uniform/2/intersection", 0xa1d4957fa5278255ULL, 0x5d119925e8d1c25dULL},
    {"uniform/2/difference", 0xbc8cab9435105ab7ULL, 0x732699a9daa089e6ULL},
    {"uniform/2/symdiff", 0x763a8d20f2ea243aULL, 0x9dd6f8609f84b25aULL},
    {"uniform/3/csr", 0x1f20100ae25aa316ULL, 0x1ea4e8e09ea6c55bULL},
    {"uniform/3/coo", 0xb961bf5f9ad36e8fULL, 0x1ea4e8e09ea6c55bULL},
    {"uniform/3/scaled", 0xd17b825acf03e7d6ULL, 0x1ea4e8e09ea6c55bULL},
    {"uniform/3/float", 0x0e8bb14f7f627562ULL, 0x860fb56885160d4dULL},
    {"uniform/3/union", 0xc66190a4472d9113ULL, 0x7518ce809e56b5efULL},
    {"uniform/3/intersection", 0xb8fcdd940abb7a60ULL, 0xe901e7bab5c506ebULL},
    {"uniform/3/difference", 0x8e63bc22ef14d9b6ULL, 0xa348c60e4da3547fULL},
    {"uniform/3/symdiff", 0x643796d961331399ULL, 0x63197757a98bfb2aULL},
    {"banded/1/csr", 0x3a1268598d9d2580ULL, 0x2bf4b536b9c70294ULL},
    {"banded/1/coo", 0x2053f0f1ff241bf6ULL, 0x2bf4b536b9c70294ULL},
    {"banded/1/scaled", 0xc542256eed6dbc83ULL, 0x2bf4b536b9c70294ULL},
    {"banded/1/float", 0xd4776e0752c4b0d1ULL, 0x36133bcc6adfe461ULL},
    {"banded/1/union", 0x752b650c191370cbULL, 0xc80b845b6b3df4dcULL},
    {"banded/1/intersection", 0xf944766ed0bcbccbULL, 0x67720bbb7d7bfbd9ULL},
    {"banded/1/difference", 0x73cdaa03f8cbf96aULL, 0xd8c562a760a9beeaULL},
    {"banded/1/symdiff", 0x8e3f89fe91dd97d6ULL, 0x5f4234551e5a0986ULL},
    {"banded/2/csr", 0x660eece224b4a0a0ULL, 0x98bcea2879a063d8ULL},
    {"banded/2/coo", 0xb01d87c993a544d4ULL, 0x98bcea2879a063d8ULL},
    {"banded/2/scaled", 0xa72e82d2e571c55eULL, 0x98bcea2879a063d8ULL},
    {"banded/2/float", 0x0858701f8101e27aULL, 0x4441ec913bfc55d1ULL},
    {"banded/2/union", 0x38686bffbf98989bULL, 0x7405fff0041a7d69ULL},
    {"banded/2/intersection", 0x5a4df54a6970e851ULL, 0xa93eee1b7a8d8ba1ULL},
    {"banded/2/difference", 0x88922e3f7e2c2470ULL, 0x83d84bce21f7b518ULL},
    {"banded/2/symdiff", 0x1d38b8408411770cULL, 0x86eb1d6a05006e3bULL},
    {"banded/3/csr", 0xe495e214d4d3b024ULL, 0x16f3138cc2cda149ULL},
    {"banded/3/coo", 0x9f3b0ec9d735887bULL, 0x16f3138cc2cda149ULL},
    {"banded/3/scaled", 0x124579102129dabfULL, 0x16f3138cc2cda149ULL},
    {"banded/3/float", 0x8e3c320a25355e9cULL, 0x7e4946ccfc82fbafULL},
    {"banded/3/union", 0x0b6b2a94f897e644ULL, 0xccb113941f9e536dULL},
    {"banded/3/intersection", 0x5af1df1873a27296ULL, 0xfd28540480513ea6ULL},
    {"banded/3/difference", 0x38f8404db0766419ULL, 0xd36bf079e50b7acaULL},
    {"banded/3/symdiff", 0x9fa2b6c338716794ULL, 0xd05395892696b0d2ULL},
    {"powerlaw/1/csr", 0x8a6aff2039b8bc8cULL, 0x2c104027bf6b2289ULL},
    {"powerlaw/1/coo", 0xbb22e19e9cf5669fULL, 0x2c104027bf6b2289ULL},
    {"powerlaw/1/scaled", 0xa19de355fc4dd173ULL, 0x2c104027bf6b2289ULL},
    {"powerlaw/1/float", 0x664fe10ea307c95bULL, 0x60d9325b72340b2fULL},
    {"powerlaw/1/union", 0x0402ea95e6727488ULL, 0x374a5cce31aba1ffULL},
    {"powerlaw/1/intersection", 0x1994d382ec1f0590ULL, 0xf818b03299a980cdULL},
    {"powerlaw/1/difference", 0x663913dbc6df3d99ULL, 0x5ff22224b4a2fa01ULL},
    {"powerlaw/1/symdiff", 0xb61d8a6c4c7668dbULL, 0xea62da946e2a5e27ULL},
    {"powerlaw/2/csr", 0x4f135bda433b5784ULL, 0x62421366a365440fULL},
    {"powerlaw/2/coo", 0x68983d4d74a05366ULL, 0x62421366a365440fULL},
    {"powerlaw/2/scaled", 0xc96a0f6ddde933e7ULL, 0x62421366a365440fULL},
    {"powerlaw/2/float", 0x98e7f37c12f80213ULL, 0x5422cc66a49b349aULL},
    {"powerlaw/2/union", 0x04673c784d7d4630ULL, 0x3e1311f1c282a131ULL},
    {"powerlaw/2/intersection", 0xdb2249de3920d60fULL, 0x06e5c6b79110ebd2ULL},
    {"powerlaw/2/difference", 0x31c3bc9bed7c3bd9ULL, 0xbdab10ee8db8b5daULL},
    {"powerlaw/2/symdiff", 0x7b097be2be8c091cULL, 0xe3b59731863b4eaaULL},
    {"powerlaw/3/csr", 0xdd884c5e0a2cb687ULL, 0x3880977f76ce669cULL},
    {"powerlaw/3/coo", 0xfff926c65437e840ULL, 0x3880977f76ce669cULL},
    {"powerlaw/3/scaled", 0x4cabc57a0e969e48ULL, 0x3880977f76ce669cULL},
    {"powerlaw/3/float", 0xa327a7e853e0401cULL, 0x3f50db42f5aa4dd1ULL},
    {"powerlaw/3/union", 0xdb061fed3a8f9932ULL, 0x837680da6ac2ad93ULL},
    {"powerlaw/3/intersection", 0x7c2e5eda869fdf78ULL, 0x6997f5cd3b39a2f7ULL},
    {"powerlaw/3/difference", 0xb884be301b3ba6d0ULL, 0x09fe75ba8e94a340ULL},
    {"powerlaw/3/symdiff", 0x1400c066a8656df8ULL, 0xa2edefd28ab1d4c3ULL},
    {"hypersparse/1/csr", 0x2e11b43293a4353dULL, 0x22b9f694aeb4abe2ULL},
    {"hypersparse/1/coo", 0xa8606697c2622c58ULL, 0x22b9f694aeb4abe2ULL},
    {"hypersparse/1/scaled", 0xa1b42789e3ab0cddULL, 0x22b9f694aeb4abe2ULL},
    {"hypersparse/1/float", 0xb35ee363e40f4478ULL, 0x24dcabde0d2596d6ULL},
    {"hypersparse/1/union", 0x55266303de1eaa9bULL, 0x9868418e40dafec5ULL},
    {"hypersparse/1/intersection", 0xe8235ed3b70d3213ULL, 0x420382992326f0cfULL},
    {"hypersparse/1/difference", 0xaad8b07e1305a513ULL, 0x6176a7f41d0033e6ULL},
    {"hypersparse/1/symdiff", 0xf2401a343ff48183ULL, 0x93f776686d1bfa56ULL},
    {"hypersparse/2/csr", 0xab4b67fe8ed0fa9dULL, 0x22b9f694aeb4abe2ULL},
    {"hypersparse/2/coo", 0x9d3d6ab029984ea9ULL, 0x22b9f694aeb4abe2ULL},
    {"hypersparse/2/scaled", 0x745ba602e2f7fa59ULL, 0x22b9f694aeb4abe2ULL},
    {"hypersparse/2/float", 0x3c5be0fb17fdcd74ULL, 0x24dcabde0d2596d6ULL},
    {"hypersparse/2/union", 0x008b6f1aac1dd440ULL, 0xc1624f29be45bf76ULL},
    {"hypersparse/2/intersection", 0xc1de657426cf8d2dULL, 0x8e752b79c7683c78ULL},
    {"hypersparse/2/difference", 0x839c07981ba12563ULL, 0xdea9505069bd847eULL},
    {"hypersparse/2/symdiff", 0x02bba36d652efb52ULL, 0x9fb13fd8ca95cd34ULL},
    {"hypersparse/3/csr", 0x6739034e7771d6a5ULL, 0x22b9f694aeb4abe2ULL},
    {"hypersparse/3/coo", 0x267fe0b1e3f8bbe4ULL, 0x22b9f694aeb4abe2ULL},
    {"hypersparse/3/scaled", 0xc0be52bc04772d3cULL, 0x22b9f694aeb4abe2ULL},
    {"hypersparse/3/float", 0x0b1b32a260e1c40fULL, 0x24dcabde0d2596d6ULL},
    {"hypersparse/3/union", 0x139174d3f2579d7bULL, 0xbb96500d303aea2cULL},
    {"hypersparse/3/intersection", 0x52b8e04c39b92130ULL, 0x644fbe01bd4dfd13ULL},
    {"hypersparse/3/difference", 0x3dc6244a4cbc07a7ULL, 0x1018f4d6221b127eULL},
    {"hypersparse/3/symdiff", 0xa45062eaa4292c2cULL, 0xea6972247e5f3b1fULL},
    {"neardense/1/csr", 0x58a86d760bdaeffcULL, 0x53c6653d82b969f7ULL},
    {"neardense/1/coo", 0x07bd0f4569ea46f7ULL, 0x53c6653d82b969f7ULL},
    {"neardense/1/scaled", 0xf4b62a9c72710af7ULL, 0x53c6653d82b969f7ULL},
    {"neardense/1/float", 0x5b0e1954922161f3ULL, 0x6b331314e25a6cb4ULL},
    {"neardense/1/union", 0x5089dff77da19f51ULL, 0x4a3bb82503a23e00ULL},
    {"neardense/1/intersection", 0xe5b2417dfcec45ccULL, 0x9e32cec2d42de7a2ULL},
    {"neardense/1/difference", 0x5976472533c9589dULL, 0x309b6b43483e69b4ULL},
    {"neardense/1/symdiff", 0xff4dcb8e6db6b5bfULL, 0xcfc3a29efd6fbed4ULL},
    {"neardense/2/csr", 0x46151bd7a2cc2ff3ULL, 0x5a0131ebd447819bULL},
    {"neardense/2/coo", 0xd307ff5659359164ULL, 0x5a0131ebd447819bULL},
    {"neardense/2/scaled", 0xcca5565ceb4e36d6ULL, 0x5a0131ebd447819bULL},
    {"neardense/2/float", 0x25365f84916aaf51ULL, 0x1a44812155b53381ULL},
    {"neardense/2/union", 0xf9e3be7eefd1222fULL, 0x47d4f0902cdda479ULL},
    {"neardense/2/intersection", 0xb1e964733bcaed0fULL, 0xba834c6bc628f294ULL},
    {"neardense/2/difference", 0xaf0a5878a2c63cdbULL, 0x6e09a36d7f18ea9fULL},
    {"neardense/2/symdiff", 0x2307a77e140f1662ULL, 0xfabb53e1096dd3f5ULL},
    {"neardense/3/csr", 0x94b0a38573f11a9eULL, 0xf5c4b038fe827552ULL},
    {"neardense/3/coo", 0x395b4461622aa0d1ULL, 0xf5c4b038fe827552ULL},
    {"neardense/3/scaled", 0x2c69dcf718b871afULL, 0xf5c4b038fe827552ULL},
    {"neardense/3/float", 0xf9d04d0ba2a228c3ULL, 0x8c39ef6c1a16b631ULL},
    {"neardense/3/union", 0x26722243e486ac9bULL, 0x218dfbdba50ce523ULL},
    {"neardense/3/intersection", 0x226fb87d025a26c2ULL, 0xa8bd1a9d7047e355ULL},
    {"neardense/3/difference", 0xc16d463422ffc774ULL, 0x6d45df96adefeffdULL},
    {"neardense/3/symdiff", 0xd0410fa4f6d35ed4ULL, 0x8421cbaa957a84bfULL},
    {"rectwide/1/csr", 0x46482dce3baba4c2ULL, 0x2899d14af4cde080ULL},
    {"rectwide/1/coo", 0xae9166fbb6819e42ULL, 0x2899d14af4cde080ULL},
    {"rectwide/1/scaled", 0xf8477318a5b2f172ULL, 0x2899d14af4cde080ULL},
    {"rectwide/1/float", 0xcccc75ebd73c40d2ULL, 0xfe89a25e50d7d132ULL},
    {"rectwide/1/union", 0xd06c55391eedddb0ULL, 0x7331e1d0e2cb1b7bULL},
    {"rectwide/1/intersection", 0x6d107d9137ec3098ULL, 0x4707861908502e04ULL},
    {"rectwide/1/difference", 0x8f4a74d5afbda519ULL, 0xca60f3fad119b940ULL},
    {"rectwide/1/symdiff", 0x6b4571b98ac133fbULL, 0xfce78675a7a5d121ULL},
    {"rectwide/2/csr", 0x3b5133dd2c087b89ULL, 0x5e92ae4026007f2cULL},
    {"rectwide/2/coo", 0x9a14c283987b4b70ULL, 0x5e92ae4026007f2cULL},
    {"rectwide/2/scaled", 0xa801c483f71edbf5ULL, 0x5e92ae4026007f2cULL},
    {"rectwide/2/float", 0xc10f095c1626869bULL, 0x62be884c10aa4055ULL},
    {"rectwide/2/union", 0x8717c6fa8515115bULL, 0x3be75fda976d8beaULL},
    {"rectwide/2/intersection", 0x78b28546d679cb4fULL, 0x43de3ed119c418f8ULL},
    {"rectwide/2/difference", 0x25f8d22d9bc25a18ULL, 0x2f2394d2256f5a6eULL},
    {"rectwide/2/symdiff", 0xea3a5376449a3da8ULL, 0x8ff9806ff791c22fULL},
    {"rectwide/3/csr", 0x9cb7d43f8ed3a869ULL, 0x1808ca35f162a908ULL},
    {"rectwide/3/coo", 0xbd9b4f174b08b488ULL, 0x1808ca35f162a908ULL},
    {"rectwide/3/scaled", 0x773c48dfb1d7d6eaULL, 0x1808ca35f162a908ULL},
    {"rectwide/3/float", 0xb71ec10298794b07ULL, 0x288c57ab7f6fcd90ULL},
    {"rectwide/3/union", 0xa2dab7958b45cd9eULL, 0xe04c783e5cd26ac3ULL},
    {"rectwide/3/intersection", 0x1b55de190db53f5aULL, 0xe7ed953ae8b2dea9ULL},
    {"rectwide/3/difference", 0xe19a089c3c60b4fdULL, 0x661bea6bb8bd6198ULL},
    {"rectwide/3/symdiff", 0xc634533e62544f69ULL, 0xfb319d80c7679b47ULL},
    {"recttall/1/csr", 0xd00f82348de40d2dULL, 0xf1a6702c5e6c2863ULL},
    {"recttall/1/coo", 0x66280133ef1f0d56ULL, 0xf1a6702c5e6c2863ULL},
    {"recttall/1/scaled", 0x00fbc17abdd4454cULL, 0xf1a6702c5e6c2863ULL},
    {"recttall/1/float", 0xd5189617e5a9ef17ULL, 0xe0bc2d0750f85d33ULL},
    {"recttall/1/union", 0xb42972459124cb9cULL, 0xc8d94137c3a46f76ULL},
    {"recttall/1/intersection", 0xf39711a0d48c5b81ULL, 0x06b341983e6aba92ULL},
    {"recttall/1/difference", 0x0dbe23aa613b12ecULL, 0x01d7c875da64b938ULL},
    {"recttall/1/symdiff", 0x2d904aa56ec02507ULL, 0x99e5dce0583b97adULL},
    {"recttall/2/csr", 0x303004c21cd1ac6aULL, 0x2b2074a592bd96b9ULL},
    {"recttall/2/coo", 0x228c881854d37d0eULL, 0x2b2074a592bd96b9ULL},
    {"recttall/2/scaled", 0x54b55c15e25229deULL, 0x2b2074a592bd96b9ULL},
    {"recttall/2/float", 0x9013eeb8f78a451fULL, 0x8fc07585428b2fe1ULL},
    {"recttall/2/union", 0x3520e996adfe1c8aULL, 0x48d8f3accfb32f52ULL},
    {"recttall/2/intersection", 0xb7dbbce1d17180baULL, 0x6c564939beccca1dULL},
    {"recttall/2/difference", 0xa89b470ebbf8a5cdULL, 0xea8238b4ff5e028aULL},
    {"recttall/2/symdiff", 0xf2d780770ca66482ULL, 0xcd5134c3c79d09baULL},
    {"recttall/3/csr", 0x438224cad244879bULL, 0x9cd67382c3bde615ULL},
    {"recttall/3/coo", 0x2f9e89f0ef2c8352ULL, 0x9cd67382c3bde615ULL},
    {"recttall/3/scaled", 0x3ab35035fbcf8babULL, 0x9cd67382c3bde615ULL},
    {"recttall/3/float", 0xf0cedc16233f8f2bULL, 0xf2b722b1017b8be2ULL},
    {"recttall/3/union", 0x69103badcc039b93ULL, 0x800443edf287fb7aULL},
    {"recttall/3/intersection", 0x7f05a2d4505c02e5ULL, 0x927e4341b0173895ULL},
    {"recttall/3/difference", 0x4fb9a047f46cb160ULL, 0x24b24d8ffbb76affULL},
    {"recttall/3/symdiff", 0x8417daf355cb54ecULL, 0x498e5a747073bab6ULL},
};

constexpr Golden kIntegrityGolden[] = {
    {"uniform/1/csr", 0x9c0ba6c8e2efef91ULL, 0x8e61ea9d32c9173bULL},
    {"uniform/1/coo", 0xe0293a7a89b9c988ULL, 0x8e61ea9d32c9173bULL},
    {"uniform/2/csr", 0xa7e8a04a69b0eb69ULL, 0x7ecfec954e52e2dcULL},
    {"uniform/2/coo", 0x6e10e0004bc5daf0ULL, 0x7ecfec954e52e2dcULL},
    {"uniform/3/csr", 0x1f20100ae25aa316ULL, 0xb034bd2a760e667aULL},
    {"uniform/3/coo", 0xb961bf5f9ad36e8fULL, 0xb034bd2a760e667aULL},
    {"banded/1/csr", 0x3a1268598d9d2580ULL, 0x206f0033207ee22bULL},
    {"banded/1/coo", 0x2053f0f1ff241bf6ULL, 0x206f0033207ee22bULL},
    {"banded/2/csr", 0x660eece224b4a0a0ULL, 0x2e29860a3bb854d9ULL},
    {"banded/2/coo", 0xb01d87c993a544d4ULL, 0x2e29860a3bb854d9ULL},
    {"banded/3/csr", 0xe495e214d4d3b024ULL, 0x0f6b57804e3f3337ULL},
    {"banded/3/coo", 0x9f3b0ec9d735887bULL, 0x0f6b57804e3f3337ULL},
    {"powerlaw/1/csr", 0x8a6aff2039b8bc8cULL, 0xcd0c764397fdc7d3ULL},
    {"powerlaw/1/coo", 0xbb22e19e9cf5669fULL, 0xcd0c764397fdc7d3ULL},
    {"powerlaw/2/csr", 0x4f135bda433b5784ULL, 0x10ba885b821622d3ULL},
    {"powerlaw/2/coo", 0x68983d4d74a05366ULL, 0x10ba885b821622d3ULL},
    {"powerlaw/3/csr", 0xdd884c5e0a2cb687ULL, 0xabf82cef0f62e9aaULL},
    {"powerlaw/3/coo", 0xfff926c65437e840ULL, 0xabf82cef0f62e9aaULL},
    {"hypersparse/1/csr", 0x2e11b43293a4353dULL, 0x5d8830ade4309977ULL},
    {"hypersparse/1/coo", 0xa8606697c2622c58ULL, 0x5d8830ade4309977ULL},
    {"hypersparse/2/csr", 0xab4b67fe8ed0fa9dULL, 0x5d8830ade4309977ULL},
    {"hypersparse/2/coo", 0x9d3d6ab029984ea9ULL, 0x5d8830ade4309977ULL},
    {"hypersparse/3/csr", 0x6739034e7771d6a5ULL, 0x5d8830ade4309977ULL},
    {"hypersparse/3/coo", 0x267fe0b1e3f8bbe4ULL, 0x5d8830ade4309977ULL},
    {"neardense/1/csr", 0x58a86d760bdaeffcULL, 0xec72f0db003f7e6aULL},
    {"neardense/1/coo", 0x07bd0f4569ea46f7ULL, 0xec72f0db003f7e6aULL},
    {"neardense/2/csr", 0x46151bd7a2cc2ff3ULL, 0x574abccf56d8f71aULL},
    {"neardense/2/coo", 0xd307ff5659359164ULL, 0x574abccf56d8f71aULL},
    {"neardense/3/csr", 0x94b0a38573f11a9eULL, 0xedbba706766c8226ULL},
    {"neardense/3/coo", 0x395b4461622aa0d1ULL, 0xedbba706766c8226ULL},
    {"rectwide/1/csr", 0x46482dce3baba4c2ULL, 0xaf1fed5d87d2ab04ULL},
    {"rectwide/1/coo", 0xae9166fbb6819e42ULL, 0xaf1fed5d87d2ab04ULL},
    {"rectwide/2/csr", 0x3b5133dd2c087b89ULL, 0xa9abcddece3fa980ULL},
    {"rectwide/2/coo", 0x9a14c283987b4b70ULL, 0xa9abcddece3fa980ULL},
    {"rectwide/3/csr", 0x9cb7d43f8ed3a869ULL, 0x4e034c118120fd04ULL},
    {"rectwide/3/coo", 0xbd9b4f174b08b488ULL, 0x4e034c118120fd04ULL},
    {"recttall/1/csr", 0xd00f82348de40d2dULL, 0xc8356c5ce8344fcbULL},
    {"recttall/1/coo", 0x66280133ef1f0d56ULL, 0xc8356c5ce8344fcbULL},
    {"recttall/2/csr", 0x303004c21cd1ac6aULL, 0xd56bfa139449691eULL},
    {"recttall/2/coo", 0x228c881854d37d0eULL, 0xd56bfa139449691eULL},
    {"recttall/3/csr", 0x438224cad244879bULL, 0xaf168c9ba3bd7831ULL},
    {"recttall/3/coo", 0x2f9e89f0ef2c8352ULL, 0xaf168c9ba3bd7831ULL},
};

constexpr Golden kTable2Golden[] = {
    {"Dense", 0xe46a3d3c85b8a201ULL, 0x102062e02456af7aULL},
    {"Protein", 0x763f840c765aa6beULL, 0x4ef498ad5397665cULL},
    {"Spheres", 0xe22b967d170b5868ULL, 0xa29b6f9193743007ULL},
    {"Cantilever", 0x4b2f9dd7e65a7d88ULL, 0x139664edad1d9e51ULL},
    {"Wind Tunnel", 0x761f2fbd47decb0eULL, 0x532f481e1b23f025ULL},
    {"Harbor", 0x29d99bfadd3dc608ULL, 0x2548d745a28e4ceeULL},
    {"QCD", 0x33e12867e7f4d6c1ULL, 0x325bc13b77033a90ULL},
    {"Ship", 0x8a966907411c876dULL, 0xca48ffe3047bee81ULL},
    {"Economics", 0xfbd663cc41d6c72bULL, 0x79bdb259a6061716ULL},
    {"Epidemiology", 0xfcfe679166bfa355ULL, 0x0324471d54677787ULL},
    {"Accelerator", 0x2111498b373c4725ULL, 0x62ee2eade36b0875ULL},
    {"Circuit", 0x0a295c35a6c8c763ULL, 0x1a54c7efce90732bULL},
    {"Webbase", 0xf6dc3acfa83539e1ULL, 0xf95830e58f578f85ULL},
    {"LP", 0x96dd5631a9d595feULL, 0xee5504e95897e510ULL},
};

/// A + B for regime matrices: two draws of one regime share its shape.
struct Operands {
  sparse::CsrD a, b;
};
Operands regime_operands(testing::Regime r, std::uint64_t seed) {
  return {make_regime_matrix(r, seed), make_regime_matrix(r, seed + 1000)};
}

std::string case_name(testing::Regime r, std::uint64_t seed,
                      const char* what) {
  return regime_name(r) + "/" + std::to_string(seed) + "/" + what;
}

sparse::CooMatrix<float> to_float(const sparse::CooD& a) {
  sparse::CooMatrix<float> f(a.num_rows, a.num_cols);
  for (index_t i = 0; i < a.nnz(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    f.push_back(a.row[k], a.col[k], static_cast<float>(a.val[k]));
  }
  return f;
}

/// A multiset of keys with heavy duplication: the sorted column ids of
/// every nonzero, so balanced-path cuts land inside runs.
std::vector<std::uint32_t> column_multiset(const sparse::CsrD& a) {
  std::vector<std::uint32_t> keys(a.col.begin(), a.col.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

// spadd_csr, COO spadd, spadd_scaled and float spadd on A + B, and
// device_set_op_keys with every SetOp on two column multisets, for every
// oracle regime and fuzz seed.
TEST(SpaddGolden, RegimesEveryEntryPoint) {
  GoldenTable table(kRegimeGolden);
  constexpr std::pair<primitives::SetOp, const char*> kOps[] = {
      {primitives::SetOp::kUnion, "union"},
      {primitives::SetOp::kIntersection, "intersection"},
      {primitives::SetOp::kDifference, "difference"},
      {primitives::SetOp::kSymmetricDifference, "symdiff"}};
  for (const auto r : kAllRegimes) {
    for (const auto seed : kFuzzSeeds) {
      const auto [a, b] = regime_operands(r, seed);
      const sparse::CooD a_coo = sparse::csr_to_coo(a);
      const sparse::CooD b_coo = sparse::csr_to_coo(b);
      {
        auto dev = clean_golden_device();
        sparse::CsrD c;
        core::merge::spadd_csr(dev, a, b, c);
        table.check(case_name(r, seed, "csr"), csr_digest(c), log_digest(dev));
      }
      {
        auto dev = clean_golden_device();
        sparse::CooD c;
        core::merge::spadd(dev, a_coo, b_coo, c);
        table.check(case_name(r, seed, "coo"), coo_digest(c), log_digest(dev));
      }
      {
        auto dev = clean_golden_device();
        sparse::CooD c;
        core::merge::spadd_scaled(dev, 2.0, a_coo, -0.5, b_coo, c);
        table.check(case_name(r, seed, "scaled"), coo_digest(c),
                    log_digest(dev));
      }
      {
        auto dev = clean_golden_device();
        sparse::CooMatrix<float> c;
        core::merge::spadd(dev, to_float(a_coo), to_float(b_coo), c);
        table.check(case_name(r, seed, "float"), coo_digest(c),
                    log_digest(dev));
      }
      const auto ka = column_multiset(a);
      const auto kb = column_multiset(b);
      for (const auto& [op, what] : kOps) {
        auto dev = clean_golden_device();
        const auto res =
            primitives::device_set_op_keys<std::uint32_t>(dev, ka, kb, op);
        testing::Digest d;
        d.vec(res.keys);
        table.check(case_name(r, seed, what), d.value(), log_digest(dev));
      }
    }
  }
}

// With MPS_INTEGRITY_CHECK on, the guard scan of C is part of the log.
TEST(SpaddGolden, IntegrityGuardCharges) {
  const testing::EnvVarGuard integrity("MPS_INTEGRITY_CHECK", "1");
  GoldenTable table(kIntegrityGolden);
  for (const auto r : kAllRegimes) {
    for (const auto seed : kFuzzSeeds) {
      const auto [a, b] = regime_operands(r, seed);
      {
        auto dev = clean_golden_device();
        sparse::CsrD c;
        core::merge::spadd_csr(dev, a, b, c);
        table.check(case_name(r, seed, "csr"), csr_digest(c),
                    log_digest(dev, /*with_integrity=*/true));
      }
      auto dev = clean_golden_device();
      sparse::CooD c;
      core::merge::spadd(dev, sparse::csr_to_coo(a), sparse::csr_to_coo(b), c);
      table.check(case_name(r, seed, "coo"), coo_digest(c),
                  log_digest(dev, /*with_integrity=*/true));
    }
  }
}

// Table II at scale 0.01: A + A, the paper's SpAdd workload.
TEST(SpaddGolden, TableII) {
  GoldenTable table(kTable2Golden);
  for (const auto& e : workloads::paper_suite(0.01)) {
    auto dev = clean_golden_device();
    sparse::CsrD c;
    core::merge::spadd_csr(dev, e.matrix, e.matrix, c);
    table.check(e.name, csr_digest(c), log_digest(dev));
  }
}

}  // namespace
}  // namespace mps
