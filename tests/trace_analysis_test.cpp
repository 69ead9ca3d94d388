// Tests for the Chrome-trace exporter and the analysis harness helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/experiment.hpp"
#include "core/spmv.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "vgpu/trace.hpp"

namespace mps {
namespace {

TEST(Trace, EmptyLogIsValidJson) {
  // An empty log still names its tracks (metadata events) but carries
  // zero kernel events.
  vgpu::Device dev;
  std::ostringstream os;
  vgpu::write_chrome_trace(os, dev);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(s.find("\"kernels\":0"), std::string::npos);
  EXPECT_EQ(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.back(), '}');
}

TEST(Trace, EventsCarryKernelData) {
  vgpu::Device dev;
  dev.launch("kernel.alpha", 4, 128, [](vgpu::Cta& cta) { cta.charge_global(256); });
  dev.launch("kernel.beta", 2, 64, [](vgpu::Cta& cta) { cta.charge_sync(); });
  std::ostringstream os;
  vgpu::write_chrome_trace(os, dev);
  const std::string s = os.str();
  EXPECT_NE(s.find("kernel.alpha"), std::string::npos);
  EXPECT_NE(s.find("kernel.beta"), std::string::npos);
  EXPECT_NE(s.find("\"num_ctas\":4"), std::string::npos);
  EXPECT_NE(s.find("\"global_bytes\":1024"), std::string::npos);
  EXPECT_NE(s.find("\"kernels\":2"), std::string::npos);
  // Events are laid back-to-back: second ts == first dur.
  EXPECT_NE(s.find("\"ts\":0"), std::string::npos);
}

TEST(Trace, EscapesSpecialCharacters) {
  vgpu::Device dev;
  dev.launch("weird\"name\\with\nstuff", 1, 32, [](vgpu::Cta&) {});
  std::ostringstream os;
  vgpu::write_chrome_trace(os, dev);
  const std::string s = os.str();
  EXPECT_NE(s.find("weird\\\"name\\\\with\\nstuff"), std::string::npos);
}

TEST(Trace, EmitsProcessAndThreadNameMetadata) {
  // Perfetto/chrome://tracing label tracks from "M" metadata events; a
  // trace without them renders as anonymous pid/tid numbers.
  vgpu::Device dev;
  dev.launch("k", 1, 32, [](vgpu::Cta&) {});
  std::ostringstream os;
  vgpu::write_chrome_trace(os, dev);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(s.find("\"process_name\""), std::string::npos);
  EXPECT_NE(s.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(s.find("mps virtual GPU"), std::string::npos);
  // Metadata precedes the kernel events so viewers name tracks up front.
  EXPECT_LT(s.find("\"ph\":\"M\""), s.find("\"ph\":\"X\""));
}

TEST(Trace, MalformedKernelNameRoundTrips) {
  // Control bytes, DEL, high (non-UTF-8) bytes, quotes and backslashes
  // in a kernel name must all come out as valid JSON escapes — strict
  // parsers (python -m json.tool validates these artifacts in CI) reject
  // raw control bytes and invalid UTF-8.
  vgpu::Device dev;
  const std::string name = std::string("bad\x01\x1f\x7f") + "\xc3\x28" +
                           "\"q\"\\end\ttab";
  dev.launch(name, 1, 32, [](vgpu::Cta&) {});
  std::ostringstream os;
  vgpu::write_chrome_trace(os, dev);
  const std::string s = os.str();
  // Escaped forms present...
  EXPECT_NE(s.find("\\u0001"), std::string::npos);
  EXPECT_NE(s.find("\\u001f"), std::string::npos);
  EXPECT_NE(s.find("\\u007f"), std::string::npos);
  EXPECT_NE(s.find("\\u00c3"), std::string::npos);
  EXPECT_NE(s.find("\\\"q\\\""), std::string::npos);
  EXPECT_NE(s.find("\\\\end"), std::string::npos);
  EXPECT_NE(s.find("\\ttab"), std::string::npos);
  // ...and not a single raw byte outside printable ASCII in the output.
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    EXPECT_TRUE(u >= 0x20 && u < 0x7f) << "raw byte 0x" << std::hex
                                       << static_cast<int>(u) << " leaked";
  }
}

TEST(Trace, FileVariantWritesAndThrows) {
  vgpu::Device dev;
  dev.launch("k", 1, 32, [](vgpu::Cta&) {});
  const std::string path = ::testing::TempDir() + "/mps_trace_test.json";
  vgpu::write_chrome_trace_file(path, dev);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("traceEvents"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_THROW(vgpu::write_chrome_trace_file("/nonexistent/dir/x.json", dev),
               std::runtime_error);
}

TEST(Trace, SpmvPlanChargesPartitionOnceAcrossIterations) {
  // 100 spmv_execute calls on one plan: the output is bitwise-stable
  // across iterations and the kernel log shows partition (and zero
  // compaction) work charged exactly once, at plan build.
  vgpu::Device dev;
  util::Rng rng(401);
  const auto a = sparse::coo_to_csr(testing::random_coo(rng, 600, 600, 7200));
  std::vector<double> x(600);
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  std::vector<double> y(600), y0(600);

  const auto plan = core::merge::spmv_plan(dev, a);
  constexpr int kIters = 100;
  double exec_ms_first = 0.0;
  for (int i = 0; i < kIters; ++i) {
    const auto stats = core::merge::spmv_execute(dev, a, x, y, plan);
    EXPECT_TRUE(stats.setup_amortized);
    EXPECT_DOUBLE_EQ(stats.partition_ms, 0.0);
    if (i == 0) {
      y0 = y;
      exec_ms_first = stats.modeled_ms();
    } else {
      ASSERT_EQ(y, y0) << "iteration " << i << " not bitwise-stable";
      EXPECT_DOUBLE_EQ(stats.modeled_ms(), exec_ms_first);
    }
  }

  // Each execute is ONE launch: the carry update rides the reduce launch
  // as its serialized tail instead of a separate merge.spmv_update.
  int partitions = 0, compacts = 0, reduces = 0, tails = 0, merge = 0;
  for (const auto& k : dev.log()) {
    if (k.name.rfind("merge.", 0) == 0) ++merge;
    if (k.name == "merge.spmv_partition") ++partitions;
    if (k.name == "merge.spmv_compact") ++compacts;
    if (k.name == "merge.spmv_reduce") ++reduces;
    if (k.name == "merge.spmv_reduce" && k.tail_cycles > 0.0) ++tails;
  }
  EXPECT_EQ(partitions, 1);
  EXPECT_EQ(compacts, 0);  // no empty rows, fast path
  EXPECT_EQ(reduces, kIters);
  EXPECT_EQ(tails, kIters);
  EXPECT_EQ(merge, 1 + kIters);  // no merge.spmv_update launches
}

TEST(Analysis, BenchConfigDefaultsAndEnv) {
  ::unsetenv("MPS_SCALE");
  ::unsetenv("MPS_ITERS");
  auto cfg = analysis::bench_config(0.25, 3);
  EXPECT_DOUBLE_EQ(cfg.scale, 0.25);
  EXPECT_EQ(cfg.iters, 3);
  ::setenv("MPS_SCALE", "0.5", 1);
  ::setenv("MPS_ITERS", "0", 1);  // clamped to >= 1
  cfg = analysis::bench_config(0.25, 3);
  EXPECT_DOUBLE_EQ(cfg.scale, 0.5);
  EXPECT_EQ(cfg.iters, 1);
  ::unsetenv("MPS_SCALE");
  ::unsetenv("MPS_ITERS");
}

TEST(Analysis, Gflops) {
  EXPECT_DOUBLE_EQ(analysis::gflops(2e9, 1000.0), 2.0);
  EXPECT_EQ(analysis::gflops(1e9, 0.0), 0.0);
}

TEST(Analysis, CorrelationReportAndFigure) {
  analysis::CorrelationSeries s{"Test", {1e6, 2e6, 3e6}, {1.0, 2.0, 3.0}};
  const auto rep = analysis::correlate(s);
  EXPECT_EQ(rep.scheme, "Test");
  EXPECT_NEAR(rep.rho, 1.0, 1e-12);
  EXPECT_NEAR(rep.slope_ms_per_unit * 1e6, 1.0, 1e-9);
  const auto fig = analysis::render_correlation_figure(
      "demo", "nnz", {"a", "b", "c"}, {s});
  EXPECT_NE(fig.find("rho_Test = 1.00"), std::string::npos);
  EXPECT_NE(fig.find("demo"), std::string::npos);
}

TEST(Analysis, EmitWritesCsvWhenConfigured) {
  util::Table t("demo");
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  const std::string dir = ::testing::TempDir();
  ::setenv("MPS_CSV_DIR", dir.c_str(), 1);
  analysis::emit(t, "emit_test");
  ::unsetenv("MPS_CSV_DIR");
  std::ifstream in(dir + "/emit_test.csv");
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::remove((dir + "/emit_test.csv").c_str());
}

}  // namespace
}  // namespace mps
