// Malformed Matrix Market inputs: every corruption class the hardened
// reader must reject with a typed ParseError carrying the offending
// 1-based line number.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sparse/io.hpp"
#include "util/error.hpp"

namespace {

using namespace mps;

struct MalformedCase {
  const char* name;
  const char* content;
  long long line;           ///< expected ParseError::line(); -1 = unknown
  const char* what_substr;  ///< must appear in the message
};

const MalformedCase kMalformedInputs[] = {
    {"empty_stream", "", -1, "empty stream"},
    {"missing_banner", "1 1 0\n", 1, "banner"},
    {"wrong_object",
     "%%MatrixMarket tensor coordinate real general\n1 1 0\n", 1,
     "matrix coordinate"},
    {"dense_array_format",
     "%%MatrixMarket matrix array real general\n1 1\n", 1,
     "matrix coordinate"},
    {"unsupported_field",
     "%%MatrixMarket matrix coordinate complex general\n1 1 0\n", 1,
     "unsupported field"},
    {"unsupported_symmetry",
     "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n", 1,
     "unsupported symmetry"},
    {"missing_size_line",
     "%%MatrixMarket matrix coordinate real general\n% only comments\n", 2,
     "missing size line"},
    {"malformed_size_line",
     "%%MatrixMarket matrix coordinate real general\nrows cols nnz\n", 2,
     "malformed size line"},
    {"size_line_trailing_garbage",
     "%%MatrixMarket matrix coordinate real general\n2 2 1 surplus\n1 1 1.0\n",
     2, "trailing characters"},
    {"negative_sizes",
     "%%MatrixMarket matrix coordinate real general\n-2 2 1\n1 1 1.0\n", 2,
     "bad size line"},
    {"dimension_overflow",
     "%%MatrixMarket matrix coordinate real general\n99999999999 1 0\n", 2,
     "dimension overflow"},
    {"nnz_overflow",
     "%%MatrixMarket matrix coordinate real general\n2 2 99999999999\n", 2,
     "nnz overflow"},
    {"symmetric_nnz_overflow",
     "%%MatrixMarket matrix coordinate real symmetric\n"
     "2000000000 2000000000 2000000000\n",
     2, "nnz overflow"},
    {"truncated_entries",
     "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", 3,
     "got 1 of 2"},
    {"non_numeric_index",
     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n", 3,
     "malformed entry"},
    {"non_numeric_value",
     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", 3,
     "malformed value"},
    {"entry_trailing_garbage",
     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 9\n", 3,
     "trailing characters"},
    {"row_index_too_large",
     "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3,
     "out of range"},
    {"col_index_zero",
     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 0 1.0\n", 3,
     "out of range"},
};

class MalformedMatrixMarket
    : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedMatrixMarket, RaisesParseErrorWithLine) {
  const MalformedCase& c = GetParam();
  std::istringstream in(c.content);
  try {
    sparse::read_matrix_market(in);
    FAIL() << "expected ParseError for case " << c.name;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), c.line) << e.what();
    EXPECT_NE(std::string(e.what()).find(c.what_substr), std::string::npos)
        << "message '" << e.what() << "' lacks '" << c.what_substr << "'";
    if (c.line >= 0) {
      // The rendered message carries the line too, for catch sites that
      // only log what().
      EXPECT_NE(std::string(e.what()).find("line " + std::to_string(c.line)),
                std::string::npos)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table, MalformedMatrixMarket,
                         ::testing::ValuesIn(kMalformedInputs),
                         [](const auto& p) {
                           return std::string(p.param.name);
                         });

TEST(MatrixMarketErrors, ParseErrorIsCatchableAsTaxonomyRoot) {
  std::istringstream in("not matrix market");
  EXPECT_THROW(sparse::read_matrix_market(in), mps::Error);
}

TEST(MatrixMarketErrors, MissingFileRaisesIoError) {
  EXPECT_THROW(
      sparse::read_matrix_market_file("/nonexistent/dir/matrix.mtx"),
      IoError);
}

TEST(MatrixMarketErrors, UnwritablePathRaisesIoError) {
  sparse::CooMatrix<double> a(1, 1);
  a.push_back(0, 0, 1.0);
  EXPECT_THROW(
      sparse::write_matrix_market_file("/nonexistent/dir/matrix.mtx", a),
      IoError);
}

// Well-formed inputs keep parsing after the hardening.

TEST(MatrixMarketErrors, PatternAndSymmetricStillParse) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment line\n"
      "\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  const auto a = sparse::read_matrix_market(in);
  EXPECT_EQ(a.num_rows, 3);
  EXPECT_EQ(a.num_cols, 3);
  // (2,1) mirrors to (1,2); the diagonal (3,3) does not.
  EXPECT_EQ(a.nnz(), 3);
  for (double v : a.val) EXPECT_EQ(v, 1.0);
}

TEST(MatrixMarketErrors, IntegerFieldAndCommentsBetweenEntriesParse) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 2\n"
      "% interleaved comment\n"
      "1 1 4\n"
      "2 2 -7\n");
  const auto a = sparse::read_matrix_market(in);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_EQ(a.val[0], 4.0);
  EXPECT_EQ(a.val[1], -7.0);
}

}  // namespace
