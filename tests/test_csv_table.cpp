#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace doda::util {
namespace {

class CsvWriterTest : public ::testing::Test {
 protected:
  // ctest runs each test in its own process, possibly concurrently, so the
  // file name is unique per process.
  std::string path_ = ::testing::TempDir() + "/doda_csv_test_" +
                      std::to_string(::getpid()) + ".csv";

  void TearDown() override { std::remove(path_.c_str()); }

  std::string contents() {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_);
    w.header({"n", "algo", "interactions"});
    w.row(16, "Gathering", 225.5);
    w.row(32, "Waiting", 1984);
    EXPECT_EQ(w.rowsWritten(), 2u);
  }
  EXPECT_EQ(contents(),
            "n,algo,interactions\n16,Gathering,225.5\n32,Waiting,1984\n");
}

TEST_F(CsvWriterTest, EscapesSpecialCharacters) {
  {
    CsvWriter w(path_);
    w.row("a,b", "say \"hi\"", "line\nbreak");
  }
  EXPECT_EQ(contents(), "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST_F(CsvWriterTest, HeaderAfterRowThrows) {
  CsvWriter w(path_);
  w.row(1);
  EXPECT_THROW(w.header({"x"}), std::logic_error);
}

TEST_F(CsvWriterTest, DoubleHeaderThrows) {
  CsvWriter w(path_);
  w.header({"x"});
  EXPECT_THROW(w.header({"y"}), std::logic_error);
}

TEST(CsvWriterError, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"),
               std::runtime_error);
}

TEST(Table, AlignsColumnsAndRightAlignsNumbers) {
  Table t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "22.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Numeric column is right-aligned: "22.5" ends its field.
  EXPECT_NE(out.find("   1"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyColumnList) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, CountsRows) {
  Table t({"x"});
  EXPECT_EQ(t.rowCount(), 0u);
  t.addRow({"1"});
  t.addRow({"2"});
  EXPECT_EQ(t.rowCount(), 2u);
}

}  // namespace
}  // namespace doda::util
