// CSV / binary dataset interchange tests.
#include <cmath>
#include <fstream>

#include <gtest/gtest.h>

#include "gen/synthetic.h"
#include "io/csv.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeDataset;
using ::k2::testing::ScratchDir;

TEST(CsvTest, RoundTrip) {
  const Dataset ds =
      MakeDataset({{0, 1, 1.5, -2.25}, {0, 2, 3.0, 4.0}, {7, 1, 0.125, 9.0}});
  const std::string path = ScratchDir("csv_rt") + "/data.csv";
  ASSERT_TRUE(WriteCsv(ds, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().records(), ds.records());
}

TEST(CsvTest, HeaderColumnOrderIsFlexible) {
  const std::string path = ScratchDir("csv_cols") + "/data.csv";
  {
    std::ofstream out(path);
    out << "oid,x,y,t\n7,1.0,2.0,3\n8,4.0,5.0,3\n";
  }
  auto ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds.value().num_points(), 2u);
  const PointRecord* rec = ds.value().Find(3, 7);
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->x, 1.0);
}

TEST(CsvTest, CrlfFileParses) {
  // Windows-exported CSVs end every line with \r\n; the header match used
  // to reject them because the last column name kept its '\r'.
  const std::string path = ScratchDir("csv_crlf") + "/data.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "t,oid,x,y\r\n0,1,1.5,-2.25\r\n0,2,3.0,4.0\r\n7,1,0.125,9.0\r\n";
  }
  auto ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const Dataset expected =
      MakeDataset({{0, 1, 1.5, -2.25}, {0, 2, 3.0, 4.0}, {7, 1, 0.125, 9.0}});
  EXPECT_EQ(ds.value().records(), expected.records());
}

TEST(CsvTest, CrlfRoundTrip) {
  // Write with WriteCsv, convert to CRLF line endings, read back.
  const Dataset ds =
      MakeDataset({{0, 1, 1.5, -2.25}, {0, 2, 3.0, 4.0}, {7, 1, 0.125, 9.0}});
  const std::string dir = ScratchDir("csv_crlf_rt");
  const std::string unix_path = dir + "/unix.csv";
  const std::string dos_path = dir + "/dos.csv";
  ASSERT_TRUE(WriteCsv(ds, unix_path).ok());
  {
    std::ifstream in(unix_path);
    std::ofstream out(dos_path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) out << line << "\r\n";
  }
  auto back = ReadCsv(dos_path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().records(), ds.records());
}

TEST(CsvTest, WhitespacePaddedFieldsParse) {
  const std::string path = ScratchDir("csv_ws") + "/data.csv";
  {
    std::ofstream out(path);
    out << " t , oid , x , y \n 3 , 7 , 1.0 , 2.0 \n";
  }
  auto ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds.value().num_points(), 1u);
  const PointRecord* rec = ds.value().Find(3, 7);
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->y, 2.0);
}

TEST(CsvTest, MissingColumnIsError) {
  const std::string path = ScratchDir("csv_missing") + "/data.csv";
  {
    std::ofstream out(path);
    out << "oid,x,y\n1,2,3\n";
  }
  auto ds = ReadCsv(path);
  EXPECT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalid);
}

TEST(CsvTest, MalformedRowIsError) {
  const std::string path = ScratchDir("csv_bad") + "/data.csv";
  {
    std::ofstream out(path);
    out << "t,oid,x,y\n1,2,3.0,4.0\nnot,a,row,!\n";
  }
  auto ds = ReadCsv(path);
  EXPECT_FALSE(ds.ok());
}

TEST(CsvTest, MalformedFieldErrorNamesRowAndColumn) {
  const std::string path = ScratchDir("csv_bad_field") + "/data.csv";
  {
    std::ofstream out(path);
    out << "t,oid,x,y\n1,2,3.0,4.0\n2,7,oops,4.0\n";
  }
  auto ds = ReadCsv(path);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalid);
  EXPECT_NE(ds.status().message().find(":3"), std::string::npos)
      << ds.status().message();
  EXPECT_NE(ds.status().message().find("column 'x'"), std::string::npos)
      << ds.status().message();
  EXPECT_NE(ds.status().message().find("oops"), std::string::npos)
      << ds.status().message();
}

TEST(CsvTest, TrailingJunkInNumericFieldIsError) {
  // std::stol used to stop at the junk and silently parse "5abc" as 5.
  const std::string path = ScratchDir("csv_junk") + "/data.csv";
  {
    std::ofstream out(path);
    out << "t,oid,x,y\n5abc,2,3.0,4.0\n";
  }
  auto ds = ReadCsv(path);
  ASSERT_FALSE(ds.ok());
  EXPECT_NE(ds.status().message().find("column 't'"), std::string::npos)
      << ds.status().message();
}

TEST(CsvTest, LeadingPlusSignStillParses) {
  // std::stod/stol accepted an explicit '+'; the from_chars rewrite keeps
  // that compatibility (but "+-3" stays invalid).
  const std::string path = ScratchDir("csv_plus") + "/data.csv";
  {
    std::ofstream out(path);
    out << "t,oid,x,y\n+1,+2,+3.5,-4.0\n2,3,+-5.0,0\n";
  }
  auto ds = ReadCsv(path);
  ASSERT_FALSE(ds.ok());  // row 3 has the "+-5.0" field
  EXPECT_NE(ds.status().message().find(":3"), std::string::npos)
      << ds.status().message();

  {
    std::ofstream out(path);
    out << "t,oid,x,y\n+1,+2,+3.5,-4.0\n";
  }
  auto good = ReadCsv(path);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good.value().num_points(), 1u);
  EXPECT_EQ(good.value().records()[0].t, 1);
  EXPECT_EQ(good.value().records()[0].oid, 2u);
  EXPECT_EQ(good.value().records()[0].x, 3.5);
  EXPECT_EQ(good.value().records()[0].y, -4.0);
}

TEST(CsvTest, OutOfRangeValueIsError) {
  const std::string path = ScratchDir("csv_range") + "/data.csv";
  {
    std::ofstream out(path);
    out << "t,oid,x,y\n99999999999999999999,2,3.0,4.0\n";
  }
  auto ds = ReadCsv(path);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalid);
}

TEST(CsvTest, NegativeObjectIdIsError) {
  // oid is unsigned; std::stoul used to wrap "-1" around to 4294967295.
  const std::string path = ScratchDir("csv_negoid") + "/data.csv";
  {
    std::ofstream out(path);
    out << "t,oid,x,y\n1,-1,3.0,4.0\n";
  }
  auto ds = ReadCsv(path);
  ASSERT_FALSE(ds.ok());
  EXPECT_NE(ds.status().message().find("column 'oid'"), std::string::npos)
      << ds.status().message();
}

TEST(CsvTest, NonFiniteCoordinateIsError) {
  // std::from_chars parses "inf" and "nan"; no store accepts them.
  const std::string path = ScratchDir("csv_nonfinite") + "/data.csv";
  for (const char* row : {"2,7,inf,4.0", "2,7,3.0,nan", "2,7,-inf,4.0"}) {
    {
      std::ofstream out(path);
      out << "t,oid,x,y\n1,2,3.0,4.0\n" << row << "\n";
    }
    auto ds = ReadCsv(path);
    ASSERT_FALSE(ds.ok()) << row;
    EXPECT_EQ(ds.status().code(), StatusCode::kInvalid);
    EXPECT_NE(ds.status().message().find(":3"), std::string::npos)
        << ds.status().message();
    EXPECT_NE(ds.status().message().find("finite number"), std::string::npos)
        << ds.status().message();
  }
}

TEST(CsvTest, MissingFileIsIOError) {
  auto ds = ReadCsv("/nonexistent/nowhere.csv");
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kIOError);
}

TEST(BinaryTest, RoundTripLargeDataset) {
  RandomWalkSpec spec;
  spec.num_objects = 50;
  spec.num_ticks = 100;
  spec.seed = 33;
  const Dataset ds = GenerateRandomWalk(spec);
  const std::string path = ScratchDir("bin_rt") + "/data.bin";
  ASSERT_TRUE(WriteBinary(ds, path).ok());
  auto back = ReadBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().records(), ds.records());
}

TEST(BinaryTest, EmptyDatasetRoundTrip) {
  const std::string path = ScratchDir("bin_empty") + "/data.bin";
  ASSERT_TRUE(WriteBinary(DatasetBuilder().Build(), path).ok());
  auto back = ReadBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(BinaryTest, RejectsNonFiniteCoordinate) {
  const std::string path = ScratchDir("bin_nonfinite") + "/data.bin";
  const Dataset ds = MakeDataset({{0, 1, 1.0, 2.0}, {1, 1, 1.0, std::nan("")}});
  ASSERT_TRUE(WriteBinary(ds, path).ok());
  auto back = ReadBinary(path);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalid);
  EXPECT_NE(back.status().message().find("record 1"), std::string::npos)
      << back.status().message();
}

TEST(BinaryTest, RejectsForeignFile) {
  const std::string path = ScratchDir("bin_bad") + "/garbage.bin";
  {
    std::ofstream out(path);
    out << "this is not a k2hop dataset";
  }
  EXPECT_FALSE(ReadBinary(path).ok());
}

TEST(BinaryTest, RejectsHeaderCountLargerThanFile) {
  // A header claiming a huge record count must be rejected by validating
  // against the file size — not by attempting a multi-GB allocation.
  const std::string path = ScratchDir("bin_huge") + "/huge.bin";
  {
    const uint64_t magic = 0x6b32686f70646174ULL;  // "k2hopdat"
    const uint64_t count = 1ULL << 50;              // ~27 PB of records
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(&magic), 8);
    out.write(reinterpret_cast<const char*>(&count), 8);
  }
  auto ds = ReadBinary(path);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalid);
}

TEST(BinaryTest, RejectsTruncatedPayload) {
  // Valid header for 100 records, but only one record of payload.
  const std::string path = ScratchDir("bin_trunc") + "/trunc.bin";
  {
    const uint64_t magic = 0x6b32686f70646174ULL;
    const uint64_t count = 100;
    const PointRecord rec{1, 2, 3.0, 4.0};
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(&magic), 8);
    out.write(reinterpret_cast<const char*>(&count), 8);
    out.write(reinterpret_cast<const char*>(&rec), sizeof(rec));
  }
  auto ds = ReadBinary(path);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalid);
}

}  // namespace
}  // namespace k2
