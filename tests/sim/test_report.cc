/** @file Unit tests for report formatting. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace emv::sim {
namespace {

/** Printed columns of @p line: its UTF-8 code points. */
std::size_t
columns(const std::string &line)
{
    return static_cast<std::size_t>(
        std::count_if(line.begin(), line.end(), [](char ch) {
            return (static_cast<unsigned char>(ch) & 0xc0) != 0x80;
        }));
}

TEST(TableTest, AlignsColumns)
{
    Table table("Title", {"a", "bbbb", "c"});
    table.addRow({"xxxxxx", "y", "1.0000±0.0000"});
    table.addRow({"z", "w", "1.0000±0.0000"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    // Title, blank line, header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
    std::istringstream is(out);
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line, "Title");
    std::getline(is, line);
    EXPECT_EQ(line, "");
    // Every table line is equally wide (trailing pads included), and
    // a "±" is one column: the widest cell has 13.
    std::getline(is, line);
    EXPECT_EQ(columns(line), 6u + 2 + 4 + 2 + 13);
    const auto width = columns(line);
    while (std::getline(is, line))
        EXPECT_EQ(columns(line), width) << line;
}

TEST(TableTest, WritesItselfAsJson)
{
    Table table("T; with \"quotes\"", {"a", "b"});
    table.addRow({"1", "x; y"});
    std::ostringstream os;
    std::vector<const Table *> tables{&table};
    writeBenchJson(os, "Bench", tables, {}, 10, 20);
    json::Value root;
    ASSERT_TRUE(json::parse(os.str(), root));
    EXPECT_EQ(root.find("schema")->string, "emv-bench-v1");
    EXPECT_TRUE(root.find("cells")->array.empty());
    const json::Value &out = root.find("tables")->array.at(0);
    EXPECT_EQ(out.find("title")->string, "T; with \"quotes\"");
    ASSERT_EQ(out.find("headers")->array.size(), 2u);
    EXPECT_EQ(out.find("headers")->array[1].string, "b");
    ASSERT_EQ(out.find("rows")->array.size(), 1u);
    EXPECT_EQ(out.find("rows")->array[0].array[1].string, "x; y");
    EXPECT_EQ(root.find("throughput")->find("ops")->number, 10.0);
    EXPECT_EQ(root.find("throughput")->find("host_ns_per_op")->number,
              2.0);
}

TEST(TableTest, RowCount)
{
    Table table("T", {"a"});
    EXPECT_EQ(table.rows(), 0u);
    table.addRow({"1"});
    table.addRow({"2"});
    EXPECT_EQ(table.rows(), 2u);
}

TEST(TableDeathTest, WrongArityPanics)
{
    Table table("T", {"a", "b"});
    EXPECT_DEATH(table.addRow({"only one"}), "cells");
}

TEST(FormatTest, Pct)
{
    EXPECT_EQ(pct(0.0), "0.0%");
    EXPECT_EQ(pct(0.1234), "12.3%");
    EXPECT_EQ(pct(1.5), "150.0%");
}

TEST(FormatTest, Fmt)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(FormatTest, BytesStr)
{
    EXPECT_EQ(bytesStr(512), "512 B");
    EXPECT_EQ(bytesStr(2048), "2.00 KB");
    EXPECT_EQ(bytesStr(3 * 1024 * 1024), "3.00 MB");
    EXPECT_EQ(bytesStr(1536ull << 20), "1.50 GB");
}

} // namespace
} // namespace emv::sim
