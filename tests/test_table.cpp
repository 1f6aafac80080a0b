#include "analysis/table.hpp"

#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "runtime/sweep.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace simdts::analysis {
namespace {

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), ConfigError);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row().add("a").add(std::uint64_t{12345});
  t.row().add("longer-name").add(std::uint64_t{1});
  const std::string s = t.to_string();
  std::istringstream is(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << "ragged line: '" << line << "'";
  }
}

TEST(Table, RowOverflowThrows) {
  Table t({"a", "b"});
  t.row().add(1).add(2);
  EXPECT_THROW(t.add(3), InvariantError);
}

TEST(Table, IncompleteRowDetectedOnNextRow) {
  Table t({"a", "b"});
  t.row().add(1);
  EXPECT_THROW(t.row(), InvariantError);
}

TEST(Table, DoubleFormatting) {
  Table t({"x"});
  t.row().add(0.9053, 2);
  EXPECT_EQ(t.cell(0, 0), "0.91");
  EXPECT_EQ(format_double(1.0 / 3.0, 3), "0.333");
}

TEST(Table, CsvRoundTrip) {
  Table t({"a", "b"});
  t.row().add("x").add(std::uint64_t{7});
  t.row().add("y").add(std::uint64_t{8});
  EXPECT_EQ(t.to_csv(), "a,b\nx,7\ny,8\n");
}

TEST(Table, CellAccess) {
  Table t({"a"});
  t.row().add(42);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.columns(), 1u);
  EXPECT_EQ(t.cell(0, 0), "42");
}

TEST(Table, StreamOperatorMatchesToString) {
  Table t({"a", "b"});
  t.row().add(1).add(2);
  std::ostringstream os;
  os << t;
  EXPECT_EQ(os.str(), t.to_string());
}

TEST(WriteFile, CreatesParentDirectories) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "simdts_test_write";
  std::filesystem::remove_all(dir);
  const std::filesystem::path file = dir / "nested" / "out.csv";
  ASSERT_TRUE(write_file(file.string(), "hello\n"));
  std::ifstream in(file);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "hello");
  std::filesystem::remove_all(dir);
}

/// Sets an environment variable for one scope and unsets it on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

using common::env_u64;

TEST(EnvU64, UnsetOrEmptyFallsBackAndPlainNumbersParse) {
  const char* name = "SIMDTS_TEST_ENV_U64";
  ::unsetenv(name);
  EXPECT_EQ(env_u64(name, 77), 77u);
  {
    const ScopedEnv env(name, "");
    EXPECT_EQ(env_u64(name, 77), 77u);
  }
  {
    const ScopedEnv env(name, "8192");
    EXPECT_EQ(env_u64(name, 77), 8192u);
  }
  {
    const ScopedEnv env(name, "18446744073709551615");
    EXPECT_EQ(env_u64(name, 77), std::numeric_limits<std::uint64_t>::max());
  }
  {
    const ScopedEnv env(name, "4294967295");
    EXPECT_EQ(env_u64(name, 77, std::numeric_limits<std::uint32_t>::max()),
              std::numeric_limits<std::uint32_t>::max());
  }
  {
    // The sweep's thread knob goes through the same parser.
    const ScopedEnv env("SIMDTS_SWEEP_THREADS", "3");
    EXPECT_EQ(runtime::sweep_threads(), 3u);
  }
}

TEST(EnvU64, MalformedValuesThrowConfigErrorNamingTheVariable) {
  const char* name = "SIMDTS_TEST_ENV_U64";
  // Trailing characters, signs, whitespace, zero, and values past 2^64 - 1.
  for (const char* bad : {"8k", "12 ", " 12", "0x10", "1.5", "-1", "+5", "0",
                          "abc", "18446744073709551616"}) {
    const ScopedEnv env(name, bad);
    try {
      (void)env_u64(name, 77);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
  // A machine size past the 32-bit PE index range is rejected rather than
  // truncated (4294967296 would otherwise become P = 0).
  {
    const ScopedEnv env(name, "4294967296");
    EXPECT_THROW(
        (void)env_u64(name, 77, std::numeric_limits<std::uint32_t>::max()),
        ConfigError);
  }
  // The sweep's thread knob rejects a prefix, a wrapped negative, a value
  // that would truncate to zero threads, and one past its explicit cap.
  for (const char* bad : {"8k", "-1", "4294967296", "1025"}) {
    const ScopedEnv env("SIMDTS_SWEEP_THREADS", bad);
    try {
      (void)runtime::sweep_threads();
      ADD_FAILURE() << "SIMDTS_SWEEP_THREADS accepted '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("SIMDTS_SWEEP_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace simdts::analysis
