// Tests for rvhpc::cli — the shared --help/--version plumbing used by
// rvhpc-lint and rvhpc-profile, and the --jobs flag every binary takes.

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "engine/batch.hpp"
#include "engine/thread_pool.hpp"

using namespace rvhpc;

namespace {

const cli::ToolInfo kTool{
    "rvhpc-test", "exercises the shared CLI helpers",
    "usage: rvhpc-test [options]\n  --frob   frob the knob"};

/// Runs handle_standard_flags over a writable copy of `argv`.
bool run_flags(std::vector<std::string> argv, std::ostream& os) {
  std::vector<char*> ptrs;
  ptrs.reserve(argv.size());
  for (std::string& a : argv) ptrs.push_back(a.data());
  return cli::handle_standard_flags(static_cast<int>(ptrs.size()), ptrs.data(),
                                    kTool, os);
}

}  // namespace

TEST(CliVersion, LooksLikeSemver) {
  const std::string v = cli::version_string();
  ASSERT_FALSE(v.empty());
  EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(v.front()))) << v;
  EXPECT_NE(v.find('.'), std::string::npos) << v;
}

TEST(CliVersion, PrintFormatsNameAndVersion) {
  std::ostringstream os;
  cli::print_version(os, kTool);
  EXPECT_EQ(os.str(), "rvhpc-test (rvhpc " + cli::version_string() + ")\n");
}

TEST(CliHelp, ContainsOneLinerAndUsage) {
  std::ostringstream os;
  cli::print_help(os, kTool);
  const std::string out = os.str();
  EXPECT_NE(out.find("rvhpc-test"), std::string::npos);
  EXPECT_NE(out.find("exercises the shared CLI helpers"), std::string::npos);
  EXPECT_NE(out.find("--frob   frob the knob"), std::string::npos);
}

TEST(CliFlags, HandlesHelpAndVersionAnywhereInArgv) {
  for (const char* flag : {"--help", "-h", "--version"}) {
    std::ostringstream os;
    EXPECT_TRUE(run_flags({"rvhpc-test", "--machine", "sg2044", flag}, os))
        << flag;
    EXPECT_FALSE(os.str().empty()) << flag;
  }
}

TEST(CliFlags, IgnoresOrdinaryArguments) {
  std::ostringstream os;
  EXPECT_FALSE(run_flags({"rvhpc-test"}, os));
  EXPECT_FALSE(run_flags({"rvhpc-test", "--machine", "sg2044"}, os));
  EXPECT_FALSE(run_flags({"rvhpc-test", "--helpful", "-hh"}, os));
  EXPECT_TRUE(os.str().empty());
}

TEST(ApplyJobsFlag, ParsesValidAndRejectsMalformed) {
  const char* good[] = {"prog", "--table=3", "--jobs=3"};
  EXPECT_EQ(cli::apply_jobs_flag(3, const_cast<char**>(good)), 3);
  EXPECT_EQ(engine::default_evaluator().jobs(), 3);

  const char* absent[] = {"prog", "--verbose"};
  EXPECT_EQ(cli::apply_jobs_flag(2, const_cast<char**>(absent)), 0);

  // --jobs=0 means "every hardware thread" on every binary.
  const unsigned hw = std::thread::hardware_concurrency();
  const int want_hw = hw > 0 ? static_cast<int>(hw) : 1;
  const char* zero[] = {"prog", "--jobs=0"};
  EXPECT_EQ(cli::apply_jobs_flag(2, const_cast<char**>(zero)), want_hw);
  EXPECT_EQ(engine::default_evaluator().jobs(), want_hw);

  const char* junk[] = {"prog", "--jobs=abc"};
  EXPECT_EQ(cli::apply_jobs_flag(2, const_cast<char**>(junk)), 0);

  const char* trailing[] = {"prog", "--jobs=4x"};
  EXPECT_EQ(cli::apply_jobs_flag(2, const_cast<char**>(trailing)), 0);

  engine::set_default_jobs(engine::default_jobs());  // restore for later tests
}
