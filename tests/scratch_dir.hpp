// A scratch directory of the running test's own, for the suites that write
// files: testing::TempDir()/deepphi_<pid>_<suite>_<test>, created empty and
// removed with everything in it when the object goes out of scope. The
// process id keeps two runs of one suite (a repeated sanitizer leg beside a
// plain ctest, or two checkouts) from rewriting each other's files, and the
// test's name keeps its neighbours' files apart.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace deepphi::test {

class ScratchDir {
 public:
  ScratchDir() {
    std::string name = "deepphi_" + std::to_string(::getpid());
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info())
      name += std::string("_") + info->test_suite_name() + "_" + info->name();
    for (char& ch : name)
      if (ch == '/') ch = '_';  // parameterized tests: Prefix/Suite.Name/3
    path_ = (std::filesystem::path(::testing::TempDir()) / name).string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;  // a destructor must not throw
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  /// `name` inside the directory.
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace deepphi::test
