// Per-test scratch file paths for the gtest suites.

#ifndef SGNN_TESTS_TEMP_PATH_H_
#define SGNN_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace sgnn::testing_util {

/// `name` under gtest's TempDir, prefixed with the running test's full name
/// so tests run in parallel (`ctest -j`) never share a file — including the
/// `.tmp` sibling of an atomic checkpoint write.
inline std::string TempPath(const std::string& name) {
  std::string prefix;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    prefix = std::string(info->test_suite_name()) + "." + info->name() + ".";
    for (char& c : prefix) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.') c = '_';
    }
  }
  return ::testing::TempDir() + "/" + prefix + name;
}

}  // namespace sgnn::testing_util

#endif  // SGNN_TESTS_TEMP_PATH_H_
