// Per-test unique scratch file paths.
//
// ctest runs every gtest case as its own process, concurrently under
// `ctest -j`, so two cases writing the same fixed TempDir() name race on
// it. unique_temp_path() folds the running test's suite and name plus the
// process id into the file name, so no two cases (and no two concurrent
// runs of the same case) ever share a path.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace rapid {

// TempDir()/<suite>.<test>.<pid>.<name>; call from inside a test. gtest's
// TempDir() ends in '/'. Parameterized suite and test names carry '/', which
// is flattened to '_' to keep the path one directory deep.
inline std::string unique_temp_path(const std::string& name) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string stem = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(stem.begin(), stem.end(), '/', '_');
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid()) + "." + name;
}

}  // namespace rapid
