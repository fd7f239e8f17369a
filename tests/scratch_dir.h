#ifndef PAE_TESTS_SCRATCH_DIR_H_
#define PAE_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace pae::test {

/// A directory private to this test process: made with mkdtemp under
/// ::testing::TempDir() on first use and removed at exit. ctest runs
/// every test case as its own process, several at once, so fixed file
/// or socket names under TempDir() collide between cases.
inline const std::string& ScratchDir() {
  struct Dir {
    Dir() {
      path = (std::filesystem::path(::testing::TempDir()) / "pae_test_XXXXXX")
                 .string();
      if (mkdtemp(path.data()) == nullptr) {
        std::perror("mkdtemp");
        std::abort();
      }
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    std::string path;
  };
  static const Dir dir;
  return dir.path;
}

/// `name` inside ScratchDir().
inline std::string ScratchPath(const std::string& name) {
  return (std::filesystem::path(ScratchDir()) / name).string();
}

}  // namespace pae::test

#endif  // PAE_TESTS_SCRATCH_DIR_H_
