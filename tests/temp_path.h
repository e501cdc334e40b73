#ifndef WAVEBATCH_TESTS_TEMP_PATH_H_
#define WAVEBATCH_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <cstdint>
#include <string>

#include "gtest/gtest.h"

namespace wavebatch {

/// A file path under the test temp directory that no other live test
/// shares: `stem`, this process's id and `owner`'s address. ctest runs each
/// test in its own process, and addresses repeat across processes (under
/// ASan especially), so the address alone does not keep two concurrently
/// running tests off one file.
inline std::string UniqueTempPath(const std::string& stem,
                                  const void* owner) {
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(reinterpret_cast<uintptr_t>(owner)) + ".bin";
}

}  // namespace wavebatch

#endif  // WAVEBATCH_TESTS_TEMP_PATH_H_
