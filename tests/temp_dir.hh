/**
 * @file
 * One private scratch directory per test process.
 *
 * Tests that write files name them with tempPath(): the first call
 * makes a directory with mkdtemp under gtest's TempDir(), and the
 * process removes it, with everything in it, when it exits. No two
 * test processes share a path, so two build trees can run ctest at
 * the same time, and no fixed-name file is left behind.
 */

#ifndef WEBSLICE_TESTS_TEMP_DIR_HH
#define WEBSLICE_TESTS_TEMP_DIR_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace webslice {

/** This process's scratch directory, with a trailing slash. */
inline const std::string &
tempDir()
{
    // Names the directory for death-test children that gtest re-runs
    // from the binary ("threadsafe" style): they reuse the parent's.
    static constexpr char kInherited[] = "WEBSLICE_TEST_TEMP_DIR";

    struct Dir
    {
        std::string path;
        pid_t owner = ::getpid();

        Dir()
        {
            if (const char *inherited = std::getenv(kInherited)) {
                path = inherited;
                owner = 0; // the parent removes it
                return;
            }
            std::string pattern =
                std::string(::testing::TempDir()) + "webslice-XXXXXX";
            if (!::mkdtemp(pattern.data())) {
                std::perror("mkdtemp");
                std::abort();
            }
            path = pattern + "/";
            ::setenv(kInherited, path.c_str(), 1);
        }

        ~Dir()
        {
            // A forked death-test child exits through here too; only
            // the process that made the directory may remove it.
            if (::getpid() != owner)
                return;
            std::error_code ignored;
            std::filesystem::remove_all(path, ignored);
        }
    };
    static const Dir dir;
    return dir.path;
}

/** Path of `stem` inside tempDir(). */
inline std::string
tempPath(const std::string &stem)
{
    return tempDir() + stem;
}

} // namespace webslice

#endif // WEBSLICE_TESTS_TEMP_DIR_HH
