#pragma once

// Private scratch directories for tests that write files.  ctest runs every
// test in its own process, several at once under `ctest -j`, so a fixed
// path under the temp directory is shared between processes: one can
// truncate a file that another has mmapped (SIGBUS) or wipe a directory
// another is still filling.  mkdtemp gives every call a fresh directory.

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace essentials::testing {

/// Create a fresh directory `<temp>/<prefix>-XXXXXX` and return its path.
inline std::filesystem::path make_private_dir(std::string const& prefix) {
  std::string const tmpl =
      (std::filesystem::temp_directory_path() / (prefix + "-XXXXXX")).string();
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr)
    throw std::runtime_error("mkdtemp failed for " + tmpl);
  return std::filesystem::path(buf.data());
}

/// A private directory, removed with its contents on destruction.
class private_dir {
 public:
  explicit private_dir(std::string const& prefix)
      : path_(make_private_dir(prefix)) {}
  ~private_dir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  private_dir(private_dir const&) = delete;
  private_dir& operator=(private_dir const&) = delete;

  std::filesystem::path const& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace essentials::testing
