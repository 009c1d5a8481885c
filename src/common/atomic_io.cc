#include "common/atomic_io.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "common/hash.h"
#include "common/require.h"

namespace bbrmodel {

void write_file_atomically(const std::string& path, const std::string& bytes,
                           const std::string& what) {
  // The temp name must be unique per writer across *processes*: thread ids
  // alone can hash identically in two processes racing to double-complete
  // the same deterministic cell, and an interleaved temp file would get
  // renamed into place as corrupt data.
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "-" +
      hex64(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  bool written = false;
  {
    std::ofstream out(tmp, std::ios::trunc);
    BBRM_REQUIRE_MSG(static_cast<bool>(out),
                     "cannot write " + what + " temp file " + tmp);
    out << bytes;
    out.flush();
    written = out.good();  // a full disk must not publish truncated bytes
  }
  if (!written) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    BBRM_REQUIRE_MSG(false, "failed writing " + what + " (" + path + ")");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  BBRM_REQUIRE_MSG(!ec, "cannot publish " + what + " at " + path);
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  // Size the buffer from the file's length so a multi-megabyte plan is
  // read in one call; keep reading past it in case the file grew since.
  std::string bytes;
  struct stat st {};
  if (::fstat(::fileno(file), &st) == 0 && S_ISREG(st.st_mode)) {
    bytes.resize(static_cast<std::size_t>(st.st_size) + 1);
  }
  std::size_t got = 0;
  while (true) {
    if (got == bytes.size()) {
      bytes.resize(std::max<std::size_t>(2 * got, 4096));
    }
    const std::size_t n =
        std::fread(bytes.data() + got, 1, bytes.size() - got, file);
    if (n == 0) break;
    got += n;
  }
  std::fclose(file);
  bytes.resize(got);
  return bytes;
}

}  // namespace bbrmodel
