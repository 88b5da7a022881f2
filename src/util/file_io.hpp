// Whole-file slurp/spill helpers shared by the result cache, the sweep CLI
// and the benches, so short-read/short-write handling lives in one place.
#ifndef XDRS_UTIL_FILE_IO_HPP
#define XDRS_UTIL_FILE_IO_HPP

#include <optional>
#include <string>
#include <string_view>

namespace xdrs::util {

/// Reads a whole file as bytes; nullopt if it cannot be opened or read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Writes `content` (binary, truncating) and flushes; throws
/// std::runtime_error naming the path on any failure.
void write_file(const std::string& path, std::string_view content);

/// A 16-hex token unique across threads and (with overwhelming probability)
/// processes, for naming temp files that concurrent cache writers publish
/// via atomic rename.
[[nodiscard]] std::string unique_tmp_token();

}  // namespace xdrs::util

#endif  // XDRS_UTIL_FILE_IO_HPP
