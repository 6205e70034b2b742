// Whole-file reads and atomic publishes: the one way artifacts (checkpoints,
// run summaries, binary traces, scenario documents, corpora, benchmark
// records) enter and leave the disk.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace iobts {

/// Every byte of the file at `path`; nullopt when it cannot be opened or
/// read.
std::optional<std::string> readFile(const std::string& path);

/// Replace `path` with `bytes` atomically: write `path + ".tmp"`, then
/// rename it over `path`, so a reader sees the previous file or the new
/// one, never a torn one (no fsync: this guards crashes of the process,
/// not of the host). On failure the temporary is removed, `*error` (when
/// given) names the file and the step that failed, and false is returned.
bool publishFile(const std::string& path, std::string_view bytes,
                 std::string* error = nullptr);

}  // namespace iobts
