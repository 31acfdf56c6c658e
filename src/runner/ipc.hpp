// Low-level pipe I/O for the campaign worker processes (src/campaign),
// the tree's one fork-based fan-out. Unix-only.
#pragma once

#include <string>
#include <string_view>

namespace mvqoe::runner {

#if defined(__unix__) || defined(__APPLE__)

/// Write the whole buffer, retrying short writes and EINTR. False on
/// error (e.g. the read end vanished).
bool write_all(int fd, std::string_view data);

/// Drain the fd to EOF (blocking). EINTR is retried; any other error
/// truncates the result at the bytes read so far.
std::string read_all(int fd);

#endif

}  // namespace mvqoe::runner
