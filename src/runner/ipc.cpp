#include "runner/ipc.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <unistd.h>
#define MVQOE_HAVE_FORK 1
#else
#define MVQOE_HAVE_FORK 0
#endif

namespace mvqoe::runner {

#if MVQOE_HAVE_FORK

bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

#endif  // MVQOE_HAVE_FORK

}  // namespace mvqoe::runner
