#include "common/log.h"

#include <cstdarg>
#include <cstdio>

namespace sndp {

void log_warn(const char* tag, const char* fmt, ...) {
  std::fprintf(stderr, "[WARN][%s] ", tag);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace sndp
