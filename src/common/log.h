// Warnings on stderr, printf-style, one line each: "[WARN][tag] message".
#pragma once

namespace sndp {

void log_warn(const char* tag, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace sndp
