#include "workloads/workload.h"

namespace sndp {

bool parse_problem_scale(const std::string& text, ProblemScale* out) {
  if (text == "tiny") {
    *out = ProblemScale::kTiny;
  } else if (text == "small") {
    *out = ProblemScale::kSmall;
  } else if (text == "large") {
    *out = ProblemScale::kLarge;
  } else {
    return false;
  }
  return true;
}

}  // namespace sndp
