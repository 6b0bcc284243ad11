#include "workloads/registry.h"

#include <algorithm>
#include <stdexcept>

#include "workloads/ops/ops.h"
#include "workloads/workloads.h"

namespace sndp {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"BPROP", "BFS",    "BICG", "FWT",  "KMN",
                                                  "MiniFE", "SP",    "STN",  "STCL", "VADD"};
  return kNames;
}

const std::vector<std::string>& operator_names() {
  static const std::vector<std::string> kNames = {"GEMM", "SPMV", "REDUCE", "ATTN"};
  return kNames;
}

const std::vector<std::string>& all_workload_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names = workload_names();
    const auto& ops = operator_names();
    names.insert(names.end(), ops.begin(), ops.end());
    return names;
  }();
  return kNames;
}

bool is_workload_name(const std::string& name) {
  const auto& names = all_workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<Workload> make_workload(const std::string& name, ProblemScale scale) {
  if (name == "BPROP") return std::make_unique<BpropWorkload>(scale);
  if (name == "BFS") return std::make_unique<BfsWorkload>(scale);
  if (name == "BICG") return std::make_unique<BicgWorkload>(scale);
  if (name == "FWT") return std::make_unique<FwtWorkload>(scale);
  if (name == "KMN") return std::make_unique<KmnWorkload>(scale);
  if (name == "MiniFE") return std::make_unique<MinifeWorkload>(scale);
  if (name == "SP") return std::make_unique<SpWorkload>(scale);
  if (name == "STN") return std::make_unique<StnWorkload>(scale);
  if (name == "STCL") return std::make_unique<StclWorkload>(scale);
  if (name == "VADD") return std::make_unique<VaddWorkload>(scale);
  if (name == "GEMM") return std::make_unique<GemmOperator>(scale);
  if (name == "SPMV") return std::make_unique<SpmvOperator>(scale);
  if (name == "REDUCE") return std::make_unique<ReduceOperator>(scale);
  if (name == "ATTN") return std::make_unique<AttnOperator>(scale);
  throw std::invalid_argument("make_workload: unknown workload '" + name + "'");
}

}  // namespace sndp
