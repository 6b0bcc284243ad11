// Workload factory: make any of the paper's Table 1 workloads by name.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace sndp {

// Names in Table 1 order: BPROP BFS BICG FWT KMN MiniFE SP STN STCL VADD.
const std::vector<std::string>& workload_names();

// Operator-library generators (src/workloads/ops): GEMM SPMV REDUCE ATTN.
const std::vector<std::string>& operator_names();

// Table-1 workloads followed by the operators — everything make_workload
// accepts.
const std::vector<std::string>& all_workload_names();

// True when make_workload accepts `name`.
bool is_workload_name(const std::string& name);

// Throws std::invalid_argument for unknown names.
std::unique_ptr<Workload> make_workload(const std::string& name, ProblemScale scale);

}  // namespace sndp
