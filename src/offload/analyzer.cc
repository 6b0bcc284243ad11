#include "offload/analyzer.h"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>

#include "offload/dataflow.h"

namespace sndp {
namespace {

bool run_breaker(const Instr& in) {
  // Instructions that can never be inside an offload block (§3.1): control
  // flow, synchronization, scratchpad and constant-space accesses.
  switch (in.op) {
    case Opcode::kBra:
    case Opcode::kBar:
    case Opcode::kExit:
    case Opcode::kShmLd:
    case Opcode::kShmSt:
    case Opcode::kLdc:
    case Opcode::kOfldBeg:
    case Opcode::kOfldEnd:
      return true;
    default:
      return false;
  }
}

// Tracks, per register, whether it is tainted by in-region load data and
// which instruction produced its current value.
struct TaintState {
  std::array<bool, kNumRegs> tainted{};
  std::array<int, kNumRegs> producer{};  // -1: defined before the region
  std::array<int, kNumPreds> pred_producer{};

  TaintState() {
    producer.fill(-1);
    pred_producer.fill(-1);
  }
};

// Finds the first index in [begin, end) where load data (or an in-region
// predicate definition) is consumed by something that must stay on the GPU,
// and returns the index to split at (one past the producing instruction).
// Returns nullopt if the region is conflict-free.
std::optional<unsigned> find_conflict_split(const Program& prog, unsigned begin, unsigned end) {
  const auto slice = address_slice(prog, begin, end);
  TaintState st;
  for (unsigned i = begin; i < end; ++i) {
    const Instr& in = prog.at(i);

    // Guard predicate defined in-region and used by a potentially NSU-side
    // instruction: the predicate cannot be marshalled mid-block, so the
    // block must start after its definition.
    if (in.guard_pred != kNoPred && (in.is_global_mem() || in.is_alu())) {
      const int pp = st.pred_producer[static_cast<unsigned>(in.guard_pred)];
      if (pp >= 0) return static_cast<unsigned>(pp) + 1;
    }

    // Memory address base derived from in-region load data.
    if (in.is_global_mem() && st.tainted[in.src[0]]) {
      return static_cast<unsigned>(st.producer[in.src[0]]) + 1;
    }

    // GPU-side consumers (address-slice ALU or predicate compare) of
    // tainted data.
    const bool gpu_side = slice[i - begin] || in.writes_pred();
    if (gpu_side) {
      int latest = -1;
      for_each_src_reg(in, [&](std::uint8_t r) {
        if (st.tainted[r]) latest = std::max(latest, st.producer[r]);
      });
      if (latest >= 0) return static_cast<unsigned>(latest) + 1;
    }

    // Update taint / producers.
    if (in.op == Opcode::kLd) {
      st.tainted[in.dst] = true;
      st.producer[in.dst] = static_cast<int>(i);
    } else if (in.writes_reg()) {
      bool reads_taint = false;
      for_each_src_reg(in, [&](std::uint8_t r) { reads_taint = reads_taint || st.tainted[r]; });
      st.tainted[in.dst] = reads_taint;
      st.producer[in.dst] = static_cast<int>(i);
    }
    if (in.writes_pred()) st.pred_producer[in.pred_dst] = static_cast<int>(i);
  }
  return std::nullopt;
}

// Builds a fully-classified candidate for the conflict-free region
// [begin, end), or nullopt when the region has no global memory access.
std::optional<BlockCandidate> classify(const Program& prog, unsigned begin, unsigned end) {
  const unsigned n = end - begin;
  const auto slice = address_slice(prog, begin, end);
  std::vector<bool> on_nsu(n, false);

  // Pass 1: mark ALU instructions consuming in-region load data — their
  // operands only exist on the NSU.  (Conflicting consumers were split away
  // by find_conflict_split, so everything marked here is safe to move.)
  {
    const auto consumers = load_data_consumers(prog, begin, end);
    for (unsigned i = 0; i < n; ++i) {
      const Instr& in = prog.at(begin + i);
      if (consumers[i] && in.is_alu() && !in.writes_pred()) on_nsu[i] = true;
    }
  }

  // Pass 2: backward closure — sources of NSU-side instructions (store data
  // and on-NSU ALU operands) must be NSU-available.  An in-region ALU
  // producer gets pulled onto the NSU (duplicated there if it is also part
  // of an address slice); whatever is still needed at region entry becomes
  // the live-in register set.  A single backward walk reaches the fixpoint
  // because marking a producer only adds requirements further upstream.
  auto backward_needs = [&prog](unsigned lo, unsigned hi, std::vector<bool>& nsu_flags) {
    RegSet needed;
    // Guard context of each need: under which guard do the readers of this
    // value run?  kUncond when any reader is unguarded (or readers disagree);
    // otherwise the encoded (pred, sense) shared by every reader so far.
    constexpr std::int16_t kUncond = -1;
    std::array<std::int16_t, kNumRegs> need_guard{};
    need_guard.fill(kUncond);
    auto encode = [](const Instr& in) {
      return static_cast<std::int16_t>(in.guard_pred * 2 + (in.guard_sense ? 1 : 0));
    };
    auto add_need = [&](const Instr& reader, std::uint8_t r) {
      const std::int16_t g = reader.guard_pred == kNoPred ? kUncond : encode(reader);
      if (!needed.test(r)) {
        needed.set(r);
        need_guard[r] = g;
      } else if (need_guard[r] != g) {
        need_guard[r] = kUncond;
      }
    };
    for (unsigned i = hi; i-- > lo;) {
      const Instr& in = prog.at(i);
      if (in.writes_reg() && needed.test(in.dst)) {
        // An unguarded write satisfies the need outright.  A guarded write
        // defines only its active lanes, so it satisfies the need only when
        // every reader runs under that same guard; otherwise the inactive
        // lanes still read the value from before the region, and the need
        // (hence the live-in) survives.  Mirrors the live-out rule below.
        if (in.guard_pred == kNoPred || need_guard[in.dst] == encode(in)) {
          needed.reset(in.dst);
        }
        // Loads materialize in NSU registers already; ALU producers are
        // pulled onto the NSU (duplicated there if also address-slice).
        if (in.is_alu() && !in.writes_pred()) nsu_flags[i - lo] = true;
      }
      if (nsu_flags[i - lo]) {
        for_each_src_reg(in, [&](std::uint8_t r) { add_need(in, r); });
      }
      if (in.op == Opcode::kSt) add_need(in, in.src[1]);  // store data operand
    }
    return needed;
  };
  RegSet regs_in = backward_needs(begin, end, on_nsu);

  // Trim the candidate to the span covering memory instructions and
  // NSU-side ALU work; leading/trailing GPU-only instructions execute
  // outside the block unchanged.
  unsigned span_lo = n, span_hi = 0;
  for (unsigned i = 0; i < n; ++i) {
    const Instr& in = prog.at(begin + i);
    if (in.is_global_mem() || on_nsu[i]) {
      span_lo = std::min(span_lo, i);
      span_hi = std::max(span_hi, i + 1);
    }
  }
  bool has_mem = false;
  for (unsigned i = 0; i < n; ++i) {
    if (prog.at(begin + i).is_global_mem()) has_mem = true;
  }
  if (!has_mem) return std::nullopt;

  BlockCandidate c;
  c.begin = begin + span_lo;
  c.end = begin + span_hi;
  const unsigned m = c.end - c.begin;
  c.on_nsu.assign(on_nsu.begin() + span_lo, on_nsu.begin() + span_lo + m);
  c.addr_calc.resize(m, false);
  {
    // Recompute the address slice relative to the final span so producers
    // that were trimmed out are not marked.
    const auto span_slice = address_slice(prog, c.begin, c.end);
    for (unsigned i = 0; i < m; ++i) c.addr_calc[i] = span_slice[i];
  }

  // Recompute live-ins relative to the final span (trimming removes only
  // GPU-only instructions, but the entry point moved).
  regs_in = backward_needs(c.begin, c.end, c.on_nsu);

  // NSU-pulled *clean* producers (backward-closure instructions that do not
  // consume in-region load data, e.g. a MOV feeding store data) are
  // duplicated on the GPU like address-slice instructions: later GPU-side
  // instructions in the block may read their results, and only a GPU-side
  // copy keeps the register file coherent while the block is offloaded.
  // (Load-data consumers cannot be duplicated — their operands exist only
  // on the NSU — but no GPU-side instruction reads those: the conflict
  // splitter already cut the region at any such flow.)
  {
    const auto span_consumers = load_data_consumers(prog, c.begin, c.end);
    for (unsigned i = 0; i < m; ++i) {
      if (c.on_nsu[i] && !span_consumers[i]) c.addr_calc[i] = true;
    }
  }

  // Live-outs: registers whose value at block exit was produced only on the
  // NSU (a load, or a non-duplicated NSU ALU) and is read after the span.
  // An unguarded later write by a GPU-side or duplicated instruction means
  // the GPU already holds the final value — writing the NSU's copy back
  // would clobber it with a stale one.
  RegSet produced;
  for (unsigned i = 0; i < m; ++i) {
    const Instr& in = prog.at(c.begin + i);
    if (in.op == Opcode::kLd || (c.on_nsu[i] && !c.addr_calc[i] && in.writes_reg())) {
      produced.set(in.dst);
    } else if (in.writes_reg() && in.guard_pred == kNoPred) {
      produced.reset(in.dst);
    }
    if (in.is_global_mem()) {
      if (in.op == Opcode::kLd) ++c.num_loads;
      else ++c.num_stores;
    }
    if ((c.on_nsu[i] || in.is_global_mem()) && in.guard_pred != kNoPred) c.needs_preds = true;
  }
  for (unsigned r = 0; r < kNumRegs; ++r) {
    if (regs_in.test(r)) c.regs_in.push_back(static_cast<std::uint8_t>(r));
    if (produced.test(r) && live_outside(prog, c.begin, c.end, r)) {
      c.regs_out.push_back(static_cast<std::uint8_t>(r));
    }
  }

  // Eq. 1 (per-thread bytes): traffic saved by the memory instructions
  // minus the register-marshalling overhead.
  double traffic = 0.0;
  for (unsigned i = 0; i < m; ++i) {
    const Instr& in = prog.at(c.begin + i);
    if (in.is_global_mem()) traffic += in.mem_width;
  }
  c.score = traffic - 8.0 * static_cast<double>(c.regs_in.size() + c.regs_out.size());
  return c;
}

// Is the base address of the memory instruction at `idx` derived from data
// loaded earlier in the same basic block [bb_begin, idx)?
bool address_is_indirect(const Program& prog, unsigned bb_begin, unsigned idx) {
  TaintState st;
  for (unsigned i = bb_begin; i < idx; ++i) {
    const Instr& in = prog.at(i);
    if (in.op == Opcode::kLd) {
      st.tainted[in.dst] = true;
    } else if (in.writes_reg()) {
      bool reads_taint = false;
      for_each_src_reg(in, [&](std::uint8_t r) { reads_taint = reads_taint || st.tainted[r]; });
      st.tainted[in.dst] = reads_taint;
    }
  }
  return st.tainted[prog.at(idx).src[0]];
}

// Builds a single-instruction indirect-load block (§4.4).
BlockCandidate make_indirect_block(const Program& prog, unsigned idx) {
  BlockCandidate c;
  c.begin = idx;
  c.end = idx + 1;
  c.num_loads = 1;
  c.on_nsu.assign(1, false);
  c.addr_calc.assign(1, false);
  const Instr& in = prog.at(idx);
  if (in.guard_pred != kNoPred) c.needs_preds = true;
  if (live_outside(prog, idx, idx + 1, in.dst)) c.regs_out.push_back(in.dst);
  c.indirect_single_load = true;
  c.score = static_cast<double>(in.mem_width) - 8.0 * static_cast<double>(c.regs_out.size());
  return c;
}

}  // namespace

AnalysisResult analyze(const Program& prog) {
  AnalysisResult result;
  const auto bb_starts = prog.basic_block_starts();

  auto bb_begin_of = [&](unsigned idx) {
    unsigned begin = 0;
    for (unsigned s : bb_starts) {
      if (s <= idx) begin = s;
      else break;
    }
    return begin;
  };

  // Enumerate maximal offloadable runs (within one BB, no breakers).
  std::vector<std::pair<unsigned, unsigned>> runs;
  {
    unsigned i = 0;
    const unsigned n = static_cast<unsigned>(prog.size());
    while (i < n) {
      if (run_breaker(prog.at(i))) {
        ++i;
        continue;
      }
      unsigned j = i;
      while (j < n && !run_breaker(prog.at(j)) &&
             bb_begin_of(j) == bb_begin_of(i)) {
        ++j;
      }
      runs.emplace_back(i, j);
      i = j;
    }
  }

  // Recursively split runs at taint conflicts, then classify and score.
  std::vector<std::pair<unsigned, unsigned>> work(runs.rbegin(), runs.rend());
  std::vector<BlockCandidate> candidates;
  while (!work.empty()) {
    auto [begin, end] = work.back();
    work.pop_back();
    if (begin >= end) continue;
    if (auto split = find_conflict_split(prog, begin, end)) {
      // Process the halves in order; push the tail first (stack).
      work.emplace_back(*split, end);
      work.emplace_back(begin, *split);
      continue;
    }
    if (auto cand = classify(prog, begin, end)) candidates.push_back(*cand);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const BlockCandidate& a, const BlockCandidate& b) { return a.begin < b.begin; });

  for (auto& c : candidates) {
    const bool too_long = c.num_loads > kMaxBlockMemInsts || c.num_stores > kMaxBlockMemInsts;
    if (!too_long && c.score > 0.0) {
      result.accepted.push_back(std::move(c));
      continue;
    }
    // §4.4: salvage single indirect loads from rejected candidates.
    const unsigned bb = bb_begin_of(c.begin);
    for (unsigned i = c.begin; i < c.end; ++i) {
      if (prog.at(i).op == Opcode::kLd && address_is_indirect(prog, bb, i)) {
        result.accepted.push_back(make_indirect_block(prog, i));
      }
    }
    result.rejected.push_back(std::move(c));
  }
  return result;
}

std::string to_string(const BlockCandidate& c) {
  std::ostringstream os;
  os << "[" << c.begin << "," << c.end << ") loads=" << c.num_loads
     << " stores=" << c.num_stores << " in=" << c.regs_in.size()
     << " out=" << c.regs_out.size() << " score=" << c.score
     << (c.indirect_single_load ? " indirect" : "");
  return os.str();
}

}  // namespace sndp
