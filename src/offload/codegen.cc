#include "offload/codegen.h"

#include <stdexcept>

namespace sndp {

KernelImage generate(const Program& original, const std::vector<BlockCandidate>& blocks) {
  // Blocks must be sorted and non-overlapping.
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
    if (blocks[i].end > blocks[i + 1].begin) {
      throw std::invalid_argument("generate: overlapping offload blocks");
    }
  }

  KernelImage image;
  std::vector<Instr> gpu;
  std::vector<Instr> nsu;
  std::vector<unsigned> new_index(original.size() + 1, 0);

  std::size_t next_block = 0;
  for (unsigned i = 0; i <= original.size(); ++i) {
    const bool block_starts =
        next_block < blocks.size() && blocks[next_block].begin == i;
    if (block_starts) {
      const BlockCandidate& c = blocks[next_block];
      OffloadBlockInfo info;
      info.block_id = static_cast<unsigned>(next_block);
      info.num_loads = c.num_loads;
      info.num_stores = c.num_stores;
      info.regs_in = c.regs_in;
      info.regs_out = c.regs_out;
      info.indirect_single_load = c.indirect_single_load;
      info.needs_preds = c.needs_preds;
      info.static_score = c.score;

      // GPU: OFLD.BEG marker.  A branch targeting the old block start must
      // land on the marker so offload decisions precede the block.
      new_index[i] = static_cast<unsigned>(gpu.size());
      info.gpu_begin = static_cast<unsigned>(gpu.size());
      Instr beg;
      beg.op = Opcode::kOfldBeg;
      beg.imm = static_cast<std::int64_t>(info.block_id);
      gpu.push_back(beg);

      // NSU: entry marker.
      info.nsu_entry = static_cast<unsigned>(nsu.size());
      nsu.push_back(beg);

      // Body.  new_index[i] stays at the OFLD.BEG: a branch targeting the
      // block start must re-run the offload decision.
      for (unsigned k = i; k < c.end; ++k) {
        if (k != i) new_index[k] = static_cast<unsigned>(gpu.size());
        Instr in = original.at(k);
        const unsigned rel = k - c.begin;
        in.on_nsu = c.on_nsu[rel];
        in.addr_calc = c.addr_calc[rel];
        gpu.push_back(in);
        // NSU code: loads, stores, and NSU-side ALU; address-calculation
        // instructions (unless duplicated) and other GPU-only work removed.
        if (in.is_global_mem() || in.on_nsu) {
          Instr t = in;
          t.addr_calc = false;
          nsu.push_back(t);
          ++info.nsu_inst_count;
        }
      }

      Instr fin;
      fin.op = Opcode::kOfldEnd;
      fin.imm = static_cast<std::int64_t>(info.block_id);
      info.gpu_end = static_cast<unsigned>(gpu.size());
      gpu.push_back(fin);
      nsu.push_back(fin);

      image.blocks.push_back(std::move(info));
      ++next_block;
      i = c.end - 1;  // the for-loop ++ moves past the block body
      continue;
    }
    if (i < original.size()) {
      new_index[i] = static_cast<unsigned>(gpu.size());
      gpu.push_back(original.at(i));
    } else {
      new_index[i] = static_cast<unsigned>(gpu.size());
    }
  }

  // Re-resolve branch targets.
  for (Instr& in : gpu) {
    if (in.op == Opcode::kBra) {
      in.target = static_cast<std::int32_t>(new_index.at(static_cast<unsigned>(in.target)));
    }
  }

  image.gpu = Program(std::move(gpu));
  image.nsu = Program(std::move(nsu));
  image.gpu.validate();
  return image;
}

KernelImage analyze_and_generate(const Program& original) {
  const AnalysisResult analysis = analyze(original);
  return generate(original, analysis.accepted);
}

}  // namespace sndp
