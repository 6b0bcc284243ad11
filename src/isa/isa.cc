#include "isa/isa.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace sndp {

bool Instr::is_alu() const {
  switch (op) {
    case Opcode::kMov:
    case Opcode::kMovI:
    case Opcode::kIAdd:
    case Opcode::kISub:
    case Opcode::kIMul:
    case Opcode::kIMad:
    case Opcode::kIDiv:
    case Opcode::kIRem:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kIMin:
    case Opcode::kIMax:
    case Opcode::kFAdd:
    case Opcode::kFSub:
    case Opcode::kFMul:
    case Opcode::kFFma:
    case Opcode::kFDiv:
    case Opcode::kFMin:
    case Opcode::kFMax:
    case Opcode::kFSqrt:
    case Opcode::kFAbs:
    case Opcode::kFNeg:
    case Opcode::kI2F:
    case Opcode::kF2I:
    case Opcode::kISetp:
    case Opcode::kFSetp:
      return true;
    default:
      return false;
  }
}

unsigned Instr::num_srcs() const {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kMovI:
    case Opcode::kBar:
    case Opcode::kExit:
    case Opcode::kOfldBeg:
    case Opcode::kOfldEnd:
      return 0;
    case Opcode::kMov:
    case Opcode::kFSqrt:
    case Opcode::kFAbs:
    case Opcode::kFNeg:
    case Opcode::kI2F:
    case Opcode::kF2I:
    case Opcode::kLd:
    case Opcode::kShmLd:
    case Opcode::kLdc:
    case Opcode::kBra:
      return 1;
    case Opcode::kIMad:
    case Opcode::kFFma:
      return 3;
    case Opcode::kSt:
    case Opcode::kShmSt:
      return 2;  // src0 = address base, src1 = data
    default:
      return use_imm ? 1 : 2;
  }
}

ExecClass Instr::exec_class() const {
  if (is_mem()) return ExecClass::kMem;
  switch (op) {
    case Opcode::kIMul:
    case Opcode::kIMad:
    case Opcode::kIDiv:
    case Opcode::kIRem:
    case Opcode::kFMul:
    case Opcode::kFFma:
    case Opcode::kFDiv:
    case Opcode::kFSqrt:
      return ExecClass::kSfu;
    case Opcode::kBra:
    case Opcode::kBar:
    case Opcode::kExit:
    case Opcode::kOfldBeg:
    case Opcode::kOfldEnd:
    case Opcode::kNop:
      return ExecClass::kCtrl;
    default:
      return ExecClass::kAlu;
  }
}

double bits_to_f64(RegValue bits) {
  double v;
  static_assert(sizeof(v) == sizeof(bits));
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

RegValue f64_to_bits(double value) {
  RegValue bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool guard_passes(const Instr& instr, const ThreadCtx& ctx) {
  if (instr.guard_pred == kNoPred) return true;
  return ctx.preds[static_cast<unsigned>(instr.guard_pred)] == instr.guard_sense;
}

namespace {

std::int64_t s64(RegValue v) { return static_cast<std::int64_t>(v); }
RegValue u64(std::int64_t v) { return static_cast<RegValue>(v); }

bool compare_i(CmpOp op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

bool compare_f(CmpOp op, double a, double b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

}  // namespace

void execute_alu(const Instr& instr, ThreadCtx& ctx) {
  auto rs = [&](unsigned i) -> RegValue { return ctx.regs[instr.src[i]]; };
  // Second integer/float operand: register or immediate.
  auto op2i = [&]() -> std::int64_t { return instr.use_imm ? instr.imm : s64(rs(1)); };
  auto op2f = [&]() -> double {
    return instr.use_imm ? static_cast<double>(instr.imm) : bits_to_f64(rs(1));
  };
  auto wr = [&](RegValue v) { ctx.regs[instr.dst] = v; };
  auto wrf = [&](double v) { ctx.regs[instr.dst] = f64_to_bits(v); };

  switch (instr.op) {
    case Opcode::kMov: wr(rs(0)); break;
    case Opcode::kMovI: wr(u64(instr.imm)); break;
    case Opcode::kIAdd: wr(u64(s64(rs(0)) + op2i())); break;
    case Opcode::kISub: wr(u64(s64(rs(0)) - op2i())); break;
    case Opcode::kIMul: wr(u64(s64(rs(0)) * op2i())); break;
    case Opcode::kIMad:
      // Rd = Rs0 * (Rs1 or imm) + Rs2
      wr(u64(s64(rs(0)) * (instr.use_imm ? instr.imm : s64(rs(1))) + s64(rs(2))));
      break;
    case Opcode::kIDiv: {
      const std::int64_t d = op2i();
      wr(u64(d == 0 ? 0 : s64(rs(0)) / d));
      break;
    }
    case Opcode::kIRem: {
      const std::int64_t d = op2i();
      wr(u64(d == 0 ? 0 : s64(rs(0)) % d));
      break;
    }
    case Opcode::kAnd: wr(rs(0) & static_cast<RegValue>(op2i())); break;
    case Opcode::kOr: wr(rs(0) | static_cast<RegValue>(op2i())); break;
    case Opcode::kXor: wr(rs(0) ^ static_cast<RegValue>(op2i())); break;
    case Opcode::kShl: wr(rs(0) << (static_cast<RegValue>(op2i()) & 63)); break;
    case Opcode::kShr: wr(rs(0) >> (static_cast<RegValue>(op2i()) & 63)); break;
    case Opcode::kIMin: wr(u64(std::min(s64(rs(0)), op2i()))); break;
    case Opcode::kIMax: wr(u64(std::max(s64(rs(0)), op2i()))); break;
    case Opcode::kFAdd: wrf(bits_to_f64(rs(0)) + op2f()); break;
    case Opcode::kFSub: wrf(bits_to_f64(rs(0)) - op2f()); break;
    case Opcode::kFMul: wrf(bits_to_f64(rs(0)) * op2f()); break;
    case Opcode::kFFma:
      wrf(bits_to_f64(rs(0)) * (instr.use_imm ? static_cast<double>(instr.imm) : bits_to_f64(rs(1))) +
          bits_to_f64(rs(2)));
      break;
    case Opcode::kFDiv: wrf(bits_to_f64(rs(0)) / op2f()); break;
    case Opcode::kFMin: wrf(std::fmin(bits_to_f64(rs(0)), op2f())); break;
    case Opcode::kFMax: wrf(std::fmax(bits_to_f64(rs(0)), op2f())); break;
    case Opcode::kFSqrt: wrf(std::sqrt(bits_to_f64(rs(0)))); break;
    case Opcode::kFAbs: wrf(std::fabs(bits_to_f64(rs(0)))); break;
    case Opcode::kFNeg: wrf(-bits_to_f64(rs(0))); break;
    case Opcode::kI2F: wrf(static_cast<double>(s64(rs(0)))); break;
    case Opcode::kF2I: wr(u64(static_cast<std::int64_t>(bits_to_f64(rs(0))))); break;
    case Opcode::kISetp:
      ctx.preds[instr.pred_dst] = compare_i(instr.cmp, s64(rs(0)), op2i());
      break;
    case Opcode::kFSetp:
      ctx.preds[instr.pred_dst] = compare_f(instr.cmp, bits_to_f64(rs(0)), op2f());
      break;
    default:
      throw std::logic_error(std::string("execute_alu: not an ALU op: ") + opcode_name(instr.op));
  }
}

Addr effective_address(const Instr& instr, const ThreadCtx& ctx) {
  return static_cast<Addr>(static_cast<std::int64_t>(ctx.regs[instr.src[0]]) + instr.imm);
}

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "NOP";
    case Opcode::kMov: return "MOV";
    case Opcode::kMovI: return "MOVI";
    case Opcode::kIAdd: return "IADD";
    case Opcode::kISub: return "ISUB";
    case Opcode::kIMul: return "IMUL";
    case Opcode::kIMad: return "IMAD";
    case Opcode::kIDiv: return "IDIV";
    case Opcode::kIRem: return "IREM";
    case Opcode::kAnd: return "AND";
    case Opcode::kOr: return "OR";
    case Opcode::kXor: return "XOR";
    case Opcode::kShl: return "SHL";
    case Opcode::kShr: return "SHR";
    case Opcode::kIMin: return "IMIN";
    case Opcode::kIMax: return "IMAX";
    case Opcode::kFAdd: return "FADD";
    case Opcode::kFSub: return "FSUB";
    case Opcode::kFMul: return "FMUL";
    case Opcode::kFFma: return "FFMA";
    case Opcode::kFDiv: return "FDIV";
    case Opcode::kFMin: return "FMIN";
    case Opcode::kFMax: return "FMAX";
    case Opcode::kFSqrt: return "FSQRT";
    case Opcode::kFAbs: return "FABS";
    case Opcode::kFNeg: return "FNEG";
    case Opcode::kI2F: return "I2F";
    case Opcode::kF2I: return "F2I";
    case Opcode::kISetp: return "ISETP";
    case Opcode::kFSetp: return "FSETP";
    case Opcode::kLd: return "LD";
    case Opcode::kSt: return "ST";
    case Opcode::kShmLd: return "SHM.LD";
    case Opcode::kShmSt: return "SHM.ST";
    case Opcode::kLdc: return "LDC";
    case Opcode::kBra: return "BRA";
    case Opcode::kBar: return "BAR";
    case Opcode::kExit: return "EXIT";
    case Opcode::kOfldBeg: return "OFLD.BEG";
    case Opcode::kOfldEnd: return "OFLD.END";
  }
  return "?";
}

const char* cmp_name(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "EQ";
    case CmpOp::kNe: return "NE";
    case CmpOp::kLt: return "LT";
    case CmpOp::kLe: return "LE";
    case CmpOp::kGt: return "GT";
    case CmpOp::kGe: return "GE";
  }
  return "?";
}

std::string to_string(const Instr& instr) {
  std::ostringstream os;
  if (instr.guard_pred != kNoPred) {
    os << '@' << (instr.guard_sense ? "" : "!") << 'P' << int(instr.guard_pred) << ' ';
  }
  os << opcode_name(instr.op);
  if (instr.is_mem()) {
    os << (instr.mem_width == 4 ? (instr.mem_f32 ? ".F32" : ".32") : ".64");
  }
  if (instr.on_nsu) os << "@NSU";
  auto reg = [](std::uint8_t r) {
    std::string s = "R";
    s += std::to_string(int(r));
    return s;
  };
  switch (instr.op) {
    case Opcode::kLd:
    case Opcode::kShmLd:
    case Opcode::kLdc:
      os << ' ' << reg(instr.dst) << ", [" << reg(instr.src[0]) << '+' << instr.imm << ']';
      break;
    case Opcode::kSt:
    case Opcode::kShmSt:
      os << " [" << reg(instr.src[0]) << '+' << instr.imm << "], " << reg(instr.src[1]);
      break;
    case Opcode::kBra:
      os << " ->" << instr.target;
      break;
    case Opcode::kISetp:
    case Opcode::kFSetp:
      os << ' ' << 'P' << int(instr.pred_dst) << ", " << cmp_name(instr.cmp) << ", "
         << reg(instr.src[0]) << ", ";
      if (instr.use_imm) os << instr.imm; else os << reg(instr.src[1]);
      break;
    case Opcode::kMovI:
      os << ' ' << reg(instr.dst) << ", " << instr.imm;
      break;
    case Opcode::kOfldBeg:
    case Opcode::kOfldEnd:
      os << " #" << instr.imm;
      break;
    case Opcode::kNop:
    case Opcode::kBar:
    case Opcode::kExit:
      break;
    default: {
      os << ' ' << reg(instr.dst);
      const unsigned n = instr.num_srcs();
      const bool three_src = instr.op == Opcode::kIMad || instr.op == Opcode::kFFma;
      // Operand slots to print: an immediate still occupies slot 1.
      const unsigned total = three_src ? 3 : (instr.use_imm ? 2 : n);
      for (unsigned i = 0; i < total; ++i) {
        // The immediate always replaces the second operand when present.
        if (i == 1 && instr.use_imm) {
          os << ", " << instr.imm;
        } else {
          os << ", " << reg(instr.src[i]);
        }
      }
      break;
    }
  }
  return os.str();
}

}  // namespace sndp
