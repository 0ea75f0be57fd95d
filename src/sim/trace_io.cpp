#include "sim/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/config.hpp"
#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

BitOp op_from_name(const std::string& name) {
  if (name == "OR") return BitOp::kOr;
  if (name == "AND") return BitOp::kAnd;
  if (name == "XOR") return BitOp::kXor;
  if (name == "INV") return BitOp::kInv;
  PIN_UNREACHABLE("bad op name in trace: " + name);
}

/// Parses one whole token as an unsigned decimal.  Rejects a sign outright:
/// `istream >> std::uint64_t` would wrap "-1" to 2^64 - 1.
bool parse_u64(const std::string& tok, std::uint64_t& out,
               const std::string& line) {
  PIN_CHECK_MSG(tok.find('-') == std::string::npos,
                "negative field in trace line: " << line);
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out, 10);
  return ptr == end && ec == std::errc();
}

/// Reads the next field of `ls` as an unsigned decimal.
std::uint64_t read_u64(std::istringstream& ls, const std::string& line) {
  std::string tok;
  std::uint64_t v = 0;
  PIN_CHECK_MSG(ls >> tok && parse_u64(tok, v, line),
                "bad numeric field in trace line: " << line);
  return v;
}

}  // namespace

void save_trace(const OpTrace& trace, std::ostream& os) {
  PIN_CHECK_MSG(trace.name.find_first_of(" \n") == std::string::npos,
                "trace names must be token-safe");
  os << "trace " << (trace.name.empty() ? "unnamed" : trace.name) << '\n';
  os << "scalar " << trace.scalar_ops << ' ' << trace.scalar_bytes << ' '
     << trace.result_density << '\n';
  for (const auto& op : trace.ops) {
    os << "op " << to_string(op.op) << ' ' << op.bits << ' ' << op.dst << ' '
       << (op.host_reads_result ? 1 : 0);
    for (const auto s : op.srcs) os << ' ' << s;
    os << '\n';
  }
  os << "end\n";
  PIN_CHECK_MSG(os.good(), "trace write failed");
}

OpTrace load_trace(std::istream& is) {
  OpTrace trace;
  std::string line;
  bool saw_header = false, saw_end = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "trace") {
      ls >> trace.name;
      saw_header = true;
    } else if (tag == "scalar") {
      trace.scalar_ops = read_u64(ls, line);
      trace.scalar_bytes = read_u64(ls, line);
      std::string rest;
      ls >> trace.result_density;
      PIN_CHECK_MSG(!ls.fail() && !(ls >> rest), "bad scalar line: " << line);
      PIN_CHECK_MSG(
          trace.result_density >= 0.0 && trace.result_density <= 1.0,
          "result density outside [0, 1]: " << line);
    } else if (tag == "op") {
      std::string op_name;
      TraceOp op;
      ls >> op_name;
      op.op = op_from_name(op_name);
      op.bits = read_u64(ls, line);
      op.dst = read_u64(ls, line);
      const std::uint64_t host = read_u64(ls, line);
      PIN_CHECK_MSG(host <= 1, "host flag must be 0 or 1: " << line);
      op.host_reads_result = host == 1;
      std::string tok;
      while (ls >> tok) {
        std::uint64_t src = 0;
        PIN_CHECK_MSG(parse_u64(tok, src, line),
                      "unparsed text after the operand ids: " << line);
        op.srcs.push_back(src);
      }
      PIN_CHECK_MSG(!op.srcs.empty(), "op without operands: " << line);
      trace.ops.push_back(std::move(op));
    } else if (tag == "end") {
      saw_end = true;
      break;
    } else {
      PIN_UNREACHABLE("unknown trace line: " + line);
    }
  }
  PIN_CHECK_MSG(saw_header && saw_end, "truncated trace stream");
  return trace;
}

void save_trace_file(const OpTrace& trace, const std::string& path) {
  std::ostringstream os;
  save_trace(trace, os);
  write_text_file(path, os.str());
}

OpTrace load_trace_file(const std::string& path) {
  std::ifstream f(path);
  PIN_CHECK_MSG(f.good(), "cannot open " << path);
  return load_trace(f);
}

}  // namespace pinatubo::sim
