#include "pinatubo/scheduler.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pinatubo::core {

const char* to_string(StepKind k) {
  switch (k) {
    case StepKind::kIntraSub:
      return "intra-sub";
    case StepKind::kInterSub:
      return "inter-sub";
    case StepKind::kInterBank:
      return "inter-bank";
    case StepKind::kHostRead:
      return "host-read";
  }
  return "?";
}

OpScheduler::OpScheduler(const mem::Geometry& geo, const SchedulerConfig& cfg)
    : geo_(geo), cfg_(cfg) {
  geo_.validate();
  PIN_CHECK(cfg.max_rows >= 2);
}

unsigned OpScheduler::effective_max_rows(BitOp op) const {
  const auto& cell = nvm::cell_params(cfg_.tech);
  switch (op) {
    case BitOp::kOr:
      return std::min(cfg_.max_rows, csa_.max_rows(BitOp::kOr, cell));
    case BitOp::kAnd:
    case BitOp::kXor:
      return 2;
    case BitOp::kInv:
      return 1;
  }
  PIN_UNREACHABLE("bad BitOp");
}

OpPlan OpScheduler::plan(BitOp op, const std::vector<Placement>& srcs,
                         const Placement& dst,
                         bool host_reads_result) const {
  PIN_CHECK(!srcs.empty());
  if (op == BitOp::kInv)
    PIN_CHECK_MSG(srcs.size() == 1, "INV takes one operand");
  else
    PIN_CHECK_MSG(srcs.size() >= 2, "binary ops need >= 2 operands");
  for (const auto& s : srcs) {
    PIN_CHECK_MSG(s.channel == dst.channel,
                  "cross-channel operands are not supported by the hardware");
    PIN_CHECK_MSG(s.bits == dst.bits, "operand lengths must match");
  }

  OpPlan out;
  out.op = op;
  out.bits = dst.bits;

  // Can this be an intra-subarray multi-row activation?  The technology's
  // sensing margin must support the op's minimal activation shape at all —
  // e.g. 2-row AND on STT-MRAM (boundary ratio 1.43) is below the CSA's
  // reliable threshold, so AND demotes to the digital buffer path there.
  const auto& cell = nvm::cell_params(cfg_.tech);
  bool intra =
      op == BitOp::kInv || csa_.supports(op, 2, cell);
  for (const auto& s : srcs) {
    intra &= s.same_subarray(dst) && s.column_aligned(dst) &&
             s.groups == dst.groups;
  }
  // Source rows must be pairwise distinct (one wordline per operand).
  for (std::size_t i = 0; intra && i < srcs.size(); ++i)
    for (std::size_t j = i + 1; j < srcs.size(); ++j)
      if (srcs[i].rows_overlap(srcs[j])) intra = false;

  if (intra) {
    plan_intra(out, op, srcs, dst);
  } else {
    // Same bank cluster -> global row buffer; otherwise IO buffer + bus.
    bool same_cluster = true;
    for (const auto& s : srcs) same_cluster &= s.same_rank(dst);
    plan_buffer(out, op,
                same_cluster ? StepKind::kInterSub : StepKind::kInterBank,
                srcs, dst);
  }

  if (host_reads_result) {
    // One operand row per group so the engine sees the data dependency on
    // every group's result (groups rotate across ranks).  reads[0] is the
    // group-0 row, which is what the lowered RD bursts address.
    std::vector<mem::RowAddr> reads;
    reads.reserve(dst.groups);
    for (std::uint64_t g = 0; g < dst.groups; ++g)
      reads.push_back(row_of(dst, g));
    PlanStep rd = group_step(StepKind::kHostRead, op, dst, 0, std::move(reads),
                             {});
    rd.rows = 1;
    rd.bits = dst.bits;
    rd.col_steps = dst.stripes;
    rd.writeback = false;
    out.steps.push_back(std::move(rd));
  }
  return out;
}

mem::RowAddr OpScheduler::row_of(const Placement& p, std::uint64_t g) const {
  const unsigned ranks = geo_.ranks_per_channel;
  return mem::RowAddr{p.channel, p.group_rank(g, ranks), 0, p.subarray,
                      p.group_row(g, ranks)};
}

PlanStep OpScheduler::group_step(StepKind kind, BitOp op, const Placement& dst,
                                 std::uint64_t g,
                                 std::vector<mem::RowAddr> reads,
                                 std::vector<unsigned> read_cols) const {
  const std::uint64_t group_bits = geo_.row_group_bits();
  const std::uint64_t step_bits = geo_.sense_step_bits();
  PlanStep st;
  st.kind = kind;
  st.op = op;
  st.rows = static_cast<unsigned>(reads.size());
  st.bits = std::min(dst.bits - g * group_bits,
                     dst.groups == 1 ? dst.bits : group_bits);
  st.col_steps = static_cast<unsigned>((st.bits + step_bits - 1) / step_bits);
  st.col_start = dst.col_stripe;
  st.at = row_of(dst, g);
  st.reads = std::move(reads);
  st.read_cols = std::move(read_cols);
  return st;
}

void OpScheduler::plan_intra(OpPlan& out, BitOp op,
                             const std::vector<Placement>& srcs,
                             const Placement& dst) const {
  const unsigned max_rows = effective_max_rows(op);

  // In-place operands (aliasing dst) must be consumed by the FIRST
  // activation — later chain steps reuse the dst row as the accumulator.
  // The chained ops are commutative, so reordering is sound.
  std::vector<Placement> ordered = srcs;
  std::stable_partition(ordered.begin(), ordered.end(),
                        [&](const Placement& p) {
                          return p.same_subarray(dst) &&
                                 p.first_row == dst.first_row &&
                                 p.column_aligned(dst);
                        });

  for (std::uint64_t g = 0; g < dst.groups; ++g) {
    auto make_step = [&](std::vector<mem::RowAddr> reads) {
      std::vector<unsigned> cols(reads.size(), dst.col_stripe);  // aligned
      return group_step(StepKind::kIntraSub, op, dst, g, std::move(reads),
                        std::move(cols));
    };
    if (op == BitOp::kInv) {
      out.steps.push_back(make_step({row_of(ordered[0], g)}));
      continue;
    }
    const auto n = static_cast<unsigned>(ordered.size());
    unsigned consumed = std::min(max_rows, n);
    std::vector<mem::RowAddr> reads;
    for (unsigned i = 0; i < consumed; ++i)
      reads.push_back(row_of(ordered[i], g));
    out.steps.push_back(make_step(std::move(reads)));
    while (consumed < n) {
      // Accumulator row (dst) re-activated with the next operand batch.
      const unsigned k = std::min(max_rows, n - consumed + 1);
      std::vector<mem::RowAddr> chain{row_of(dst, g)};
      for (unsigned i = 0; i + 1 < k; ++i)
        chain.push_back(row_of(ordered[consumed + i], g));
      out.steps.push_back(make_step(std::move(chain)));
      consumed += k - 1;
    }
  }
}

void OpScheduler::plan_buffer(OpPlan& out, BitOp op, StepKind kind,
                              const std::vector<Placement>& srcs,
                              const Placement& dst) const {
  const std::size_t steps = op == BitOp::kInv ? 1 : srcs.size() - 1;
  for (std::uint64_t g = 0; g < dst.groups; ++g) {
    for (std::size_t i = 0; i < steps; ++i) {
      // Fold: first step combines the first two operands; later steps
      // combine the accumulator (at dst) with the next operand.
      const Placement& operand = srcs[std::min(i + 1, srcs.size() - 1)];
      const Placement& lhs = i == 0 ? srcs[0] : dst;
      PlanStep st =
          op == BitOp::kInv
              ? group_step(kind, op, dst, g, {row_of(lhs, g)},
                           {lhs.col_stripe})
              : group_step(kind, op, dst, g,
                           {row_of(lhs, g), row_of(operand, g)},
                           {lhs.col_stripe, operand.col_stripe});
      st.crosses_rank = !operand.same_rank(dst);
      out.steps.push_back(std::move(st));
    }
  }
}

}  // namespace pinatubo::core
