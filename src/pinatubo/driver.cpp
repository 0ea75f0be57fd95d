#include "pinatubo/driver.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/schedule_trace.hpp"

namespace pinatubo::core {

PimRuntime::PimRuntime(const mem::Geometry& geo)
    : PimRuntime(geo, Options{}) {}

PimRuntime::PimRuntime(const mem::Geometry& geo, const Options& opts)
    : opts_(opts), mem_(geo, opts.tech, opts.fidelity, opts.seed),
      alloc_(geo, opts.policy,
             opts.reliability.spares_needed() ? opts.reliability.retry.spare_rows
                                              : 0),
      sched_(geo, SchedulerConfig{opts.max_rows, opts.tech}),
      cost_model_(geo, opts.tech), engine_(cost_model_) {
  if (opts_.reliability.fault.enabled) {
    fault_model_ =
        std::make_unique<reliability::FaultModel>(opts_.reliability.fault);
    mem_.set_fault_hooks(fault_model_.get());
  }
  if (opts_.reliability.detection_enabled()) {
    relmgr_ = std::make_unique<reliability::RecoveryManager>(
        mem_, opts_.reliability,
        [this](unsigned ch, unsigned rk, unsigned sub) {
          return alloc_.take_spare(ch, rk, sub);
        });
  }
  if (opts_.reliability.verify.level != reliability::VerifyLevel::kOff)
    verifier_ =
        std::make_unique<verify::Verifier>(cost_model_, opts_.max_rows);
}

PimRuntime::Handle PimRuntime::pim_malloc(std::uint64_t bits) {
  const Placement p = alloc_.allocate(bits);
  const Handle h = next_handle_++;
  vectors_.emplace(h, p);
  return h;
}

void PimRuntime::pim_free(Handle h) {
  const auto it = vectors_.find(h);
  PIN_CHECK_MSG(it != vectors_.end(), "bad handle " << h);
  alloc_.free(it->second);
  vectors_.erase(it);
}

const Placement& PimRuntime::placement(Handle h) const {
  const auto it = vectors_.find(h);
  PIN_CHECK_MSG(it != vectors_.end(), "bad handle " << h);
  return it->second;
}

void PimRuntime::scatter(const Placement& p, const BitVector& v) {
  // Each bank_share-long run of vector bits maps to a contiguous bit range
  // of one bank row, so scatter/gather move whole chunks with
  // copy_bits instead of walking bits.  Scatter stays read-modify-write +
  // one write_row per touched bank so the wear ledger sees exactly one
  // full-row write per physical row activation, as before.
  const auto& g = mem_.geometry();
  const std::uint64_t step = g.sense_step_bits();
  const std::uint64_t bank_share = step / g.banks_per_chip;
  const std::uint64_t group_bits = static_cast<std::uint64_t>(p.stripes) * step;
  for (std::uint64_t grp = 0; grp < p.groups; ++grp) {
    std::vector<BitVector> bank_rows;
    std::vector<bool> touched(g.banks_per_chip, false);
    bank_rows.reserve(g.banks_per_chip);
    const unsigned rk = p.group_rank(grp, g.ranks_per_channel);
    const unsigned row = p.group_row(grp, g.ranks_per_channel);
    for (unsigned b = 0; b < g.banks_per_chip; ++b) {
      mem::RowAddr a{p.channel, rk, b, p.subarray, row};
      bank_rows.push_back(mem_.read_row(a));
    }
    const std::uint64_t base = grp * group_bits;
    const std::uint64_t count = std::min<std::uint64_t>(
        group_bits, v.size() > base ? v.size() - base : 0);
    for (std::uint64_t q = 0; q < count;) {
      const std::uint64_t within = q % step;
      const auto b = static_cast<unsigned>(within / bank_share);
      const std::uint64_t in_share = within % bank_share;
      const std::uint64_t len = std::min(bank_share - in_share, count - q);
      const std::size_t bit =
          (p.col_stripe + q / step) * bank_share + in_share;
      copy_bits(bank_rows[b].words(), bit, v.words(), base + q, len);
      touched[b] = true;
      q += len;
    }
    for (unsigned b = 0; b < g.banks_per_chip; ++b) {
      if (!touched[b]) continue;
      mem::RowAddr a{p.channel, rk, b, p.subarray, row};
      store_row(a, bank_rows[b]);
    }
  }
}

void PimRuntime::store_row(const mem::RowAddr& addr, const BitVector& data) {
  if (relmgr_)
    relmgr_->write(addr, 0, data);
  else
    mem_.write_row(addr, data);
}

void PimRuntime::store_window(const mem::RowAddr& addr, std::size_t bit_offset,
                              const BitVector& data) {
  if (relmgr_)
    relmgr_->write(addr, bit_offset, data);
  else
    mem_.write_row_partial(addr, bit_offset, data);
}

BitVector PimRuntime::gather(const Placement& p) const {
  const auto& g = mem_.geometry();
  const std::uint64_t step = g.sense_step_bits();
  const std::uint64_t bank_share = step / g.banks_per_chip;
  const std::uint64_t group_bits = static_cast<std::uint64_t>(p.stripes) * step;
  BitVector v(p.bits);
  for (std::uint64_t grp = 0; grp < p.groups; ++grp) {
    const unsigned rk = p.group_rank(grp, g.ranks_per_channel);
    const unsigned row = p.group_row(grp, g.ranks_per_channel);
    const std::uint64_t base = grp * group_bits;
    const std::uint64_t count = std::min<std::uint64_t>(
        group_bits, v.size() > base ? v.size() - base : 0);
    // Chunk-wise zero-copy reads straight from the row arenas.
    for (std::uint64_t q = 0; q < count;) {
      const std::uint64_t within = q % step;
      const auto b = static_cast<unsigned>(within / bank_share);
      const std::uint64_t in_share = within % bank_share;
      const std::uint64_t len = std::min(bank_share - in_share, count - q);
      const std::size_t bit =
          (p.col_stripe + q / step) * bank_share + in_share;
      mem::RowAddr a{p.channel, rk, b, p.subarray, row};
      copy_bits(v.words(), base + q, mem_.row_view(a), bit, len);
      q += len;
    }
  }
  return v;
}

void PimRuntime::pim_write(Handle h, const BitVector& data) {
  const Placement& p = placement(h);
  PIN_CHECK_MSG(data.size() == p.bits,
                "vector is " << p.bits << " bits, got " << data.size());
  scatter(p, data);
  sync_reliability();
}

BitVector PimRuntime::pim_read(Handle h) const { return gather(placement(h)); }

void PimRuntime::reduce_into(
    BitOp op, const std::vector<Placement>& src_p, const Placement& dst_p,
    const std::vector<std::optional<BitVector>>& snapshots) {
  std::vector<BitVector> gathered;
  gathered.reserve(src_p.size());
  std::vector<const BitVector*> operands;
  operands.reserve(src_p.size());
  for (std::size_t i = 0; i < src_p.size(); ++i) {
    if (i < snapshots.size() && snapshots[i]) {
      operands.push_back(&*snapshots[i]);
    } else {
      gathered.push_back(gather(src_p[i]));
      operands.push_back(&gathered.back());
    }
  }
  scatter(dst_p, BitVector::reduce(op, operands));
}

bool PimRuntime::activate(const PlanStep& planned, OpPlan& executed) {
  using reliability::SenseVerify;
  using reliability::WriteVerify;
  const auto& g = mem_.geometry();
  const auto& rel = opts_.reliability;
  const std::size_t bank_share = g.sense_step_bits() / g.banks_per_chip;
  const std::size_t win_lo = planned.col_start * bank_share;
  const std::size_t win_len = planned.col_steps * bank_share;
  const auto k = static_cast<unsigned>(planned.reads.size());

  // Every step this activation really takes is a copy of the planned one
  // with its rows, writeback and attempt changed, so the cost model prices
  // the ladder exactly like the scheduler's own steps.
  auto ladder_step = [&](StepKind kind, bool writeback, unsigned attempt,
                         std::vector<mem::RowAddr> reads) {
    PlanStep st = planned;
    st.kind = kind;
    st.writeback = writeback;
    st.attempt = attempt;
    st.reads = std::move(reads);
    st.rows = static_cast<unsigned>(st.reads.size());
    st.read_cols.assign(st.reads.size(), planned.col_start);
    return st;
  };
  auto dst_in = [&](unsigned bank) {
    mem::RowAddr a = planned.at;
    a.bank = bank;
    return a;
  };
  auto sense_window = [&](const std::vector<mem::RowAddr>& rows) {
    BitVector window(win_len);
    copy_bits(window.words(), 0, mem_.sense_rows(rows, planned.op).words(),
              win_lo, win_len);
    return window;
  };

  for (unsigned attempt = 0; attempt <= rel.retry.max_resense; ++attempt) {
    if (attempt > 0) ++relmgr_->counters().retries;
    // Sense every bank of the lock-step cluster; verify per the policy.
    std::vector<BitVector> sensed(g.banks_per_chip);
    std::vector<mem::RowAddr> rows = planned.reads;
    unsigned bad = 0;
    for (unsigned b = 0; b < g.banks_per_chip; ++b) {
      for (auto& r : rows) r.bank = b;
      BitVector window = sense_window(rows);
      bool ok_b = true;
      if (rel.verify.sense == SenseVerify::kReadback)
        ok_b = window ==
               relmgr_->expected_window(rows, planned.op, win_lo, win_len);
      else if (rel.verify.sense == SenseVerify::kDouble)
        ok_b = window == sense_window(rows);
      bad += ok_b ? 0 : 1;
      sensed[b] = std::move(window);
    }
    const bool ok = bad == 0;

    // Price what actually happened.  Failed attempts keep their activation
    // cost but skip the writeback; double-sensing adds a shadow activation;
    // read-back verification is a digital fold at the global row buffer.
    if (rel.verify.sense == SenseVerify::kDouble)
      executed.steps.push_back(
          ladder_step(StepKind::kIntraSub, false, attempt, planned.reads));
    executed.steps.push_back(
        ladder_step(StepKind::kIntraSub, ok, attempt, planned.reads));
    if (rel.verify.sense == SenseVerify::kReadback) {
      const unsigned vsteps = k > 1 ? k - 1 : 1;
      for (unsigned i = 0; i < vsteps; ++i) {
        std::vector<mem::RowAddr> pair{planned.reads[i]};
        if (i + 1 < k) pair.push_back(planned.reads[i + 1]);
        executed.steps.push_back(ladder_step(StepKind::kInterSub, false,
                                             attempt, std::move(pair)));
      }
    }
    if (!ok) {
      relmgr_->counters().detected_faults += bad;
      continue;  // re-sense: a new epoch redraws the transient flips
    }

    // Commit through the verified write path (detects persistent faults in
    // the destination row and remaps them while the true result is known).
    // Without a recovery manager nothing verifies, so this is the plain store.
    const std::uint64_t remaps_before =
        relmgr_ ? relmgr_->counters().remaps : 0;
    for (unsigned b = 0; b < g.banks_per_chip; ++b)
      store_window(dst_in(b), win_lo, sensed[b]);
    if (!relmgr_) return true;
    if (rel.verify.writes != WriteVerify::kNone) {
      PlanStep wv =
          ladder_step(StepKind::kInterSub, false, attempt, {planned.at});
      if (rel.verify.writes == WriteVerify::kReadback) {
        wv.rows = 2;
      } else {
        // Parity checks one packed parity word per 64 data words.
        wv.col_steps = 1;
        wv.bits = std::max<std::uint64_t>(1, planned.bits / 64);
      }
      executed.steps.push_back(std::move(wv));
    }
    // Each remap rewrote (and re-verified) a full rank-row in every bank:
    // the step covers the whole row, not the planned column window.  It is
    // a row copy, priced as an INV like `pim_copy`, not a 1-row `op`.
    for (std::uint64_t i = remaps_before; i < relmgr_->counters().remaps;
         ++i) {
      PlanStep rm =
          ladder_step(StepKind::kIntraSub, true, attempt, {planned.at});
      rm.op = BitOp::kInv;
      rm.col_steps = g.sa_mux_share;
      rm.bits = g.row_group_bits();
      rm.col_start = 0;
      rm.read_cols.assign(rm.reads.size(), 0);
      executed.steps.push_back(std::move(rm));
    }
    return true;
  }

  // Retries exhausted: de-escalate the activation (OR only — AND/XOR/INV
  // shapes are already minimal).  Halving re-enters the ladder per half at
  // a wider sense margin, accumulating into dst.
  if (rel.retry.deescalate && planned.op == BitOp::kOr && k > 2) {
    ++relmgr_->counters().deescalations;
    const auto half = planned.reads.begin() + (k + 1) / 2;
    std::vector<mem::RowAddr> rest{planned.at};  // holds the first half
    rest.insert(rest.end(), half, planned.reads.end());
    return activate(ladder_step(StepKind::kIntraSub, true, planned.attempt,
                                {planned.reads.begin(), half}),
                    executed) &&
           activate(ladder_step(StepKind::kIntraSub, true, planned.attempt,
                                std::move(rest)),
                    executed);
  }
  return false;
}

void PimRuntime::submit(OpPlan plan) {
  ++stats_.ops;
  if (trace_ && trace_->enabled()) trace_->count("pim.ops");
  stats_.intra_steps += plan.count(StepKind::kIntraSub);
  stats_.inter_sub_steps += plan.count(StepKind::kInterSub);
  stats_.inter_bank_steps += plan.count(StepKind::kInterBank);
  stats_.host_reads += plan.count(StepKind::kHostRead);
  if (in_batch_) {
    batch_plans_.push_back(std::move(plan));
    return;
  }
  const std::vector<OpPlan> one{std::move(plan)};
  flush(one);
}

void PimRuntime::flush(const std::vector<OpPlan>& plans) {
  const ExecutionEngine::Result r = engine_.run(plans);
  if (verifier_) {
    const verify::Report rep = verifier_->check(plans, r);
    PIN_CHECK_MSG(rep.ok(), "static verifier rejected a batch of "
                                << plans.size() << " plans:\n"
                                << rep.to_string());
  }
  if (trace_ && trace_->enabled()) {
    // Batches tile the trace timeline exactly where they accrue into
    // cost_: batch i starts at the makespan accumulated before it.
    obs::render_schedule(*trace_, plans, r, cost_.time_ns);
    trace_->count("pim.batches");
    trace_->count("pim.bus_bytes", r.profile.bus_bytes);
    for (std::size_t k = 0; k < kStepKindCount; ++k)
      trace_->count(std::string("pim.steps.") +
                        to_string(static_cast<StepKind>(k)),
                    r.profile.steps[k]);
  }
  cost_ += r.cost;
  ++stats_.batches;
  stats_.serial_time_ns += r.serial_time_ns;
  stats_.bus_bytes += r.profile.bus_bytes;
  for (std::size_t k = 0; k < kStepKindCount; ++k) {
    stats_.by_class[k].time_ns += r.profile.time_ns[k];
    stats_.by_class[k].energy_pj += r.profile.energy_pj[k];
    stats_.by_class[k].steps += r.profile.steps[k];
  }
  if (opts_.record_commands) {
    // Commands interleave across plans in schedule order; each step's
    // sequence is self-contained, so the stream stays replayable.
    for (const auto& ss : r.schedule)
      cost_model_.lower_step(plans[ss.plan].steps[ss.step], commands_);
  }
}

void PimRuntime::pim_begin() {
  PIN_CHECK_MSG(!in_batch_, "pim_begin: batch already open");
  in_batch_ = true;
}

void PimRuntime::pim_barrier() {
  PIN_CHECK_MSG(in_batch_, "pim_barrier without pim_begin");
  in_batch_ = false;
  const std::vector<OpPlan> plans = std::move(batch_plans_);
  batch_plans_.clear();
  if (!plans.empty()) flush(plans);
}

void PimRuntime::pim_op(BitOp op, const std::vector<Handle>& srcs, Handle dst,
                        bool host_reads_result) {
  std::vector<Placement> src_p;
  src_p.reserve(srcs.size());
  for (const Handle h : srcs) src_p.push_back(placement(h));
  const Placement& dst_p = placement(dst);

  OpPlan plan = sched_.plan(op, src_p, dst_p, host_reads_result);

  // Functional execution (eager even inside a batch: program order keeps
  // interleaved pim_write / pim_read semantics; only pricing defers).
  if (plan.count(StepKind::kIntraSub) == 0) {
    submit(std::move(plan));
    // Buffer paths compute exactly in digital logic.
    reduce_into(op, src_p, dst_p, {});
    sync_reliability();  // scatter may have detected write faults
    return;
  }

  // Intra-subarray: run the planned activations in order and submit the
  // steps they really took.  Snapshot dst-aliasing operands first: a
  // partially-executed chain overwrites dst, and the CPU fallback must
  // still see the original operand values.
  std::vector<std::optional<BitVector>> snapshots(src_p.size());
  if (relmgr_ && opts_.reliability.retry.cpu_fallback) {
    for (std::size_t i = 0; i < src_p.size(); ++i)
      if (src_p[i].rows_overlap(dst_p)) snapshots[i] = gather(src_p[i]);
  }
  OpPlan executed;
  executed.op = op;
  executed.bits = plan.bits;
  bool ok = true;
  for (const PlanStep& st : plan.steps) {
    if (st.kind == StepKind::kIntraSub)
      ok = activate(st, executed);
    else
      executed.steps.push_back(st);  // the host-read tail
    if (!ok) break;
  }
  PIN_CHECK_MSG(ok || opts_.reliability.retry.cpu_fallback,
                "recovery ladder exhausted for "
                    << to_string(op) << " and retry.cpu_fallback is disabled");
  submit(std::move(executed));  // failed attempts still cost time
  if (!ok)
    fallback_op(op, src_p, dst_p, snapshots, srcs, dst, host_reads_result);
  sync_reliability();
}

void PimRuntime::fallback_op(BitOp op, const std::vector<Placement>& src_p,
                             const Placement& dst_p,
                             const std::vector<std::optional<BitVector>>& snapshots,
                             const std::vector<Handle>& srcs, Handle dst,
                             bool host_reads_result) {
  // Functional: recompute from the stored operands (clean — persistent
  // faults were healed at write time), or the pre-op snapshot when the
  // operand aliased dst.  The result is exact by construction.
  reduce_into(op, src_p, dst_p, snapshots);

  // Costed: the whole op runs as a CPU bulk kernel streaming from PCM
  // (operand reads + result write included — no extra host-read steps, or
  // the transfer would be double-counted).
  if (!cpu_)
    cpu_ = std::make_unique<sim::SimdCpuModel>(sim::CpuConfig{},
                                               sim::MemKind::kPcm);
  sim::TraceOp top;
  top.op = op;
  top.srcs = srcs;
  top.dst = dst;
  top.bits = dst_p.bits;
  top.host_reads_result = host_reads_result;
  const mem::Cost c = cpu_->bulk_op(top);
  ++relmgr_->counters().fallbacks;
  stats_.fallback_time_ns += c.time_ns;
  stats_.fallback_energy_pj += c.energy.total_pj();
  if (trace_ && trace_->enabled()) {
    // The fallback tiles at the accrued makespan on its own host track;
    // its category is not a step class, so SpanSums-style per-class
    // reconciliation is unaffected while max_end still covers it.
    const std::uint32_t tr = trace_->track("host/cpu");
    trace_->span(std::string("cpu-fallback ") + to_string(op), cost_.time_ns,
                 c.time_ns, tr, "cpu-fallback");
  }
  cost_ += c;
  stats_.serial_time_ns += c.time_ns;
}

void PimRuntime::sync_reliability() {
  if (!relmgr_) return;
  const reliability::Counters& c = relmgr_->counters();
  auto bump = [&](const char* key, std::uint64_t cur, std::uint64_t& last,
                  std::uint64_t& stat) {
    const std::uint64_t d = cur - last;
    if (d == 0) return;
    if (trace_ && trace_->enabled()) trace_->count(key, d);
    stat += d;
    last = cur;
  };
  bump("pim.detected_faults", c.detected_faults, last_rel_.detected_faults,
       stats_.detected_faults);
  bump("pim.retries", c.retries, last_rel_.retries, stats_.retries);
  bump("pim.deescalations", c.deescalations, last_rel_.deescalations,
       stats_.deescalations);
  bump("pim.remaps", c.remaps, last_rel_.remaps, stats_.remaps);
  bump("pim.fallbacks", c.fallbacks, last_rel_.fallbacks, stats_.fallbacks);
}

void PimRuntime::pim_copy(Handle src, Handle dst) {
  const Placement& src_p = placement(src);
  const Placement& dst_p = placement(dst);
  PIN_CHECK_MSG(src_p.bits == dst_p.bits, "copy length mismatch");
  // A copy is a 1-row sense feeding the WDs: price it as an INV plan
  // (identical datapath; the differential output tap is free) and execute
  // the straight copy functionally.
  submit(sched_.plan(BitOp::kInv, {src_p}, dst_p, false));
  scatter(dst_p, gather(src_p));
  sync_reliability();
}

void PimRuntime::pim_op_batch(const std::vector<BatchOp>& ops) {
  pim_begin();
  for (const auto& o : ops) pim_op(o.op, o.srcs, o.dst, false);
  pim_barrier();
}

void PimRuntime::reset_cost() {
  cost_ = {};
  stats_ = {};
  commands_.clear();
}

void PimRuntime::reset_campaign() {
  PIN_CHECK_MSG(!in_batch_, "reset_campaign inside an open batch");
  vectors_.clear();
  next_handle_ = 1;
  alloc_ = RowAllocator(mem_.geometry(), opts_.policy, alloc_.spare_rows());
  mem_.reset_campaign();  // rows, wear ledger, remaps, sense epoch
  if (fault_model_) fault_model_->reset();
  if (relmgr_) relmgr_->reset();
  last_rel_ = {};
  batch_plans_.clear();
  reset_cost();
}

}  // namespace pinatubo::core
