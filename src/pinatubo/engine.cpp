#include "pinatubo/engine.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "mem/cmd_timer.hpp"

namespace pinatubo::core {

namespace {

/// Hazard key: a row address with the bank field collapsed (PIM commands
/// broadcast across the lock-step bank cluster, so the whole (channel,
/// rank, subarray, row) slice is one unit of data).
std::uint64_t row_key(const mem::RowAddr& a) {
  return (static_cast<std::uint64_t>(a.channel) << 48) |
         (static_cast<std::uint64_t>(a.rank) << 40) |
         (static_cast<std::uint64_t>(a.subarray) << 24) |
         static_cast<std::uint64_t>(a.row);
}

struct Node {
  std::uint32_t plan = 0;
  std::uint32_t step = 0;
  const PlanStep* s = nullptr;
  double time_ns = 0.0;              ///< the step's priced time
  std::vector<std::uint32_t> succ;   ///< steps that must wait for this one
  std::uint32_t pending = 0;         ///< unscheduled predecessors
  double ready_ns = 0.0;             ///< max completion of predecessors
};

/// A scheduled step plus the key it was issued under (for the cross-channel
/// merge back into global issue order).
struct IssuedStep {
  double pick_ns = 0.0;      ///< greedy key at issue time
  std::uint32_t node = 0;    ///< program index (flatten order)
  ExecutionEngine::ScheduledStep step;
};

}  // namespace

ExecutionEngine::ExecutionEngine(const PinatuboCostModel& model,
                                 EngineOptions opts)
    : model_(&model), opts_(opts) {}

ExecutionEngine::Result ExecutionEngine::run(
    const std::vector<OpPlan>& plans) const {
  Result res;

  // ---- flatten + price -------------------------------------------------
  std::vector<Node> nodes;
  for (std::uint32_t p = 0; p < plans.size(); ++p)
    for (std::uint32_t i = 0; i < plans[p].steps.size(); ++i) {
      Node n;
      n.plan = p;
      n.step = i;
      n.s = &plans[p].steps[i];
      const mem::Cost cost = model_->step_cost(*n.s);
      n.time_ns = cost.time_ns;
      const std::size_t k = step_index(n.s->kind);
      res.profile.time_ns[k] += cost.time_ns;
      res.profile.energy_pj[k] += cost.energy.total_pj();
      res.profile.steps[k] += 1;
      res.profile.bus_bytes += model_->step_bus_bytes(*n.s);
      res.serial_time_ns += cost.time_ns;
      res.cost.energy.merge(cost.energy);  // energy is schedule-invariant
      nodes.push_back(std::move(n));
    }

  const auto burst_ns = [&](const Node& n) {
    const std::uint64_t bytes = model_->step_bus_bytes(*n.s);
    if (bytes == 0) return 0.0;
    return std::min(static_cast<double>(bytes) / model_->bus().data_gbps,
                    n.time_ns);
  };

  if (opts_.serial) {
    // Program-order serial sum: the synchronous-driver baseline.
    double now = 0.0;
    res.schedule.reserve(nodes.size());
    for (const Node& n : nodes) {
      const double done = now + n.time_ns;
      res.schedule.push_back({n.plan, n.step, now, done, burst_ns(n)});
      now = done;
    }
    res.cost.time_ns = now;
    return res;
  }

  // ---- per-channel scheduling ------------------------------------------
  // Hazard keys carry the channel, and every row a step touches lives on
  // the step's own channel (asserted below), so the dependency graph never
  // crosses channels and each channel's timeline only consults its own
  // timer.  Channels are therefore priced independently — in parallel on
  // the thread pool — and the merged result is byte-identical to the old
  // single-pass global scheduler: a channel's greedy schedule is exactly
  // the channel-subsequence of the global greedy schedule, and issue order
  // is recovered by sorting on (start time, program index).
  const mem::Geometry& geo = model_->geometry();
  std::vector<std::vector<std::uint32_t>> by_channel(geo.channels);
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    const PlanStep& s = *nodes[i].s;
    PIN_CHECK_MSG(s.channel < geo.channels, "channel " << s.channel);
    for (const mem::RowAddr& r : s.reads)
      PIN_CHECK_MSG(r.channel == s.channel,
                    "step on channel " << s.channel << " reads "
                                       << r.to_string());
    if (s.writeback)
      PIN_CHECK_MSG(s.write.channel == s.channel,
                    "step on channel " << s.channel << " writes "
                                       << s.write.to_string());
    by_channel[s.channel].push_back(i);
  }

  // One ChannelTimer per channel with the ranks as its parallel "banks"
  // (each rank is one lock-step bank cluster — the execution resource).
  std::vector<mem::ChannelTimer> timers;
  timers.reserve(geo.channels);
  for (unsigned c = 0; c < geo.channels; ++c)
    timers.emplace_back(geo.ranks_per_channel, model_->bus());

  const auto schedule_channel = [&](unsigned c) {
    const std::vector<std::uint32_t>& mine = by_channel[c];

    // Dependency graph: program order scan; hazards resolve against the
    // latest writer and the readers since that write.
    std::unordered_map<std::uint64_t, std::uint32_t> last_writer;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> readers;
    std::vector<std::uint32_t> deps;
    for (const std::uint32_t i : mine) {
      const PlanStep& s = *nodes[i].s;
      deps.clear();
      for (const mem::RowAddr& r : s.reads) {  // RAW
        const auto it = last_writer.find(row_key(r));
        if (it != last_writer.end()) deps.push_back(it->second);
      }
      if (s.writeback) {
        const std::uint64_t w = row_key(s.write);
        const auto it = last_writer.find(w);
        if (it != last_writer.end()) deps.push_back(it->second);  // WAW
        const auto rd = readers.find(w);
        if (rd != readers.end())
          for (std::uint32_t r : rd->second) deps.push_back(r);  // WAR
      }
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
      for (std::uint32_t d : deps) {
        if (d == i) continue;
        nodes[d].succ.push_back(i);
        ++nodes[i].pending;
      }
      for (const mem::RowAddr& r : s.reads) readers[row_key(r)].push_back(i);
      if (s.writeback) {
        const std::uint64_t w = row_key(s.write);
        last_writer[w] = i;
        readers[w].clear();
      }
    }

    // Greedy list scheduling.  Among the dependency-ready steps, always
    // issue the one whose actual start time — max(data-ready, rank
    // cluster free, command bus free) — is earliest (program index
    // breaking ties).  Issuing in start-time order, not ready-time order,
    // matters: the timer's bus cursors are monotonic, so a step that must
    // wait long for its rank would otherwise drag the command bus into
    // the future for every later-issued step.
    std::vector<std::uint32_t> ready_list;
    for (const std::uint32_t i : mine)
      if (nodes[i].pending == 0) ready_list.push_back(i);

    std::vector<IssuedStep> sched;
    sched.reserve(mine.size());
    std::size_t issued = 0;
    while (!ready_list.empty()) {
      std::size_t pick = 0;
      double pick_start = 0.0;
      for (std::size_t j = 0; j < ready_list.size(); ++j) {
        const Node& n = nodes[ready_list[j]];
        const double start =
            std::max(n.ready_ns, timers[c].bank_free_ns(n.s->rank));
        if (j == 0 || start < pick_start ||
            (start == pick_start && ready_list[j] < ready_list[pick])) {
          pick = j;
          pick_start = start;
        }
      }
      const std::uint32_t i = ready_list[pick];
      ready_list[pick] = ready_list.back();
      ready_list.pop_back();

      Node& n = nodes[i];
      const PlanStep& s = *n.s;
      const std::uint64_t bytes = model_->step_bus_bytes(s);
      const double burst = burst_ns(n);
      double done;
      if (bytes > 0) {
        // The trailing data burst serializes on the channel's shared DDR
        // bus; the bank-cluster part of the step occupies the rank.
        const double occupy = std::max(0.0, n.time_ns - burst);
        done = timers[c].issue_data_after(s.rank, n.ready_ns, occupy, bytes);
      } else {
        done = timers[c].issue_after(s.rank, n.ready_ns, n.time_ns);
      }
      sched.push_back({pick_start, i,
                       {n.plan, n.step, done - n.time_ns, done, burst}});
      ++issued;
      for (std::uint32_t sidx : n.succ) {
        Node& t = nodes[sidx];
        t.ready_ns = std::max(t.ready_ns, done);
        if (--t.pending == 0) ready_list.push_back(sidx);
      }
    }
    PIN_CHECK_MSG(issued == mine.size(), "dependency cycle in batch");
    return sched;
  };

  std::vector<std::vector<IssuedStep>> channel_sched(geo.channels);
  parallel_for(
      0, geo.channels,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c)
          channel_sched[c] = schedule_channel(static_cast<unsigned>(c));
      },
      /*grain=*/1);

  // Merge into global issue order.  The old global scheduler issued steps
  // in non-decreasing greedy-key order (the pick start: max of data-ready
  // and rank-free), breaking ties by program index, and each channel's
  // sequence is already sorted that way — so a stable merge on (pick key,
  // program index) reproduces the old issue order exactly.
  std::vector<IssuedStep> merged;
  merged.reserve(nodes.size());
  for (auto& cs : channel_sched)
    merged.insert(merged.end(), cs.begin(), cs.end());
  std::sort(merged.begin(), merged.end(),
            [](const IssuedStep& a, const IssuedStep& b) {
              if (a.pick_ns != b.pick_ns) return a.pick_ns < b.pick_ns;
              return a.node < b.node;
            });
  res.schedule.reserve(merged.size());
  for (const auto& m : merged) res.schedule.push_back(m.step);

  double makespan = 0.0;
  for (const auto& t : timers) makespan = std::max(makespan, t.finish_ns());
  res.cost.time_ns = makespan;
  return res;
}

}  // namespace pinatubo::core
