#include "sim/timing_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace vlacnn::sim {

VectorTimingModel::VectorTimingModel(const MachineConfig& cfg)
    : cfg_(cfg),
      lanes_(std::max(1u, cfg.effective_lanes())),
      lanes_shift_(std::has_single_bit(lanes_) ? std::countr_zero(lanes_) : -1),
      issue_width_(std::max(1u, cfg.issue_width)),
      mlp_(std::max(1u, cfg.mem_level_parallelism)),
      dispatch_(static_cast<std::uint64_t>(
          std::llround(cfg.vector_dispatch_cycles))),
      startup_(static_cast<std::uint64_t>(std::llround(
          cfg.startup_base_cycles +
          cfg.startup_per_lane * cfg.effective_lanes()))),
      hit_stall_(1 / issue_width_) {
  pipe_free_.assign(std::max(1u, cfg.vector_pipes), 0);
  inflight_.assign(std::max(1u, cfg.inflight_window), 0);
}

std::uint64_t VectorTimingModel::mem_exposed_cycles(const MemCost& cost) const {
  // Nothing to overlap and nothing to stream: the rounded max below is 0.
  if (cost.overlappable_cycles == 0 && cost.dram_lines == 0)
    return cost.serial_cycles + cost.translation_cycles;
  const double overlapped =
      static_cast<double>(cost.overlappable_cycles) / static_cast<double>(mlp_);
  // DRAM bandwidth floor: fills cannot stream faster than the pin bandwidth.
  const double bw_floor =
      static_cast<double>(cost.dram_lines) * cfg_.l2.line_bytes /
      cfg_.dram_bytes_per_cycle;
  return cost.serial_cycles + cost.translation_cycles +
         static_cast<std::uint64_t>(std::llround(std::max(overlapped, bw_floor)));
}

// Inlined into vop and vmem, its only callers: one call per instruction.
[[gnu::always_inline]] inline std::uint64_t VectorTimingModel::issue(
    int dst, std::initializer_list<int> srcs, std::uint64_t occupancy,
    std::uint64_t extra_latency, std::uint64_t elements, VopClass cls) {
  // Earliest cycle all sources are ready. Members that are read and later
  // written are copied to locals first: a store into the window could
  // alias them, which makes the compiler reload them.
  const std::uint64_t prev_issue = issue_cycle_;
  std::uint64_t ready = prev_issue;
  for (int s : srcs) {
    if (s < 0) continue;
    VLACNN_ASSERT(static_cast<unsigned>(s) < reg_ready_.size(), "bad src reg");
    ready = std::max(ready, reg_ready_[static_cast<unsigned>(s)]);
  }
  // Bounded in-flight window: cannot run further ahead than the completion
  // of the instruction issued `window` slots ago.
  const std::size_t pos = inflight_pos_;
  ready = std::max(ready, inflight_[pos]);

  // Memory instructions execute on the load/store port (vector units have
  // dedicated load pipes); arithmetic executes on the FMA pipes. Both pay
  // the decoupled-VPU dispatch overhead on their resource.
  const bool is_mem = cls == VopClass::Load || cls == VopClass::Store ||
                      cls == VopClass::Gather;
  std::uint64_t start;
  if (is_mem) {
    start = std::max(ready, mem_port_free_);
    // Pipelined cache port: busy for the transfer occupancy only; access
    // latency (serial/miss/translation) is charged to the instruction's
    // completion and overlaps with later independent memory instructions
    // (bounded by the in-flight window and the register scoreboard).
    mem_port_free_ = start + occupancy + dispatch_;
  } else {
    auto pipe = std::min_element(pipe_free_.begin(), pipe_free_.end());
    start = std::max(ready, *pipe);
    *pipe = start + occupancy + dispatch_;
  }

  const std::uint64_t done = start + startup_ + occupancy + extra_latency;

  if (dst >= 0) {
    VLACNN_ASSERT(static_cast<unsigned>(dst) < reg_ready_.size(), "bad dst reg");
    reg_ready_[static_cast<unsigned>(dst)] = done;
  }
  inflight_[pos] = done;
  inflight_pos_ = pos + 1 == inflight_.size() ? 0 : pos + 1;

  // Single issue advances a whole cycle per instruction (the fraction
  // below would step 0 -> 1 -> 0 exactly); wider issue accumulates it.
  std::uint64_t issue_adv = 1;
  if (issue_width_ > 1) {
    issue_frac_ += 1.0 / issue_width_;
    issue_adv = static_cast<std::uint64_t>(issue_frac_);
    issue_frac_ -= static_cast<double>(issue_adv);
  }
  // OoO: dispatch proceeds at decode rate; dependent instructions wait in
  // the window (bounded by `inflight_window`) without blocking issue. In
  // order, a stalled instruction blocks everything behind it.
  std::uint64_t issue_cycle = prev_issue + issue_adv;
  if (cfg_.core == CoreKind::InOrder)
    issue_cycle = std::max(issue_cycle, start);
  issue_cycle_ = issue_cycle;
  horizon_ = std::max(horizon_, done);

  ++stats_.vector_instructions;
  if (elements > 0) {
    stats_.elements += elements;
    ++stats_.vl_sample_count;
  }
  if (cls == VopClass::Fma)
    stats_.flops += 2 * elements;
  else if (cls == VopClass::Arith)
    stats_.flops += elements;
  stats_.issue_stall_cycles +=
      issue_cycle - std::min(issue_cycle, prev_issue + 1);
  return done;
}

void VectorTimingModel::vop(VopClass cls, int dst,
                            std::initializer_list<int> srcs,
                            std::uint64_t elements) {
  std::uint64_t occupancy = lane_cycles(elements);
  if (cls == VopClass::Permute)
    occupancy *= 2;  // cross-lane traffic halves throughput
  if (cls == VopClass::SetVl || cls == VopClass::Broadcast)
    occupancy = 1;
  issue(dst, srcs, std::max<std::uint64_t>(1, occupancy), 0, elements, cls);
}

void VectorTimingModel::vmem(VopClass cls, int dst,
                             std::initializer_list<int> srcs,
                             std::uint64_t elements, const MemCost& cost) {
  std::uint64_t occupancy = lane_cycles(elements);
  if (cls == VopClass::Gather)
    occupancy = std::max<std::uint64_t>(occupancy, elements);  // 1 elem/cycle
  const std::uint64_t stall = mem_exposed_cycles(cost);
  stats_.mem_stall_cycles += stall;
  issue(dst, srcs, std::max<std::uint64_t>(1, occupancy), stall, elements, cls);
}

void VectorTimingModel::scalar(std::uint64_t count) {
  // Scalar pipe runs in program order ahead of the vector unit; its cost is
  // serialized into the issue stream, scaled by the core's issue width
  // (superscalar cores co-issue scalar bookkeeping with vector work).
  const auto cost = static_cast<std::uint64_t>(std::llround(
      static_cast<double>(count) * cfg_.scalar_op_cycles / issue_width_));
  issue_cycle_ += cost;
  horizon_ = std::max(horizon_, issue_cycle_);
  stats_.scalar_ops += count;
}

void VectorTimingModel::scalar_mem(const MemCost& cost) {
  // Scalar loads that hit pipeline at one per issue slot (hit latency is
  // hidden by load-to-use scheduling); page walks and the miss portion
  // stall.
  MemCost miss_only = cost;
  miss_only.serial_cycles = 0;
  const std::uint64_t stall =
      cost.lines / issue_width_ + mem_exposed_cycles(miss_only);
  stats_.mem_stall_cycles += stall;
  issue_cycle_ += stall;
  horizon_ = std::max(horizon_, issue_cycle_);
  ++stats_.scalar_ops;
}

std::uint64_t VectorTimingModel::finish() {
  issue_cycle_ = std::max(issue_cycle_, horizon_);
  stats_.cycles = issue_cycle_;
  return issue_cycle_;
}

void VectorTimingModel::reset() {
  issue_cycle_ = 0;
  reg_ready_.fill(0);
  std::fill(pipe_free_.begin(), pipe_free_.end(), 0);
  mem_port_free_ = 0;
  std::fill(inflight_.begin(), inflight_.end(), 0);
  inflight_pos_ = 0;
  horizon_ = 0;
  stats_.reset();
}

}  // namespace vlacnn::sim
