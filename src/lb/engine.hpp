// The parallel depth-first-search engine for (emulated) SIMD machines.
//
// This is the paper's Section 2 algorithm: the machine alternates between
// *search phases* — lock-step node-expansion cycles in which every processor
// with work pops and expands exactly one node — and *load-balancing phases*,
// in which busy processors split their stacks and send half to idle ones.
// A triggering condition, evaluated after every expansion cycle, decides when
// to switch; a matching scheme decides who sends to whom.
//
// All the scheme combinations of the paper's Table 1 (and the Section 8
// baselines) are expressed through SchemeConfig; the engine itself is
// domain-independent over any TreeProblem.
//
// Hot-path structure: the busy/idle flag planes are *packed bit planes*
// (simd::BitPlane, one std::uint64_t word per 64 lanes), and the census (how
// many stacks are non-empty / splittable / empty) is maintained incrementally
// — the expansion cycle walks only the active lanes (one word load covers 64
// lanes; a fully idle or dead block costs a single test) and accumulates
// census *deltas*.  A transfer round claims its pairs' lanes on the flag
// planes, moves every pair's donation stack to stack, and reclassifies
// exactly those donors and receivers from one state byte per pair.
// Matching enumerations are word-level popcount/countr_zero walks over the
// same planes.  Children of a popped node are staged in a flat per-lane
// buffer and appended to the stack in one batch (one capacity check), with
// the staging buffer cleared once per 64-lane word, not once per node.
// When the Machine carries a thread pool, a cycle is spread over host lanes
// at word granularity — no two host lanes ever write the same flag word —
// with per-lane accumulators (counts, goals, pruned bounds) that are reduced
// in lane order after the barrier, so no mutex is taken inside the loop and
// the reduction order is fixed.  A transfer round's stack pass is spread
// over the same pool by pair range; its per-pair outputs are written back
// serially in pair order.
//
// Determinism: the run is a pure function of (problem, P, config, cost
// model, fault plan).  Host threads, if provided via the Machine's pool, only
// spread one lock-step cycle over cores; every PE's state is private and the
// per-lane partials are combined in lane order, so the result — including the
// order of recorded goal nodes — is identical for any thread count.
//
// Fault injection (docs/robustness.md): arm_faults() attaches a
// fault::FaultPlan whose events fire on the simulated expand-cycle clock.
// In degraded mode the census, rendezvous matching, and trigger accounting
// range over the *surviving* lane set; a killed PE's unexpanded stack
// intervals are journaled and re-donated to survivors in recovery phases
// costed like lb phases; dropped lb messages leave the work on the donor.
// The engine enforces a conservation invariant — every journaled node is
// re-donated exactly once and dead lanes never expand — so a fault run
// explores exactly the fault-free tree.  The dead-lane plane is packed too:
// the expansion loop masks it out one word at a time, so with no plan armed
// (the plane all-zero) the fault machinery costs one AND per 64 lanes and
// the run is bit-identical to the pre-fault engine.
// Mega-P (P up to 2^20 and beyond): three coordinated mechanisms keep such
// machines practical.  Per-lane state lives in a common::ShardedArray
// (64-word-aligned chunks allocated up front, stable addresses); each
// flag plane carries a simd::SummaryPlane (one bit per 64-lane word,
// maintained at the same write-back that stores the word) so the expansion
// walk and every load-balancing enumeration skip empty regions and scale
// with *occupied* words, not P; and each lane's search::WorkStack allocates
// only once it holds work, with trim_memory() handing drained lanes' buffers
// back between runs.  Host partitions are aligned to 64 plane words so every
// summary word keeps a single writer per cycle; alignment only moves chunk boundaries, which by
// the determinism guarantee above cannot move a single simulated result.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/sharded_array.hpp"
#include "fault/fault.hpp"
#include "lb/config.hpp"
#include "sanitizer/sanitizer.hpp"
#include "lb/matching.hpp"
#include "lb/metrics.hpp"
#include "lb/trigger.hpp"
#include "search/problem.hpp"
#include "search/splitter.hpp"
#include "search/work_stack.hpp"
#include "simd/bitplane.hpp"
#include "simd/machine.hpp"
#include "simd/summary.hpp"

namespace simdts::lb {

/// One search::WorkStack of full nodes per PE, as in the paper's Section 2
/// machine.
template <search::TreeProblem P>
class Engine {
 public:
  using Node = typename P::Node;
  using Stack = search::WorkStack<Node>;

  /// Throws simdts::ConfigError on an invalid scheme configuration (see
  /// SchemeConfig::validate).
  Engine(const P& problem, simd::Machine& machine, SchemeConfig cfg)
      : problem_(problem),
        machine_(machine),
        cfg_(cfg),
        matcher_(cfg.match),
        stacks_(machine.size()),
        busy_flags_(machine.size()),
        idle_flags_(machine.size()),
        dead_(machine.size()),
        alive_(machine.size()),
        lane_scratch_(machine.pool() != nullptr ? machine.pool()->size() : 1) {
    cfg_.validate();
    busy_summary_.assign_for_lanes(machine.size());
    idle_summary_.assign_for_lanes(machine.size());
    work_summary_.assign_for_lanes(machine.size());
    // Size the lane scratch once, outside the lockstep region: a cycle
    // records at most one goal per PE, so with this capacity a steady-state
    // cycle touches no allocator at all (the effect analysis pins the
    // remaining growth sites, see the markers in expand_cycle).  The
    // goal reserve is capped: at mega-P a per-host-lane reserve of P nodes
    // would itself dominate memory, and a cycle landing more than the cap in
    // goals at once is a terminal burst whose growth the markers cover.
    for (LaneScratch& ls : lane_scratch_) {
      ls.goal_nodes.reserve(std::min<std::size_t>(machine.size(), 4096));
    }
#ifdef SIMDTS_SANITIZE
    san_dead_.resize(machine.size());
#endif
  }

  /// Arms a fault plan: the plan's events fire on this engine's cumulative
  /// expand-cycle clock (across IDA* iterations of one run).  The plan is
  /// validated against the machine size; passing nullptr disarms.  Arming
  /// resets the fault state — dead lanes, the event cursor, the drop budget,
  /// and the recovery journal — so arm before each run() to replay a plan.
  void arm_faults(const fault::FaultPlan* plan) {
    if (plan != nullptr) plan->validate(machine_.size());
    fault_plan_ = plan;
    next_fault_ = 0;
    fault_clock_ = 0;
    drop_budget_ = 0;
    dead_.fill(false);
    alive_ = machine_.size();
    orphaned_total_ = 0;
    recovered_total_ = 0;
    recovery_journal_.clear();
#ifdef SIMDTS_SANITIZE
    san_dead_.clear();
#endif
  }

  /// Watchdog: a nonzero budget bounds the expand cycles of each bounded DFS
  /// (each run_iteration / IDA* iteration); exceeding it throws
  /// simdts::TimeoutError with the scheme, machine size, and cycle count.
  /// runtime::run_tasks converts that into a typed per-task timeout result.
  void set_cycle_budget(std::uint64_t max_cycles) {
    cycle_budget_ = max_cycles;
  }

  /// One bounded parallel DFS from the problem root: the root node is given
  /// to processor 0, the space is searched to exhaustion (all solutions at
  /// the bound are found — the paper's anomaly-free setup), and the
  /// iteration's metrics are returned.
  IterationStats run_iteration(search::Bound bound) {
    return run_core(bound, Mode::kExhaustive).stats;
  }

  /// First-solution mode: the machine quits at the end of the first
  /// node-expansion cycle in which any processor found a goal ("when a goal
  /// node is found, all of them quit", Section 2).  Node counts can then
  /// differ from the serial first-solution search in either direction —
  /// the speedup anomalies of Rao & Kumar that the paper's main experiments
  /// deliberately avoid.
  IterationStats run_first_solution(search::Bound bound) {
    return run_core(bound, Mode::kFirstSolution).stats;
  }

  struct BnbResult {
    IterationStats stats;
    /// Best goal f-value found (kUnbounded if none).
    search::Bound best = search::kUnbounded;
  };

  /// Depth-first branch and bound: searches exhaustively while *tightening*
  /// the cost bound whenever a better goal turns up.  Note that
  /// stats.goals_found counts every goal popped (including ones worse than
  /// the incumbent at their pop time), unlike serial_branch_and_bound's
  /// improvement count — the two are not comparable.  The incumbent is
  /// refreshed between expansion cycles — on the real machine a global
  /// min-reduction, which the CM-2 provides as a hardware scan.  Goals must
  /// report their full solution cost through f_value().
  BnbResult run_branch_and_bound(search::Bound initial_bound
                                 = search::kUnbounded) {
    return run_core(initial_bound, Mode::kBranchAndBound);
  }

 private:
  enum class Mode { kExhaustive, kFirstSolution, kBranchAndBound };

  [[nodiscard]] bool fault_armed() const noexcept {
    return fault_plan_ != nullptr;
  }

  BnbResult run_core(search::Bound bound, Mode mode) {
    const simd::MachineClock before = machine_.clock();
    BnbResult result;
    IterationStats& stats = result.stats;
    stats.bound = bound;

    stacks_.for_each([](Stack& s) { s.clear(); });
    // Initial census and flag planes: the first surviving PE holds the root
    // (one node, so not yet splittable), every other survivor is idle, dead
    // lanes are neither.  From here on the census is maintained
    // incrementally — by the expansion cycles, by each work transfer, and by
    // the fault events — and never recomputed by a full rescan.
    busy_flags_.fill(false);
    idle_flags_.fill(true);
    std::uint32_t root_pe = 0;
    if (fault_armed()) {
      if (alive_ == 0) {
        throw FaultError("no surviving PE to start an iteration on",
                         cfg_.name(), machine_.size(), fault_clock_);
      }
      simd::for_each_set(dead_,
                         [this](std::size_t i) { idle_flags_.reset(i); });
      while (dead_.test(root_pe)) ++root_pe;
    }
    stacks_[root_pe].push(problem_.root());
    idle_flags_.reset(root_pe);
    counts_ = Counts{};
    counts_.nonempty = 1;
    counts_.empty = alive_ - 1;
    rebuild_summaries();

    next_bound_ = search::NextBound{};
    goal_nodes_.clear();
    std::size_t goals_seen = 0;  // goal_nodes_ scanned so far (for B&B)

    Trigger trigger(cfg_, alive_, machine_.cost().t_expand,
                    initial_lb_cost());
    trigger.begin_search_phase();
    // The initial work-distribution phase (Section 7): dynamic triggers are
    // preceded by static triggering at init_threshold until that fraction of
    // processors is active.
    bool init_phase =
        cfg_.trigger == TriggerKind::kDP || cfg_.trigger == TriggerKind::kDK;

    while (counts_.nonempty > 0) {
      if (cycle_budget_ != 0 && stats.expand_cycles >= cycle_budget_) {
        throw TimeoutError(cfg_.name(), machine_.size(), stats.expand_cycles,
                           cycle_budget_);
      }
      const std::uint32_t working = counts_.nonempty;
      expand_cycle(bound, stats);
      machine_.charge_expand_cycle(working, alive_);
      trigger.note_cycle(working);
      ++stats.expand_cycles;
      if (cfg_.track_stack_memory) note_stack_memory();
      if (cfg_.record_trace) {
        stats.trace.push_back(
            TracePoint{counts_.nonempty, counts_.splittable, alive_});
      }
      ++fault_clock_;
      if (fault_armed()) apply_due_faults(stats, trigger);

      if (mode == Mode::kFirstSolution && stats.goals_found > 0) {
        break;  // "when a goal node is found, all of them quit"
      }
      if (mode == Mode::kBranchAndBound) {
        // Global min-reduction over this cycle's new goals; tightening the
        // shared bound prunes everything not strictly better.
        for (; goals_seen < goal_nodes_.size(); ++goals_seen) {
          const search::Bound f = problem_.f_value(goal_nodes_[goals_seen]);
          if (f < result.best) result.best = f;
        }
        if (result.best != search::kUnbounded && result.best - 1 < bound) {
          bound = result.best - 1;
        }
      }

      const std::uint32_t active = cfg_.busy == BusyPolicy::kSplittable
                                       ? counts_.splittable
                                       : counts_.nonempty;
      bool fire;
      if (init_phase) {
        const bool below = static_cast<double>(active) <=
                           cfg_.init_threshold *
                               static_cast<double>(alive_);
        if (!below) init_phase = false;
        fire = below;
      } else {
        fire = trigger.should_trigger(active, counts_.empty);
      }
      if (fire && counts_.empty > 0 && counts_.splittable > 0) {
        lb_phase(stats, trigger);
      }
    }

    if (fault_armed()) check_conservation();
    stats.nodes_expanded = (machine_.clock() - before).nodes_expanded;
    stats.clock = machine_.clock() - before;
    if (next_bound_.has_value()) stats.next_bound = next_bound_.value();
    return result;
  }

 public:
  /// Full parallel IDA*: repeats run_iteration with increasing thresholds
  /// until an iteration finds a goal (that iteration still runs to
  /// exhaustion).  `max_expanded`, if non-zero, aborts once the total number
  /// of expansions exceeds it.
  RunStats run(std::uint64_t max_expanded = 0) {
    RunStats rs;
    goal_nodes_.clear();
    search::Bound bound = problem_.f_value(problem_.root());
    for (;;) {
      IterationStats iter = run_iteration(bound);
      rs.total += iter;
      rs.final_iteration = iter;
      rs.iterations.push_back(std::move(iter));
      const IterationStats& done = rs.iterations.back();
      if (done.goals_found > 0) {
        rs.solution_bound = bound;
        rs.goals_found = done.goals_found;
        return rs;
      }
      if (done.next_bound == search::kUnbounded) return rs;  // exhausted
      if (max_expanded != 0 && rs.total.nodes_expanded > max_expanded) {
        return rs;  // budget exceeded
      }
      bound = done.next_bound;
    }
  }

  /// Goal nodes found during the last run (all solutions at the final
  /// threshold, in PE-index order of the finding processor per cycle).
  [[nodiscard]] const std::vector<Node>& goal_nodes() const {
    return goal_nodes_;
  }

  /// The matcher (exposing the GP global pointer for tests).
  [[nodiscard]] const Matcher& matcher() const { return matcher_; }

  /// Direct access to the PE stacks, for white-box tests.
  [[nodiscard]] const common::ShardedArray<Stack>& stacks() const {
    return stacks_;
  }

  /// Returns surplus stack capacity to the allocator across every lane (the
  /// pooled-release path; a serial, between-runs operation).
  void trim_memory() {
    stacks_.for_each([](Stack& s) { s.shrink_to_fit(); });
  }

  /// Total heap bytes held by the per-lane stacks — the bytes-per-lane
  /// metric of the mega-P benchmarks.
  [[nodiscard]] std::size_t stack_memory_bytes() const {
    std::size_t total = 0;
    stacks_.for_each([&total](const Stack& s) { total += s.memory_bytes(); });
    return total;
  }

  /// Peak of stack_memory_bytes() across all cycles sampled so far.
  /// Requires SchemeConfig::track_stack_memory; zero otherwise.
  [[nodiscard]] std::uint64_t stack_memory_peak() const noexcept {
    return stack_bytes_peak_;
  }

  /// Time-averaged resident stack bytes per lane: the per-cycle sum of
  /// stack_memory_bytes() integrated over every sampled cycle, divided by
  /// (cycles * P).  This is the number that sizes a mega-P deployment —
  /// P * avg-bytes-per-lane is the expected resident footprint.
  /// Requires SchemeConfig::track_stack_memory; zero otherwise.
  [[nodiscard]] double stack_memory_avg_per_lane() const noexcept {
    if (stack_bytes_cycles_ == 0) return 0.0;
    return static_cast<double>(stack_bytes_integral_) /
           (static_cast<double>(stack_bytes_cycles_) *
            static_cast<double>(machine_.size()));
  }

  /// Surviving lane count (== machine size with no faults applied).
  [[nodiscard]] std::uint32_t alive() const noexcept { return alive_; }

  /// The lost-work journal of the armed fault plan's kills: one record per
  /// kill event, with the detected orphan count and the recovery rounds it
  /// cost.  Cleared by arm_faults().
  [[nodiscard]] const std::vector<fault::RecoveryRecord>& recovery_journal()
      const noexcept {
    return recovery_journal_;
  }

 private:
  struct Counts {
    std::uint32_t nonempty = 0;
    std::uint32_t splittable = 0;
    std::uint32_t empty = 0;
  };

  /// Lane-private partial results of one expansion cycle; merged in lane
  /// order at the barrier.  Census changes are tracked as *deltas* against
  /// the incrementally-maintained counts_ (an untouched lane contributes
  /// nothing, so idle blocks cost no accounting).  The node buffers keep
  /// their capacity across cycles, so steady-state cycles allocate nothing.
  struct LaneScratch {
    std::int64_t d_nonempty = 0;    ///< minus the lanes that ran dry
    std::int64_t d_splittable = 0;  ///< splittable transitions, either way
    std::uint64_t goal_hits = 0;
    std::vector<Node> goal_nodes;
    std::vector<Node> children;  ///< flat staging buffer, cleared per word
    search::NextBound next_bound;
  };

  [[nodiscard]] double initial_lb_cost() const {
    return cfg_.match == MatchScheme::kNeighbor
               ? machine_.cost().neighbor_cost()
               : machine_.lb_round_cost();
  }

  /// One lock-step node-expansion cycle.  Every non-empty PE pops one node;
  /// goal nodes are recorded (and not expanded), everything else is expanded
  /// with the bound.  The loop walks the packed flag planes one 64-lane word
  /// at a time: active lanes are the set bits of ~idle & ~dead (idle tracks
  /// "empty and alive", so the complement under the valid-lane mask is
  /// exactly the lanes holding work), extracted with std::countr_zero — a
  /// fully idle or dead block costs one load and one test, and the dead-lane
  /// check is a word-level AND (zero-cost when no plan is armed: the plane
  /// is all-zero).  Children are staged in the lane's flat buffer and
  /// appended to the owning stack in one batch; the buffer is cleared once
  /// per word, never per node.  Host lanes partition the *word* range, so no
  /// two lanes write the same flag word; census deltas, goals and pruned
  /// bounds land in lane scratch and are reduced in lane order at the
  /// barrier.
  // SIMDLINT-REGION(lockstep)
  void expand_cycle(search::Bound bound, IterationStats& stats) {
    for (auto& ls : lane_scratch_) {
      ls.d_nonempty = 0;
      ls.d_splittable = 0;
      ls.goal_hits = 0;
      ls.goal_nodes.clear();
      ls.next_bound = search::NextBound{};
    }
    constexpr std::size_t kWordBits = simd::BitPlane::kWordBits;
    std::uint64_t* const idle_words = idle_flags_.words().data();
    std::uint64_t* const busy_words = busy_flags_.words().data();
    const std::uint64_t* const dead_words = dead_.words().data();
    const std::size_t nwords = idle_flags_.word_count();
    const std::uint64_t last_mask = idle_flags_.word_mask(nwords - 1);
    simd::ThreadPool* pool = machine_.pool();
    // SIMDLINT-SOURCE(partition) — lane index and word-range bounds vary
    auto body = [&, bound](unsigned lane, std::size_t wbegin,
                           std::size_t wend) {
      LaneScratch& ls = lane_scratch_[lane];
#ifdef SIMDTS_SANITIZE
      // Register this worker's word-ownership claim for the dispatch; every
      // flag-word write below is checked against it.  The shrink mutation
      // under-claims by one word so the mutation test can prove an
      // out-of-claim write is caught.
      const std::size_t claim_end =
          san::mutation().shrink_word_claim && wend > wbegin ? wend - 1 : wend;
      san::WordClaim claim(san_claims_, lane, wbegin, claim_end);
      // The dead-lane-expansion mutation needs the flat walk: it fakes every
      // lane alive, which the work summary would mask back out by skipping
      // all-dead words entirely.
      const bool san_flat = san::mutation().expand_dead_lane;
#else
      constexpr bool san_flat = false;
#endif
      // Walk only work-summary-occupied words: a clear summary bit
      // guarantees `active == 0` below, so skipping it is exactly the flat
      // walk's `continue`.  The bounded scan stays inside this host lane's
      // 64-word-aligned chunk, whose summary words no other lane writes.
      for (std::size_t w =
               san_flat ? wbegin
                        : work_summary_.next_occupied_below(wbegin, wend);
           w < wend;
           w = san_flat ? w + 1
                        : work_summary_.next_occupied_below(w + 1, wend)) {
        const std::uint64_t valid =
            (w + 1 == nwords) ? last_mask : ~std::uint64_t{0};
        std::uint64_t idle_w = idle_words[w];
        std::uint64_t busy_w = busy_words[w];
        std::uint64_t not_dead = ~dead_words[w];
#ifdef SIMDTS_SANITIZE
        if (san::mutation().expand_dead_lane) not_dead = ~std::uint64_t{0};
#endif
        const std::uint64_t active = ~idle_w & not_dead & valid;
        if (active == 0) continue;
        ls.children.clear();
        const std::size_t base = w * kWordBits;
        std::uint64_t m = active;
        while (m != 0) {
          const auto b = static_cast<unsigned>(std::countr_zero(m));
          m &= m - 1;
#ifdef SIMDTS_SANITIZE
          san_dead_.check_alive(base + b, "expand");
#endif
          auto& st = stacks_[base + b];
          Node n = st.pop();
          if (problem_.is_goal(n)) {
            ++ls.goal_hits;
            // SIMDLINT-EFFECT-OK(allocates) capacity min(P, 4096) reserved
            ls.goal_nodes.push_back(std::move(n));  // at construction; only
            // a terminal goal burst past the cap grows it, amortized.
          } else {
            const std::size_t staged = ls.children.size();
            // SIMDLINT-EFFECT-OK(allocates) children is persistent-capacity
            problem_.expand(n, bound, ls.children, ls.next_bound);  // lane
            // scratch: growth is amortized across the whole run.
            const std::size_t added = ls.children.size() - staged;
            if (added != 0) st.append(ls.children.data() + staged, added);
          }
          const std::uint64_t bit = std::uint64_t{1} << b;
          const bool was_split = (busy_w & bit) != 0;
          if (st.empty()) {
            idle_w |= bit;
            busy_w &= ~bit;
            --ls.d_nonempty;
            if (was_split) --ls.d_splittable;
          } else if (st.splittable() != was_split) {
            ls.d_splittable += was_split ? -1 : 1;
            busy_w ^= bit;
          }
        }
#ifdef SIMDTS_SANITIZE
        san::check_word_write(san_claims_, w);
#endif
        idle_words[w] = idle_w;
        busy_words[w] = busy_w;
        busy_summary_.update_word(w, busy_w);
        idle_summary_.update_word(w, idle_w);
        work_summary_.update_word(w, ~idle_w & ~dead_words[w] & valid);
      }
    };
    if (pool != nullptr && pool->size() > 1) {
      // 64-word alignment gives every summary word a single writer; chunk
      // boundaries never affect simulated results (see the determinism note
      // in the header comment).
      pool->parallel_for_lanes_aligned(nwords, simd::BitPlane::kWordBits,
                                       body);
    } else {
      body(0, 0, nwords);
    }
#ifdef SIMDTS_SANITIZE
    if (san::mutation().corrupt_tail && last_mask != ~std::uint64_t{0}) {
      // Mutation: set the first invalid bit past size() in the idle plane so
      // the per-cycle tail sweep below can prove it fires.
      idle_words[nwords - 1] |= ~last_mask & (last_mask + 1);
    }
    if (san::mutation().drop_census_delta && !lane_scratch_.empty()) {
      // Mutation: lose lane 0's splittable delta, desynchronizing the
      // incremental census from the stacks.
      lane_scratch_[0].d_splittable = 0;
    }
#endif
    reduce_cycle_scratch(stats);
#ifdef SIMDTS_SANITIZE
    san_verify_cycle();
#endif
  }

  /// Ordered reduction of the per-lane scratch at the cycle barrier: lane 0
  /// first, then lane 1, ... — bit-identical for any lane count.  Kept as
  /// its own function because the reduction is where the determinism
  /// guarantee lives: it is the one blessed merge of the taint analysis.
  // SIMDLINT-MERGE(commutative) — fixed lane order, thread-count-invariant
  void reduce_cycle_scratch(IterationStats& stats) {
    std::int64_t d_nonempty = 0;
    std::int64_t d_splittable = 0;
    for (auto& ls : lane_scratch_) {
      d_nonempty += ls.d_nonempty;
      d_splittable += ls.d_splittable;
      stats.goals_found += ls.goal_hits;
      next_bound_.merge(ls.next_bound);
      // SIMDLINT-EFFECT-OK(allocates) goal recording is the run's output
      for (auto& g : ls.goal_nodes) goal_nodes_.push_back(std::move(g));
      // channel: it only ever grows on the cycle a solution lands.
    }
    counts_.nonempty = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_.nonempty) + d_nonempty);
    counts_.splittable = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_.splittable) + d_splittable);
    counts_.empty = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_.empty) - d_nonempty);
  }

#ifdef SIMDTS_SANITIZE
  /// SimdSan per-cycle sweep: the packed planes keep their zero tails, and
  /// the incrementally maintained census agrees with both a reference
  /// recount of the stacks and the flag-plane popcounts.  This is the
  /// packed-vs-reference divergence check — the incremental path is what the
  /// engine reports, the recount is what a from-scratch implementation would
  /// compute.
  void san_verify_cycle() const {
    if (!san::armed()) return;
    busy_flags_.san_verify_tail("busy plane");
    idle_flags_.san_verify_tail("idle plane");
    dead_.san_verify_tail("dead plane");
    std::uint64_t ref_nonempty = 0;
    std::uint64_t ref_splittable = 0;
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      if (dead_.test(i)) continue;
      if (!stacks_[i].empty()) {
        ++ref_nonempty;
        if (stacks_[i].splittable()) ++ref_splittable;
      }
    }
    const std::uint64_t ref_empty = alive_ - ref_nonempty;
    san::check_census(counts_.nonempty, ref_nonempty, "census.nonempty");
    san::check_census(counts_.splittable, ref_splittable,
                      "census.splittable");
    san::check_census(counts_.empty, ref_empty, "census.empty");
    san::check_census(busy_flags_.count(), ref_splittable,
                      "busy-plane popcount");
    san::check_census(idle_flags_.count(), ref_empty, "idle-plane popcount");
    // Census-divergence check, summary level: every incrementally maintained
    // summary bit must agree with a recomputation from its plane.
    busy_summary_.san_verify(busy_flags_, "busy summary");
    idle_summary_.san_verify(idle_flags_, "idle summary");
    const std::size_t nwords = idle_flags_.word_count();
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::uint64_t active = ~idle_flags_.words()[w] &
                                   ~dead_.words()[w] & idle_flags_.word_mask(w);
      san::check_census(work_summary_.test(w) ? 1 : 0, active != 0 ? 1 : 0,
                        "work summary");
    }
  }

  /// Mutation hook: redirect the first matched pair's donor to a dead lane
  /// so the donation-side dead-lane check can be proven to fire.
  void san_apply_pair_mutation() {
    if (!san::mutation().donate_from_dead || pairs_.empty()) return;
    for (std::size_t i = 0; i < dead_.size(); ++i) {
      if (dead_.test(i)) {
        pairs_[0].donor = static_cast<simd::PeIndex>(i);
        return;
      }
    }
  }
#endif

  /// Applies every fault event due at the current simulated cycle, in plan
  /// order.  Runs in the engine's serial section (between lock-step cycles),
  /// so fault handling is deterministic for any host thread count.
  // SIMDLINT-REGION(serial)
  void apply_due_faults(IterationStats& stats, Trigger& trigger) {
    const auto& events = fault_plan_->events();
    while (next_fault_ < events.size() &&
           events[next_fault_].cycle <= fault_clock_) {
      const fault::FaultEvent& e = events[next_fault_++];
      switch (e.kind) {
        case fault::FaultKind::kKillPe:
          kill_pe(e.pe, stats, trigger);
          break;
        case fault::FaultKind::kRevivePe:
          revive_pe(e.pe, stats, trigger);
          break;
        case fault::FaultKind::kDropMessages:
          drop_budget_ += e.count;
          break;
      }
    }
  }

  /// Kills PE `pe`: removes it from the census and both flag planes, then
  /// journals its unexpanded stack intervals and re-donates them to
  /// survivors (the recovery phase).  Receivers are the surviving idle PEs
  /// in wrap order after the dead PE (falling back to all survivors when
  /// none is idle); nodes are dealt round-robin bottom-first, so each
  /// receiver's stack stays in depth-first order.  Each round-robin wave
  /// costs one recovery transfer round on the machine clock.
  void kill_pe(std::uint32_t pe, IterationStats& stats, Trigger& trigger) {
    if (dead_.test(pe)) return;
    census_remove(pe);
    dead_.set(pe);
#ifdef SIMDTS_SANITIZE
    san_dead_.mark_dead(pe);
#endif
    busy_flags_.reset(pe);
    idle_flags_.reset(pe);
    resync_lane_summaries(pe);
    --alive_;
    ++stats.pes_killed;

    orphan_buf_.clear();
    stacks_[pe].drain_into(orphan_buf_);
    const std::uint64_t orphans = orphan_buf_.size();
    if (alive_ == 0) {
      if (orphans > 0 || counts_.nonempty > 0) {
        throw FaultError("fault plan killed every PE with work outstanding",
                         cfg_.name(), machine_.size(), fault_clock_);
      }
      recovery_journal_.push_back(
          fault::RecoveryRecord{fault_clock_, pe, 0, 0});
      return;
    }
    trigger.set_machine_size(alive_);
    if (orphans == 0) {
      recovery_journal_.push_back(
          fault::RecoveryRecord{fault_clock_, pe, 0, 0});
      return;
    }
    orphaned_total_ += orphans;

    // Enumerate receivers: surviving idle lanes in wrap order after the dead
    // PE — the same fairness rotation GP applies to donors — falling back to
    // every survivor when no lane is idle.
    const std::uint32_t p = machine_.size();
    recovery_receivers_.clear();
    for (std::uint32_t off = 1; off <= p; ++off) {
      const std::uint32_t i = (pe + off) % p;
      if (!dead_.test(i) && idle_flags_.test(i)) {
        recovery_receivers_.push_back(i);
      }
    }
    if (recovery_receivers_.empty()) {
      for (std::uint32_t off = 1; off <= p; ++off) {
        const std::uint32_t i = (pe + off) % p;
        if (!dead_.test(i)) recovery_receivers_.push_back(i);
      }
    }
    const std::size_t receivers = recovery_receivers_.size();
    for (std::size_t j = 0; j < orphan_buf_.size(); ++j) {
      const std::uint32_t rec = recovery_receivers_[j % receivers];
      census_remove(rec);
      stacks_[rec].push(std::move(orphan_buf_[j]));
      census_add(rec);
    }
    orphan_buf_.clear();
    recovered_total_ += orphans;

    const std::uint64_t rounds =
        (orphans + receivers - 1) / static_cast<std::uint64_t>(receivers);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      machine_.charge_recovery_round();
    }
    ++stats.recovery_phases;
    stats.nodes_recovered += orphans;
    stats.recovery_rounds += rounds;
    recovery_journal_.push_back(
        fault::RecoveryRecord{fault_clock_, pe, orphans, rounds});
  }

  /// Revives PE `pe` as an idle receiver with an empty stack.
  void revive_pe(std::uint32_t pe, IterationStats& stats, Trigger& trigger) {
    if (!dead_.test(pe)) return;
    dead_.reset(pe);
#ifdef SIMDTS_SANITIZE
    san_dead_.mark_alive(pe);
#endif
    ++alive_;
    busy_flags_.reset(pe);
    idle_flags_.set(pe);
    resync_lane_summaries(pe);
    ++counts_.empty;
    ++stats.pes_revived;
    trigger.set_machine_size(alive_);
  }

  /// The conservation invariant of degraded mode: every node journaled from
  /// a dead PE was re-donated exactly once (no subtree lost, none duplicated
  /// — together with dead lanes never expanding, a fault run explores
  /// exactly the fault-free tree).  Checked at the end of every iteration.
  void check_conservation() const {
    if (recovered_total_ != orphaned_total_) {
      throw FaultError("conservation violated: orphaned nodes were lost or "
                       "duplicated during recovery",
                       cfg_.name(), machine_.size(), fault_clock_);
    }
    for (std::size_t i = 0; i < dead_.size(); ++i) {
      if (dead_.test(i) && !stacks_[i].empty()) {
        throw FaultError("conservation violated: a dead PE still holds work",
                         cfg_.name(), machine_.size(), fault_clock_);
      }
    }
  }

  /// Removes stack i's current classification from the census.  Call before
  /// mutating the stack; pair with census_add() afterwards.
  void census_remove(std::size_t i) {
    const auto& s = stacks_[i];
    if (s.empty()) {
      --counts_.empty;
    } else {
      --counts_.nonempty;
      if (s.splittable()) --counts_.splittable;
    }
  }

  /// Re-adds stack i's (possibly changed) classification to the census and
  /// refreshes its flag-plane entries (and their summary bits).
  void census_add(std::size_t i) {
    const auto& s = stacks_[i];
    if (s.empty()) {
      ++counts_.empty;
      idle_flags_.set(i);
      busy_flags_.reset(i);
    } else {
      ++counts_.nonempty;
      idle_flags_.reset(i);
      const bool split = s.splittable();
      busy_flags_.set(i, split);
      if (split) ++counts_.splittable;
    }
    resync_lane_summaries(i);
  }

  /// Recomputes the three summary bits of the word holding lane `i` from the
  /// flag planes — the serial-context counterpart of the expand cycle's
  /// write-back maintenance.  Every serial plane mutation (census_add, fault
  /// kill/revive) ends here.
  void resync_lane_summaries(std::size_t i) {
    const std::size_t w = i / simd::BitPlane::kWordBits;
    const std::uint64_t idle_w = idle_flags_.words()[w];
    busy_summary_.update_word(w, busy_flags_.words()[w]);
    idle_summary_.update_word(w, idle_w);
    work_summary_.update_word(
        w, ~idle_w & ~dead_.words()[w] & idle_flags_.word_mask(w));
  }

  /// One stack-memory sample (serial, between cycles): accumulates the
  /// byte-cycle integral and the peak behind SchemeConfig::track_stack_memory.
  void note_stack_memory() {
    const std::size_t bytes = stack_memory_bytes();
    stack_bytes_integral_ += bytes;
    if (bytes > stack_bytes_peak_) stack_bytes_peak_ = bytes;
    ++stack_bytes_cycles_;
  }

  /// Full recomputation of all three summaries (iteration start).
  void rebuild_summaries() {
    busy_summary_.rebuild(busy_flags_);
    idle_summary_.rebuild(idle_flags_);
    const std::size_t nwords = idle_flags_.word_count();
    for (std::size_t w = 0; w < nwords; ++w) {
      work_summary_.update_word(w, ~idle_flags_.words()[w] &
                                       ~dead_.words()[w] &
                                       idle_flags_.word_mask(w));
    }
  }

  /// One load-balancing phase: one transfer round, or — with
  /// multiple_transfers — rounds until no idle processor can be served.
  /// A phase that cannot execute a single round (e.g. ring matching with no
  /// busy/idle adjacency) is a no-op: nothing is charged or counted and the
  /// trigger state is left untouched.  The flag planes are already current
  /// (the expansion cycle, earlier transfers, and fault events maintain
  /// them), so each round goes straight to matching.
  void lb_phase(IterationStats& stats, Trigger& trigger) {
    const double cost_before = machine_.clock().elapsed;
    std::uint64_t rounds = 0;
    for (;;) {
      std::uint64_t transfers = 0;
      if (cfg_.match == MatchScheme::kNeighbor) {
        neighbor_pairs_into(busy_flags_, busy_summary_, idle_flags_, pairs_);
        if (pairs_.empty()) break;
#ifdef SIMDTS_SANITIZE
        san_apply_pair_mutation();
#endif
        transfers = transfer_split(pairs_, stats);
        machine_.charge_neighbor_round();
      } else if (cfg_.transfer == TransferPolicy::kGiveOneNodeEach) {
        const std::uint64_t dropped_before = stats.messages_dropped;
        transfers = transfer_give_one(stats);
        if (transfers == 0 && stats.messages_dropped == dropped_before) break;
        machine_.charge_lb_round();
      } else {
        const std::size_t limit = cfg_.max_pairs_per_round == 0
                                      ? static_cast<std::size_t>(-1)
                                      : cfg_.max_pairs_per_round;
        matcher_.match_into(busy_flags_, busy_summary_, idle_flags_,
                            idle_summary_, limit, pairs_);
        if (pairs_.empty()) break;
#ifdef SIMDTS_SANITIZE
        san_apply_pair_mutation();
#endif
        transfers = transfer_split(pairs_, stats);
        machine_.charge_lb_round();
      }
      ++stats.lb_rounds;
      ++rounds;
      stats.transfers += transfers;
      if (!cfg_.multiple_transfers) break;
    }
    if (rounds == 0) return;
    ++stats.lb_phases;
    trigger.note_lb_cost(machine_.clock().elapsed - cost_before);
    trigger.begin_search_phase();
  }

  /// Executes split transfers for matched pairs as one lock-step router
  /// round — every pair moves its work at once, as on the Section 2
  /// machine — and returns the count of transfers that actually happened.
  /// Three passes:
  ///  1. Claim (serial, pair order).  SimdSan's dead-lane checks run first,
  ///     on every pair.  An armed drop budget makes the router lose the
  ///     round's first messages: the donated half never leaves the donor
  ///     (so no work is lost — the donor retransmits at a later phase), and
  ///     the loss is counted in stats.messages_dropped.  Every remaining
  ///     pair is checked against the flag planes and claims its two lanes
  ///     (claim_transfer_pairs), so an invalid pair list throws EngineError
  ///     before any stack is touched.
  ///  2. Stacks (transfer_stacks), spread over the machine's thread pool:
  ///     each pair moves its donation straight from the donor's stack into
  ///     the receiver's and records one state byte.
  ///  3. Write-back (serial, pair order): the flag planes, their summaries
  ///     and the census are updated from those bytes, never from a stack.
  /// Claimed lanes are distinct, so the stack pass is a pure per-pair
  /// function and the round is identical for any lane count.  Nothing is
  /// allocated per transfer.
  std::uint64_t transfer_split(const std::vector<simd::Pair>& pairs,
                               IterationStats& stats) {
#ifdef SIMDTS_SANITIZE
    for (const auto& [donor, receiver] : pairs) {
      san_dead_.check_alive(donor, "donate");
      san_dead_.check_alive(receiver, "receive");
    }
#endif
    const auto dropped = static_cast<std::size_t>(
        std::min<std::uint64_t>(drop_budget_, pairs.size()));
    drop_budget_ -= dropped;
    stats.messages_dropped += dropped;
    const std::span<const simd::Pair> moved =
        std::span<const simd::Pair>(pairs).subspan(dropped);
    claim_transfer_pairs(moved, busy_flags_, idle_flags_, cfg_, fault_clock_);
    if (moved.empty()) return 0;

    pair_state_.resize(moved.size());
    transfer_stacks(moved);

    // Every receiver turns non-empty and every donor stays so; only the
    // splittable count depends on the moved stacks.
    std::int64_t d_splittable = 0;
    for (std::size_t k = 0; k < moved.size(); ++k) {
      const std::uint8_t state = pair_state_[k];
      if ((state & kPairDiverged) != 0) {
        throw EngineError(
            "matched transfer pair's stacks disagree with its busy/idle flags",
            cfg_.name(), machine_.size(), fault_clock_);
      }
      const auto [donor, receiver] = moved[k];
      const bool donor_split = (state & kDonorSplittable) != 0;
      const bool receiver_split = (state & kReceiverSplittable) != 0;
      if (donor_split) busy_flags_.set(donor);
      if (receiver_split) busy_flags_.set(receiver);
      d_splittable += static_cast<std::int64_t>(donor_split) +
                      static_cast<std::int64_t>(receiver_split) - 1;
      resync_lane_summaries(donor);
      resync_lane_summaries(receiver);
    }
    const auto n = static_cast<std::uint32_t>(moved.size());
    counts_.nonempty += n;
    counts_.empty -= n;
    counts_.splittable = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_.splittable) + d_splittable);
    return n;
  }

  /// The stack pass of transfer_split, over contiguous pair ranges on the
  /// thread pool (64-pair aligned, so a round of at most 64 pairs is one
  /// inline chunk).  The claim pass made every lane appear in at most one
  /// pair, so each pair touches only its own two stacks and its own state
  /// byte.  The busy/idle preconditions are re-checked on the stacks
  /// themselves: a pair whose stacks disagree with the claimed flags moves
  /// nothing and is marked kPairDiverged for the write-back to report.
  // SIMDLINT-REGION(lockstep)
  void transfer_stacks(std::span<const simd::Pair> pairs) {
    std::uint8_t* const state = pair_state_.data();
    // SIMDLINT-SOURCE(partition) — the pair-range bounds vary with the lane
    // count; the outputs are indexed by pair, never by lane.
    auto body = [&](unsigned /*lane*/, std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        Stack& donor = stacks_[pairs[k].donor];
        Stack& receiver = stacks_[pairs[k].receiver];
        if (!donor.splittable() || !receiver.empty()) {
          state[k] = kPairDiverged;
          continue;
        }
        search::split_into(donor, cfg_.split, receiver);
        state[k] = static_cast<std::uint8_t>(
            (donor.splittable() ? kDonorSplittable : 0) |
            (receiver.splittable() ? kReceiverSplittable : 0));
      }
    };
    simd::ThreadPool* pool = machine_.pool();
    if (pool != nullptr && pool->size() > 1) {
      pool->parallel_for_lanes_aligned(pairs.size(),
                                       simd::BitPlane::kWordBits, body);
    } else {
      body(0, 0, pairs.size());
    }
  }

  /// Frye's first scheme: each busy processor hands single nodes to as many
  /// idle processors as it can spare (keeping one node for itself).  The
  /// donor and receiver enumerations are snapshots of the flags at round
  /// start, as on the lock-step machine.  Dropped messages consume a
  /// receiver slot but leave the node on the donor.
  std::uint64_t transfer_give_one(IterationStats& stats) {
    const simd::PeIndex start_after =
        cfg_.match == MatchScheme::kGP ? matcher_.pointer() : simd::kNoPe;
    simd::ranked_into(busy_flags_, busy_summary_, start_after, donors_buf_);
    simd::ranked_into(idle_flags_, idle_summary_, simd::kNoPe,
                      receivers_buf_);
    const std::vector<simd::PeIndex>& donors = donors_buf_;
    const std::vector<simd::PeIndex>& receivers = receivers_buf_;
    std::uint64_t transfers = 0;
    std::size_t r = 0;
    for (const simd::PeIndex d : donors) {
      if (r == receivers.size()) break;
#ifdef SIMDTS_SANITIZE
      san_dead_.check_alive(d, "donate");
#endif
      auto& st = stacks_[d];
      if (st.size() < 2) continue;
      census_remove(d);
      while (st.size() >= 2 && r < receivers.size()) {
        const simd::PeIndex rec = receivers[r];
        ++r;
        if (drop_budget_ > 0) {
          --drop_budget_;
          ++stats.messages_dropped;
          continue;
        }
        census_remove(rec);
        stacks_[rec].push(st.take_bottom());
        census_add(rec);
        ++transfers;
      }
      census_add(d);
    }
    return transfers;
  }

  const P& problem_;
  simd::Machine& machine_;
  SchemeConfig cfg_;
  Matcher matcher_;
  common::ShardedArray<Stack> stacks_;
  simd::BitPlane busy_flags_;   ///< splittable, maintained in place
  simd::BitPlane idle_flags_;   ///< empty *and alive*, in place
  simd::SummaryPlane busy_summary_;  ///< one bit per busy-plane word
  simd::SummaryPlane idle_summary_;  ///< one bit per idle-plane word
  simd::SummaryPlane work_summary_;  ///< bit w: word w has an active lane
  // Stack-memory accounting (track_stack_memory only; results-inert).
  std::uint64_t stack_bytes_integral_ = 0;  ///< sum over sampled cycles
  std::uint64_t stack_bytes_peak_ = 0;
  std::uint64_t stack_bytes_cycles_ = 0;
  fault::DeadLanePlane dead_;   ///< killed lanes (degraded mode)
  std::uint32_t alive_;         ///< surviving lane count
  Counts counts_;               ///< incrementally maintained census
  std::vector<LaneScratch> lane_scratch_;
  std::vector<simd::Pair> pairs_;  ///< reused across lb rounds
  /// One byte per moved pair of a transfer round (transfer_stacks' output,
  /// indexed by pair), reused across rounds.
  std::vector<std::uint8_t> pair_state_;
  static constexpr std::uint8_t kDonorSplittable = 1;
  static constexpr std::uint8_t kReceiverSplittable = 2;
  static constexpr std::uint8_t kPairDiverged = 4;  ///< nothing moved
  std::vector<simd::PeIndex> donors_buf_;     ///< reused per give-one round
  std::vector<simd::PeIndex> receivers_buf_;  ///< reused per give-one round
  std::vector<Node> goal_nodes_;
  search::NextBound next_bound_;

  // Fault state (inert until arm_faults()).
  const fault::FaultPlan* fault_plan_ = nullptr;
  std::size_t next_fault_ = 0;       ///< cursor into the plan's events
  std::uint64_t fault_clock_ = 0;    ///< cumulative expand cycles this run
  std::uint64_t drop_budget_ = 0;    ///< messages the router will lose next
  std::uint64_t cycle_budget_ = 0;   ///< watchdog (0 = unlimited)
  std::uint64_t orphaned_total_ = 0;   ///< nodes journaled from dead PEs
  std::uint64_t recovered_total_ = 0;  ///< nodes re-donated to survivors
  std::vector<fault::RecoveryRecord> recovery_journal_;
  std::vector<Node> orphan_buf_;                    ///< reused per kill
  std::vector<std::uint32_t> recovery_receivers_;   ///< reused per kill

#ifdef SIMDTS_SANITIZE
  san::DeadLaneShadow san_dead_;  ///< SimdSan's copy of the dead plane
  san::ClaimDomain san_claims_;   ///< this engine's word-ownership claims
#endif
};

}  // namespace simdts::lb
