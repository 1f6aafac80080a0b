// Shared plumbing for the experiment benches.
//
// Every table/figure binary follows the same pattern: print a banner
// explaining what the paper reported and what "the shape holds" means, run
// the experiment at the paper's machine size (P = 8192 by default), print a
// paper-vs-measured table, and emit a CSV artifact.  Table sweeps are
// checkpointed through runtime::run_journaled into one runtime::Journal per
// driver, so a killed sweep finishes with --resume.
//
// Environment knobs:
//   SIMDTS_QUICK          reduced scale (smaller machine, fewer workloads)
//   SIMDTS_P              override the machine size
//   SIMDTS_OUT_DIR        CSV output directory (default bench_out/)
//   SIMDTS_SWEEP_THREADS  host threads (pool lanes) of a parallel sweep
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "analysis/report.hpp"
#include "analysis/table.hpp"
#include "common/env.hpp"
#include "lb/engine.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/workloads.hpp"
#include "runtime/journal.hpp"
#include "runtime/sweep.hpp"
#include "simd/cost_model.hpp"
#include "simd/machine.hpp"

namespace simdts::bench {

/// The machine size for the headline tables: the paper's 8192, or 1024 in
/// quick mode, or $SIMDTS_P (at most UINT32_MAX, the PE index range).
inline std::uint32_t table_machine_size() {
  const std::uint64_t fallback = analysis::quick_mode() ? 1024 : 8192;
  return static_cast<std::uint32_t>(common::env_u64(
      "SIMDTS_P", fallback, std::numeric_limits<std::uint32_t>::max()));
}

/// The puzzle workloads for the headline tables (quick mode keeps the two
/// smallest so a full bench sweep stays snappy).
inline std::vector<puzzle::PuzzleWorkload> table_workloads() {
  const auto all = puzzle::paper_workloads();
  if (analysis::quick_mode()) {
    return {all.begin(), all.begin() + 2};
  }
  return {all.begin(), all.end()};
}

/// Runs one scheme on one 15-puzzle workload and returns the run stats for
/// the *final-threshold iteration only* — the paper's setup ("find all the
/// solutions of the puzzle up to a given tree depth"): a single bounded DFS
/// at the optimal-solution threshold, which makes the searched tree size W
/// identical for the serial and every parallel configuration.
inline lb::IterationStats run_puzzle(const puzzle::PuzzleWorkload& wl,
                                     std::uint32_t p,
                                     const lb::SchemeConfig& cfg,
                                     const simd::CostModel& cost
                                     = simd::cm2_cost_model()) {
  const puzzle::FifteenPuzzle problem(wl.board());
  simd::Machine machine(p, cost);
  lb::Engine<puzzle::FifteenPuzzle> engine(problem, machine, cfg);
  return engine.run_iteration(wl.solution_length);
}

/// Full-IDA* variant (all iterations), for experiments that need it.
inline lb::RunStats run_puzzle_ida(const puzzle::PuzzleWorkload& wl,
                                   std::uint32_t p,
                                   const lb::SchemeConfig& cfg,
                                   const simd::CostModel& cost
                                   = simd::cm2_cost_model()) {
  const puzzle::FifteenPuzzle problem(wl.board());
  simd::Machine machine(p, cost);
  lb::Engine<puzzle::FifteenPuzzle> engine(problem, machine, cfg);
  return engine.run();
}

/// One cell of a table sweep: a (workload, scheme, machine size) run.
struct PuzzleRun {
  const puzzle::PuzzleWorkload* workload = nullptr;
  lb::SchemeConfig cfg;
  std::uint32_t p = 0;
  simd::CostModel cost = simd::cm2_cost_model();
};

/// True when the command line asks to resume from an existing sweep journal.
inline bool parse_resume_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--resume") == 0) return true;
  }
  return false;
}

/// The sweep journal of a table driver: $SIMDTS_OUT_DIR/<name>.journal.
inline std::string sweep_journal_path(const std::string& journal_name) {
  return analysis::out_dir() + "/" + journal_name + ".journal";
}

/// Runs every cell concurrently on one sweep pool, largest
/// (serial_total, P) first, and returns the stats in input order.  Each run
/// owns a private Machine and its result lands in a pre-assigned slot, so
/// the table a driver prints from them is byte-identical to the serial loop
/// it replaces.  With a `journal`, completed cells are journaled (encoded
/// bit-exactly via lb::encode_journal) through runtime::run_journaled as the
/// sweep runs, and with `resume` the journal is loaded first so only the
/// missing or damaged cells are re-run.
inline std::vector<lb::IterationStats> run_puzzle_sweep(
    std::span<const PuzzleRun> runs, runtime::Journal* journal = nullptr,
    bool resume = false, unsigned threads = 0) {
  std::vector<lb::IterationStats> results(runs.size());
  runtime::run_journaled(
      threads, runs.size(), journal, resume,
      [&](std::size_t i) {
        return runtime::SlotSize{runs[i].workload->serial_total, runs[i].p};
      },
      [&](std::size_t i) {
        const PuzzleRun& r = runs[i];
        const puzzle::PuzzleWorkload& wl = *r.workload;
        return analysis::run_seed(
            r.cfg, r.p, r.cost,
            std::string(wl.name) + ' ' + std::to_string(wl.seed) + ' ' +
                std::to_string(wl.walk_steps) + ' ' +
                std::to_string(wl.solution_length));
      },
      [&](std::size_t i, const std::string& payload) {
        return lb::decode_journal(payload, results[i]);
      },
      [&](std::size_t i) {
        const PuzzleRun& r = runs[i];
        results[i] = run_puzzle(*r.workload, r.p, r.cfg, r.cost);
        return lb::encode_journal(results[i]);
      });
  return results;
}

/// run_puzzle_sweep checkpointed to the driver's sweep journal.
/// Determinism makes the merged results — and every table printed from
/// them — byte-identical to an uninterrupted sweep.  Callers delete the
/// journal (see remove_sweep_journal) once their CSVs are safely written.
inline std::vector<lb::IterationStats> run_puzzle_sweep_journaled(
    std::span<const PuzzleRun> runs, const std::string& journal_name,
    bool resume, unsigned threads = 0) {
  runtime::Journal journal(sweep_journal_path(journal_name));
  return run_puzzle_sweep(runs, &journal, resume, threads);
}

/// Deletes a sweep journal written by run_puzzle_sweep_journaled.
inline void remove_sweep_journal(const std::string& journal_name) {
  runtime::Journal(sweep_journal_path(journal_name)).remove();
}

/// The CM-2 t_lb / U_calc ratio used by the analytic-trigger columns.
inline double cm2_ratio() { return 13.0 / 30.0; }

/// Splitting-quality constant used for the analytic trigger (see
/// analysis::TriggerModel::alpha).
inline double model_alpha() { return 0.7; }

}  // namespace simdts::bench
