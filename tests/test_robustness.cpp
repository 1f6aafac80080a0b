// Host-side robustness: typed errors, validated configuration, journaled
// checkpoint/resume, and the retrying sweep wrapper (docs/robustness.md).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "common/error.hpp"
#include "lb/config.hpp"
#include "lb/metrics.hpp"
#include "runtime/journal.hpp"
#include "runtime/sweep.hpp"
#include "simd/cost_model.hpp"
#include "simd/thread_pool.hpp"
#include "synthetic/calibrate.hpp"

namespace simdts {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "simdts_" + name;
}

// ---------------------------------------------------------------------------
// Configuration validation (typed, actionable errors instead of asserts).
// ---------------------------------------------------------------------------

TEST(Validation, SchemeConfigRejectsBadThresholds) {
  EXPECT_THROW(lb::gp_static(0.0).validate(), ConfigError);
  EXPECT_THROW(lb::gp_static(-0.5).validate(), ConfigError);
  EXPECT_THROW(lb::gp_static(1.5).validate(), ConfigError);
  EXPECT_NO_THROW(lb::gp_static(0.9).validate());
  EXPECT_NO_THROW(lb::gp_static(1.0).validate());

  lb::SchemeConfig dk = lb::gp_dk();
  dk.init_threshold = 0.0;
  EXPECT_THROW(dk.validate(), ConfigError);
  dk.init_threshold = 0.85;
  EXPECT_NO_THROW(dk.validate());
}

TEST(Validation, CostModelRejectsNonsense) {
  simd::CostModel cm = simd::cm2_cost_model();
  EXPECT_NO_THROW(cm.validate());
  cm.t_expand = -1.0;
  EXPECT_THROW(cm.validate(), ConfigError);
  cm = simd::cm2_cost_model();
  cm.t_lb = -0.1;
  EXPECT_THROW(cm.validate(), ConfigError);
  cm = simd::cm2_cost_model();
  cm.lb_cost_multiplier = 0.0;
  EXPECT_THROW(cm.validate(), ConfigError);
  cm = simd::cm2_cost_model();
  cm.t_neighbor = -2.0;
  EXPECT_THROW(cm.validate(), ConfigError);
}

TEST(Validation, ErrorMessagesCarryContext) {
  try {
    lb::gp_static(1.5).validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("static_x"), std::string::npos) << what;
    EXPECT_NE(what.find("1.5"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Journal codecs: exact (bit-pattern) round-trips.
// ---------------------------------------------------------------------------

TEST(JournalCodec, IterationStatsRoundTripsExactly) {
  lb::IterationStats s;
  s.bound = 42;
  s.nodes_expanded = 123456789;
  s.goals_found = 3;
  s.next_bound = 44;
  s.expand_cycles = 2099;
  s.lb_phases = 172;
  s.lb_rounds = 180;
  s.transfers = 5000;
  s.pes_killed = 2;
  s.nodes_recovered = 17;
  s.recovery_phases = 2;
  s.recovery_rounds = 5;
  s.messages_dropped = 9;
  s.clock.elapsed = 0.1 + 0.2;  // a value with no short decimal form
  s.clock.calc_time = 1.0 / 3.0;
  s.clock.idle_time = 2e-308;   // subnormal-adjacent, printf-hostile
  s.clock.lb_time = 13.0 * 172;
  s.clock.recovery_time = 65.0;
  s.clock.expand_cycles = 2099;
  s.clock.lb_rounds = 180;
  s.clock.recovery_rounds = 5;
  s.clock.nodes_expanded = 123456789;

  lb::IterationStats back;
  ASSERT_TRUE(lb::decode_journal(lb::encode_journal(s), back));
  EXPECT_EQ(back, s);  // bitwise for the clock via defaulted ==
}

TEST(JournalCodec, RejectsTornAndAlienPayloads) {
  lb::IterationStats s;
  const std::string good = lb::encode_journal(s);
  lb::IterationStats out;
  EXPECT_TRUE(lb::decode_journal(good, out));
  EXPECT_FALSE(lb::decode_journal(good.substr(0, good.size() / 2), out));
  EXPECT_FALSE(lb::decode_journal(good + " 7", out));
  EXPECT_FALSE(lb::decode_journal("v9 " + good, out));
  EXPECT_FALSE(lb::decode_journal("", out));
}

TEST(JournalCodec, GridPointRoundTripsExactly) {
  analysis::GridPoint pt;
  pt.p = 8192;
  pt.w = 16110463;
  pt.efficiency = 0.905437219;
  pt.expand_cycles = 2099;
  pt.lb_phases = 172;
  pt.lb_rounds = 180;
  pt.timed_out = true;
  pt.clock.elapsed = 1.0 / 7.0;
  pt.clock.calc_time = 3.3e7;
  pt.clock.nodes_expanded = 16110463;

  analysis::GridPoint back;
  ASSERT_TRUE(analysis::decode_grid_point(analysis::encode_grid_point(pt),
                                          back));
  EXPECT_EQ(back, pt);

  EXPECT_FALSE(analysis::decode_grid_point("v1 1 2 3", back));
  EXPECT_FALSE(analysis::decode_grid_point(
      analysis::encode_grid_point(pt) + " junk", back));
}

// ---------------------------------------------------------------------------
// The on-disk journal: append, load, torn-line tolerance, checksums.
// ---------------------------------------------------------------------------

/// A complete journal line for `payload` under `key`, as Journal writes it.
std::string journal_line(std::uint64_t key, const std::string& payload) {
  std::ostringstream os;
  os << std::hex << key << ' ' << runtime::Journal::checksum(key, payload)
     << ' ' << payload << " ok\n";
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Journal, RecordsAndLoads) {
  const std::string path = temp_path("journal_basic");
  std::remove(path.c_str());
  runtime::Journal journal(path);
  journal.record(2, "two words");
  journal.record(0, "zero");
  journal.record(7, "seven");

  const auto entries = journal.load();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.at(0).payload, "zero");
  EXPECT_EQ(entries.at(2).payload, "two words");
  EXPECT_EQ(entries.at(7).payload, "seven");
  for (const auto& [key, entry] : entries) EXPECT_TRUE(entry.intact(key));
  journal.remove();
  EXPECT_TRUE(journal.load().empty());
}

TEST(Journal, SkipsTornAndMalformedLines) {
  const std::string path = temp_path("journal_torn");
  std::string torn = journal_line(1, "beta");
  torn.pop_back();  // the newline
  torn.pop_back();  // torn mid-marker: the process died here
  write_file(path, journal_line(0, "alpha") + torn);
  runtime::Journal journal(path);
  auto entries = journal.load();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.at(0).payload, "alpha");
  EXPECT_TRUE(entries.at(0).intact(0));

  std::string unmarked = journal_line(4, "delta");
  unmarked.erase(unmarked.size() - 4, 3);  // no " ok" marker
  std::string lines = "garbage line\n" + journal_line(3, "gamma") + unmarked;
  lines += "notanumber 0 x ok\n";      // bad key
  lines += "6 nothex x ok\n";          // bad checksum
  lines += "7 0 wrong checksum ok\n";  // parses, but is not intact
  write_file(path, lines + journal_line(5, "epsilon"));
  entries = journal.load();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.at(3).payload, "gamma");
  EXPECT_EQ(entries.at(5).payload, "epsilon");
  EXPECT_TRUE(entries.at(3).intact(3));
  EXPECT_TRUE(entries.at(5).intact(5));
  EXPECT_EQ(entries.at(7).payload, "wrong checksum");
  EXPECT_FALSE(entries.at(7).intact(7));

  // The next record ends the torn tail first, so it loads intact.
  write_file(path, journal_line(0, "alpha") + torn);
  journal.record(2, "after the crash");
  entries = journal.load();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries.at(2).intact(2));
  EXPECT_EQ(entries.at(2).payload, "after the crash");
  journal.remove();
}

TEST(Journal, RejectsMultilinePayloads) {
  runtime::Journal journal(temp_path("journal_reject"));
  EXPECT_THROW(journal.record(0, "two\nlines"), Error);
  journal.remove();
}

TEST(Journal, RemoveThenRecordStartsAFreshFile) {
  const std::string path = temp_path("journal_fresh");
  runtime::Journal journal(path);
  journal.remove();  // nothing there yet: not an error
  journal.record(1, "old");
  journal.remove();
  EXPECT_FALSE(std::filesystem::exists(path));
  journal.record(2, "new");
  EXPECT_EQ(read_file(path), journal_line(2, "new"));
  journal.remove();
}

TEST(Journal, ConcurrentRecordsAreWholeLines) {
  const std::string path = temp_path("journal_concurrent");
  std::remove(path.c_str());
  const auto payload = [](std::size_t k) {
    return "slot " + std::to_string(k) + ' ' + std::string(k % 97, 'x');
  };
  constexpr std::size_t kRecords = 1200;
  runtime::Journal journal(path);
  simd::ThreadPool pool(4);
  pool.run(kRecords, [&](std::size_t k) { journal.record(k, payload(k)); });

  const auto entries = runtime::Journal(path).load();
  ASSERT_EQ(entries.size(), kRecords);
  for (const auto& [key, entry] : entries) {
    EXPECT_TRUE(entry.intact(key)) << "key " << key;
    EXPECT_EQ(entry.payload, payload(key));
  }
  journal.remove();
}

// ---------------------------------------------------------------------------
// Resumable grids: a journaled partial run completes to the identical
// result, and journaled slots are not re-executed.
// ---------------------------------------------------------------------------

/// Two synthetic shapes on P in {16, 64}: four cheap grid slots.
struct SmallGrid {
  std::vector<synthetic::SyntheticWorkload> ladder;
  std::uint32_t sizes[2] = {16, 64};
  lb::SchemeConfig cfg = lb::gp_static(0.90);
  simd::CostModel cost = simd::cm2_cost_model();

  SmallGrid() {
    const synthetic::Params shapes[] = {
        {9013, 4, 0.395, 14},
        {9011, 4, 0.400, 18},
    };
    for (const auto& p : shapes) {
      ladder.push_back(
          synthetic::SyntheticWorkload{"ladder", p, synthetic::measure(p)});
    }
  }

  /// The checksum seed run_grid files slot k under (sizes-major).
  std::uint64_t seed(std::size_t k) const {
    return analysis::grid_point_seed(cfg, sizes[k / ladder.size()],
                                     ladder[k % ladder.size()].params, cost,
                                     0);
  }

  analysis::GridResult run(const std::string& journal_path,
                           bool resume) const {
    analysis::GridOptions options;
    options.threads = 1;
    options.journal_path = journal_path;
    options.resume = resume;
    return analysis::run_grid(cfg, ladder, sizes, cost, options);
  }
};

TEST(ResumableGrid, ResumedRunIsBitIdentical) {
  const SmallGrid grid;
  // Reference: uninterrupted, no journal.
  const analysis::GridResult reference = grid.run("", false);

  // "Interrupted" run: journal only a strict subset of the slots, as if the
  // process died after two cells.
  const std::string path = temp_path("grid_resume.journal");
  std::remove(path.c_str());
  {
    runtime::Journal journal(path);
    journal.record(0, analysis::encode_grid_point(reference.points[0]),
                   grid.seed(0));
    journal.record(3, analysis::encode_grid_point(reference.points[3]),
                   grid.seed(3));
    // Simulate a torn final line from the crash.
    std::ofstream out(path, std::ios::app);
    out << journal_line(1, analysis::encode_grid_point(reference.points[1]))
               .substr(0, 30);
  }

  const analysis::GridResult resumed = grid.run(path, true);
  ASSERT_EQ(resumed.points.size(), reference.points.size());
  for (std::size_t i = 0; i < reference.points.size(); ++i) {
    EXPECT_EQ(resumed.points[i], reference.points[i]) << "slot " << i;
  }
  // The journal now covers every slot (the re-run recorded the rest).
  const auto entries = runtime::Journal(path).load();
  EXPECT_EQ(entries.size(), 4u);
  for (const auto& [key, entry] : entries) {
    EXPECT_TRUE(entry.intact(key, grid.seed(key))) << "slot " << key;
  }
  runtime::Journal(path).remove();
}

// A journal written under other inputs never replays: each slot's checksum
// is seeded by a fingerprint of its inputs, so after the P = 32 slots are
// swapped for P = 64 those entries load as not intact and re-run, while the
// unchanged P = 16 slots still replay.
TEST(ResumableGrid, ForeignInputsAreRerunNotReplayed) {
  SmallGrid before;
  before.sizes[1] = 32;
  const SmallGrid after;
  const std::string path = temp_path("grid_foreign.journal");
  std::remove(path.c_str());
  (void)before.run(path, false);
  for (const auto& [key, entry] : runtime::Journal(path).load()) {
    EXPECT_EQ(entry.intact(key, after.seed(key)), key < after.ladder.size())
        << "slot " << key;
  }

  const analysis::GridResult reference = after.run("", false);
  const analysis::GridResult resumed = after.run(path, true);
  ASSERT_EQ(resumed.points.size(), reference.points.size());
  for (std::size_t i = 0; i < reference.points.size(); ++i) {
    EXPECT_EQ(resumed.points[i], reference.points[i]) << "slot " << i;
  }
  runtime::Journal(path).remove();
}

// Every single-bit flip of a complete journal either leaves its entry
// intact-and-correct or makes that slot re-run: a damaged digit or slot
// index never replays a wrong point.
TEST(ResumableGrid, DamagedJournalNeverReplaysAWrongPoint) {
  const SmallGrid grid;
  const std::string path = temp_path("grid_damaged.journal");
  std::remove(path.c_str());
  const analysis::GridResult reference = grid.run(path, false);
  const std::string full = read_file(path);
  ASSERT_FALSE(full.empty());
  for (std::size_t off = 0; off < full.size(); ++off) {
    if (full[off] == '\n') continue;
    std::string damaged = full;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x01);
    write_file(path, damaged);
    const analysis::GridResult resumed = grid.run(path, true);
    ASSERT_EQ(resumed.points.size(), reference.points.size());
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
      ASSERT_EQ(resumed.points[i], reference.points[i])
          << "flipped offset " << off << ", slot " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(Journal, OldFormatLinesAreRerunNotMisread) {
  const SmallGrid grid;
  const analysis::GridResult reference = grid.run("", false);
  // The previous `<slot> <payload> ok` format carries no checksum.
  const std::string path = temp_path("grid_old_format.journal");
  std::string old;
  for (std::size_t k = 0; k < reference.points.size(); ++k) {
    old += std::to_string(k) + ' ' +
           analysis::encode_grid_point(reference.points[k]) + " ok\n";
  }
  write_file(path, old);
  EXPECT_TRUE(runtime::Journal(path).load().empty());

  const analysis::GridResult resumed = grid.run(path, true);
  ASSERT_EQ(resumed.points.size(), reference.points.size());
  for (std::size_t i = 0; i < reference.points.size(); ++i) {
    EXPECT_EQ(resumed.points[i], reference.points[i]) << "slot " << i;
  }
  // Every slot was re-run and recorded in the new format.
  const auto entries = runtime::Journal(path).load();
  EXPECT_EQ(entries.size(), reference.points.size());
  for (const auto& [key, entry] : entries) {
    EXPECT_TRUE(entry.intact(key, grid.seed(key))) << "slot " << key;
  }
  std::remove(path.c_str());
}

TEST(ResumableGrid, WatchdogMarksPointTimedOutInsteadOfHanging) {
  const synthetic::Params shape{9013, 4, 0.395, 14};
  const std::vector<synthetic::SyntheticWorkload> ladder = {
      synthetic::SyntheticWorkload{"ladder", shape,
                                   synthetic::measure(shape)}};
  const std::uint32_t sizes[] = {16};
  analysis::GridOptions options;
  options.threads = 1;
  options.cycle_budget = 3;  // absurdly tight: every cell times out
  const analysis::GridResult grid = analysis::run_grid(
      lb::gp_static(0.90), ladder, sizes, simd::cm2_cost_model(), options);
  ASSERT_EQ(grid.points.size(), 1u);
  EXPECT_TRUE(grid.points[0].timed_out);
  EXPECT_EQ(grid.points[0].p, 16u);
  EXPECT_EQ(grid.points[0].w, 0u);
}

// ---------------------------------------------------------------------------
// run_tasks: typed per-task outcomes with retry/backoff.
// ---------------------------------------------------------------------------

TEST(RunTasks, ReportsOkTimeoutAndFailure) {
  const auto reports = runtime::run_tasks(
      2, 4,
      [](std::size_t i) {
        switch (i) {
          case 0: return;  // ok
          case 1: throw TimeoutError("gp", 16, 100, 10);
          case 2: throw Error("hard failure");
          default: return;
        }
      },
      runtime::RetryPolicy{3, 0});

  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].status, runtime::TaskStatus::kOk);
  EXPECT_EQ(reports[0].attempts, 1u);
  EXPECT_EQ(reports[1].status, runtime::TaskStatus::kTimeout);
  EXPECT_EQ(reports[1].attempts, 1u);  // timeouts are never retried
  EXPECT_NE(reports[1].message.find("budget"), std::string::npos);
  EXPECT_EQ(reports[2].status, runtime::TaskStatus::kFailed);
  EXPECT_EQ(reports[2].attempts, 1u);
  EXPECT_EQ(reports[3].status, runtime::TaskStatus::kOk);
}

TEST(RunTasks, RetriesTransientFailuresWithBackoff) {
  std::atomic<int> calls{0};
  const auto reports = runtime::run_tasks(
      1, 1,
      [&](std::size_t) {
        // Fail twice, then succeed.
        if (calls.fetch_add(1) < 2) throw TransientError("blip");
      },
      runtime::RetryPolicy{5, 0});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].status, runtime::TaskStatus::kOk);
  EXPECT_EQ(reports[0].attempts, 3u);
  EXPECT_EQ(calls.load(), 3);
}

TEST(RunTasks, GivesUpAfterMaxAttempts) {
  std::atomic<int> calls{0};
  const auto reports = runtime::run_tasks(
      1, 1,
      [&](std::size_t) {
        calls.fetch_add(1);
        throw TransientError("always down");
      },
      runtime::RetryPolicy{3, 0});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].status, runtime::TaskStatus::kTransient);
  EXPECT_EQ(reports[0].attempts, 3u);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(std::string(runtime::to_string(reports[0].status)), "transient");
}

// The backoff schedule is a documented contract (the service layer charges
// it on its virtual clock), so pin the exact sequence at the boundaries: the
// base doubles per retry starting at backoff_ms (retry 1 waits the *base*
// delay, not double it), retry 0 is meaningless and free, and the shift
// saturates instead of running past the integer width.
TEST(RunTasks, BackoffSchedulePinnedExactly) {
  const runtime::RetryPolicy policy{8, 10, 0};
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 0), 0u);
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 1), 10u);
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 2), 20u);
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 3), 40u);
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 7), 640u);
  // Saturation: the shift clamps at 32 — no undefined behaviour, and the
  // delay plateaus instead of wrapping.
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 33),
            10ull << 32);
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 200),
            runtime::backoff_delay_ms(policy, 33));
  // Zero base disables backoff entirely.
  EXPECT_EQ(runtime::backoff_delay_ms(runtime::RetryPolicy{8, 0, 0}, 3), 0u);
}

TEST(RunTasks, SeededJitterIsDeterministicAndBounded) {
  const runtime::RetryPolicy jittered{5, 10, 0xBADC0FFEULL};
  // Deterministic: the same (policy, retry, salt) always yields the same
  // delay; pin the first few values of this seed so an accidental reseed or
  // mixing change fails loudly.
  const std::uint64_t d1 = runtime::backoff_delay_ms(jittered, 1, 7);
  const std::uint64_t d2 = runtime::backoff_delay_ms(jittered, 2, 7);
  EXPECT_EQ(d1, runtime::backoff_delay_ms(jittered, 1, 7));
  EXPECT_EQ(d2, runtime::backoff_delay_ms(jittered, 2, 7));
  // Bounded: base <= delay < 2 * base.
  EXPECT_GE(d1, 10u);
  EXPECT_LT(d1, 20u);
  EXPECT_GE(d2, 20u);
  EXPECT_LT(d2, 40u);
  // Salted: two tasks retrying at the same attempt spread out.
  EXPECT_NE(runtime::backoff_delay_ms(jittered, 1, 0),
            runtime::backoff_delay_ms(jittered, 1, 1));
}

TEST(RunTasks, GiveUpCountMatchesScheduleLength) {
  // A task that always fails is executed exactly max_attempts times and
  // charged exactly max_attempts - 1 backoff delays; the final attempt is
  // not followed by a sleep.  (Guards the off-by-one between attempts and
  // retries that the schedule refactor fixed.)
  std::atomic<int> calls{0};
  const runtime::RetryPolicy policy{4, 0};
  const auto reports = runtime::run_tasks(
      1, 1,
      [&](std::size_t) {
        calls.fetch_add(1);
        throw TransientError("always down");
      },
      policy);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].attempts, 4u);
  EXPECT_EQ(calls.load(), 4);
  // The virtual charge for those retries, with a nonzero base: retries 1..3.
  const runtime::RetryPolicy charged{4, 10, 0};
  std::uint64_t total = 0;
  for (std::uint32_t k = 1; k < reports[0].attempts; ++k) {
    total += runtime::backoff_delay_ms(charged, k, 0);
  }
  EXPECT_EQ(total, 10u + 20u + 40u);
}

}  // namespace
}  // namespace simdts
