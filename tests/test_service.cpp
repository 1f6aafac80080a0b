// The solve-service layer (docs/service.md): admission control, deadline
// budgets, retry accounting, graceful degradation, and the crash-tolerant
// verified-on-read result cache.  The backbone assertions: every request in
// a trace is accounted for in exactly one terminal status, replays are
// byte-identical across host thread counts and fault arming, and a damaged
// cache journal can cause misses but never a wrong answer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/service_fault.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/request.hpp"
#include "service/service.hpp"

namespace simdts {
namespace {

std::string temp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "simdts_service_" + name;
  std::remove(p.c_str());
  return p;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

service::Request make_req(std::uint64_t id, std::uint64_t arrival,
                          service::Priority pri, std::uint32_t tenant = 0,
                          std::uint64_t hint = 100) {
  service::Request r;
  r.id = id;
  r.tenant = tenant;
  r.arrival_tick = arrival;
  r.priority = pri;
  r.problem = service::ProblemKind::kSyntheticTree;
  r.instance_seed = 7000 + id;
  r.instance_size = 8;
  r.scheme = service::SchemeKind::kGpDk;
  r.p = 4;
  r.cost_hint = hint;
  return r;
}

// ---------------------------------------------------------------------------
// Service fault plans.
// ---------------------------------------------------------------------------

TEST(ServiceFaultPlan, ValidatesEventBounds) {
  using fault::ServiceFaultEvent;
  using fault::ServiceFaultKind;
  const fault::ServiceFaultPlan out_of_range(
      {ServiceFaultEvent{10, ServiceFaultKind::kEngineCrash, 1}});
  EXPECT_THROW(out_of_range.validate(10), ConfigError);
  EXPECT_NO_THROW(out_of_range.validate(11));

  const fault::ServiceFaultPlan zero_crash(
      {ServiceFaultEvent{0, ServiceFaultKind::kEngineCrash, 0}});
  EXPECT_THROW(zero_crash.validate(5), ConfigError);
  const fault::ServiceFaultPlan zero_stall(
      {ServiceFaultEvent{0, ServiceFaultKind::kQueueStall, 0}});
  EXPECT_THROW(zero_stall.validate(5), ConfigError);
  // A zero corrupt offset is byte 0 — legal.
  const fault::ServiceFaultPlan zero_corrupt(
      {ServiceFaultEvent{0, ServiceFaultKind::kCacheCorrupt, 0}});
  EXPECT_NO_THROW(zero_corrupt.validate(5));
}

TEST(ServiceFaultPlan, AccessorsAggregatePerRequest) {
  using fault::ServiceFaultEvent;
  using fault::ServiceFaultKind;
  const fault::ServiceFaultPlan plan(
      {ServiceFaultEvent{3, ServiceFaultKind::kEngineCrash, 2},
       ServiceFaultEvent{3, ServiceFaultKind::kEngineCrash, 1},
       ServiceFaultEvent{3, ServiceFaultKind::kCacheCorrupt, 5},
       ServiceFaultEvent{1, ServiceFaultKind::kQueueStall, 7},
       ServiceFaultEvent{1, ServiceFaultKind::kQueueStall, 4}});
  EXPECT_EQ(plan.crash_attempts_for(3), 3u);
  EXPECT_EQ(plan.crash_attempts_for(0), 0u);
  EXPECT_EQ(plan.stall_ticks_for(1), 11u);
  ASSERT_EQ(plan.corrupt_bytes_for(3).size(), 1u);
  EXPECT_EQ(plan.corrupt_bytes_for(3)[0], 5u);
  // Sorted by request index, stable within one.
  EXPECT_EQ(plan.events().front().request_index, 1u);
  EXPECT_EQ(plan.events().back().request_index, 3u);
}

TEST(ServiceFaultPlan, RandomIsSeedDeterministic) {
  const auto a = fault::ServiceFaultPlan::random(99, 500, 10, 5, 3);
  const auto b = fault::ServiceFaultPlan::random(99, 500, 10, 5, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.events().size(), 18u);
  EXPECT_NO_THROW(a.validate(500));
  const auto c = fault::ServiceFaultPlan::random(100, 500, 10, 5, 3);
  EXPECT_NE(a, c);
  EXPECT_THROW(fault::ServiceFaultPlan::random(1, 0, 1, 0, 0), ConfigError);
}

// ---------------------------------------------------------------------------
// Request schema and the content address.
// ---------------------------------------------------------------------------

TEST(ServiceRequest, ValidationRejectsNonsense) {
  service::Request r = make_req(1, 0, service::Priority::kStandard);
  EXPECT_NO_THROW(service::validate(r));
  r.p = 3;
  EXPECT_THROW(service::validate(r), ConfigError);
  r.p = 8192;
  EXPECT_THROW(service::validate(r), ConfigError);
  r = make_req(1, 0, service::Priority::kStandard);
  r.instance_size = 0;
  EXPECT_THROW(service::validate(r), ConfigError);
  r = make_req(1, 0, service::Priority::kStandard);
  r.cost_hint = 0;
  EXPECT_THROW(service::validate(r), ConfigError);
}

TEST(ServiceRequest, CanonicalKeyHashesContentNotEnvelope) {
  const service::Request a = make_req(1, 0, service::Priority::kStandard, 0);
  service::Request b = a;
  b.id = 999;
  b.tenant = 3;
  b.arrival_tick = 55;
  b.priority = service::Priority::kInteractive;
  b.cost_hint = 12345;
  EXPECT_EQ(service::canonical_key(a), service::canonical_key(b));

  service::Request c = a;
  c.instance_seed += 1;
  EXPECT_NE(service::canonical_key(a), service::canonical_key(c));
  service::Request d = a;
  d.scheme = service::SchemeKind::kNgpDp;
  EXPECT_NE(service::canonical_key(a), service::canonical_key(d));
  // Downgrades change the computation, so they change the key.
  EXPECT_NE(service::canonical_key(a, a.p, a.mode),
            service::canonical_key(a, a.p / 2, a.mode));
  EXPECT_NE(service::canonical_key(a, a.p, service::SolveMode::kExhaustive),
            service::canonical_key(a, a.p, service::SolveMode::kFirstSolution));
}

TEST(ServiceRequest, RandomTraceIsDeterministicAndOrdered) {
  const auto a = service::random_trace(2026, 64, 4);
  const auto b = service::random_trace(2026, 64, 4);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NO_THROW(service::validate(a[i]));
    if (i > 0) {
      EXPECT_GE(a[i].arrival_tick, a[i - 1].arrival_tick);
    }
    EXPECT_LT(a[i].tenant, 4u);
  }
}

// ---------------------------------------------------------------------------
// Admission control: deterministic overload policy.
// ---------------------------------------------------------------------------

service::AdmissionConfig tight_admission() {
  service::AdmissionConfig cfg;
  cfg.engines = 1;
  cfg.queue_capacity = 1;
  cfg.tenant_quota = 10;
  cfg.cycles_per_tick = 1;  // service time == cost_hint ticks
  cfg.degrade_depth = 99;
  return cfg;
}

TEST(Admission, ShedsCheapestFirstUnderOverload) {
  const service::AdmissionController ctl(tight_admission());
  const std::vector<service::Request> trace = {
      make_req(0, 0, service::Priority::kInteractive),
      make_req(1, 0, service::Priority::kStandard),
      make_req(2, 0, service::Priority::kBatch),
      make_req(3, 0, service::Priority::kInteractive),
  };
  const auto d = ctl.plan(trace, fault::ServiceFaultPlan{});
  ASSERT_EQ(d.size(), 4u);
  // r0 runs at once; r1 queues; batch r2 is the cheapest candidate and is
  // refused; interactive r3 then evicts queued standard r1.
  EXPECT_EQ(d[0].outcome, service::AdmissionOutcome::kAdmit);
  EXPECT_EQ(d[0].start_tick, 0u);
  EXPECT_EQ(d[1].outcome, service::AdmissionOutcome::kShed);
  EXPECT_NE(d[1].note.find("request=1"), std::string::npos) << d[1].note;
  EXPECT_EQ(d[2].outcome, service::AdmissionOutcome::kReject);
  EXPECT_NE(d[2].note.find("cheapest"), std::string::npos) << d[2].note;
  EXPECT_EQ(d[3].outcome, service::AdmissionOutcome::kAdmit);
  EXPECT_EQ(d[3].start_tick, 100u);
  EXPECT_EQ(d[3].queue_delay_ticks, 100u);
  // Replay: identical decisions.
  EXPECT_EQ(d, ctl.plan(trace, fault::ServiceFaultPlan{}));
}

TEST(Admission, TenantQuotaRejects) {
  service::AdmissionConfig cfg = tight_admission();
  cfg.engines = 2;
  cfg.queue_capacity = 8;
  cfg.tenant_quota = 1;
  const service::AdmissionController ctl(cfg);
  const std::vector<service::Request> trace = {
      make_req(0, 0, service::Priority::kStandard, /*tenant=*/7),
      make_req(1, 0, service::Priority::kStandard, /*tenant=*/7),
      make_req(2, 0, service::Priority::kStandard, /*tenant=*/8),
  };
  const auto d = ctl.plan(trace, fault::ServiceFaultPlan{});
  EXPECT_EQ(d[0].outcome, service::AdmissionOutcome::kAdmit);
  EXPECT_EQ(d[1].outcome, service::AdmissionOutcome::kReject);
  EXPECT_NE(d[1].note.find("quota"), std::string::npos) << d[1].note;
  EXPECT_EQ(d[2].outcome, service::AdmissionOutcome::kAdmit);
}

TEST(Admission, QueueStallDelaysDrainAndDeepensQueue) {
  service::AdmissionConfig cfg = tight_admission();
  cfg.queue_capacity = 4;
  const service::AdmissionController ctl(cfg);
  const std::vector<service::Request> trace = {
      make_req(0, 0, service::Priority::kStandard),
  };
  // Unstalled, the lone request starts immediately.
  const auto clean = ctl.plan(trace, fault::ServiceFaultPlan{});
  EXPECT_EQ(clean[0].queue_delay_ticks, 0u);
  // A stall at its own arrival pins it in the queue for the stall window.
  const fault::ServiceFaultPlan stall(
      {fault::ServiceFaultEvent{0, fault::ServiceFaultKind::kQueueStall, 10}});
  const auto stalled = ctl.plan(trace, stall);
  EXPECT_EQ(stalled[0].outcome, service::AdmissionOutcome::kAdmit);
  EXPECT_EQ(stalled[0].start_tick, 10u);
  EXPECT_EQ(stalled[0].queue_delay_ticks, 10u);
}

TEST(Admission, DegradeWatermarkMarksDowngrades) {
  service::AdmissionConfig cfg = tight_admission();
  cfg.queue_capacity = 8;
  cfg.degrade_depth = 2;
  const service::AdmissionController ctl(cfg);
  std::vector<service::Request> trace;
  for (std::uint64_t i = 0; i < 4; ++i) {
    trace.push_back(make_req(i, 0, service::Priority::kStandard));
  }
  const auto d = ctl.plan(trace, fault::ServiceFaultPlan{});
  EXPECT_FALSE(d[1].downshift_p);  // queue depth 1 on enqueue
  EXPECT_TRUE(d[2].downshift_p);   // depth 2: watermark reached
  EXPECT_TRUE(d[2].force_first_solution);
  EXPECT_TRUE(d[3].downshift_p);
}

TEST(Admission, RejectsUnsortedTraces) {
  const service::AdmissionController ctl(tight_admission());
  const std::vector<service::Request> trace = {
      make_req(0, 5, service::Priority::kStandard),
      make_req(1, 2, service::Priority::kStandard),
  };
  EXPECT_THROW(ctl.plan(trace, fault::ServiceFaultPlan{}), ConfigError);
}

// ---------------------------------------------------------------------------
// Result cache: journaled, verified on read.
// ---------------------------------------------------------------------------

TEST(ResultCache, RoundTripsAndPersists) {
  const std::string path = temp_path("roundtrip");
  {
    service::ResultCache cache(path);
    cache.insert(0xABC, "1 2 3");
    cache.insert(0xDEF, "40 50 60");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup(0xABC).value_or(""), "1 2 3");
    EXPECT_FALSE(cache.lookup(0x123).has_value());
  }
  service::ResultCache reloaded(path);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.lookup(0xDEF).value_or(""), "40 50 60");
  EXPECT_EQ(reloaded.corruptions_detected(), 0u);
  std::remove(path.c_str());
}

TEST(ResultCache, LastInsertWins) {
  const std::string path = temp_path("lastwins");
  {
    service::ResultCache cache(path);
    cache.insert(7, "1 1 1");
    cache.insert(7, "2 2 2");
    EXPECT_EQ(cache.lookup(7).value_or(""), "2 2 2");
  }
  service::ResultCache reloaded(path);
  EXPECT_EQ(reloaded.lookup(7).value_or(""), "2 2 2");
  std::remove(path.c_str());
}

TEST(ResultCache, ScriptedCorruptionIsCaughtOnRead) {
  const std::string path = temp_path("scripted_corrupt");
  {
    service::ResultCache cache(path);
    cache.insert(42, "10 20 30");
    ASSERT_TRUE(cache.corrupt_payload_byte(42, 3));
    std::string diag;
    EXPECT_FALSE(cache.lookup(42, &diag).has_value());
    EXPECT_NE(diag.find("checksum mismatch"), std::string::npos) << diag;
    EXPECT_EQ(cache.corruptions_detected(), 1u);
    // The corrupt entry was erased: a second lookup is a clean miss.
    diag.clear();
    EXPECT_FALSE(cache.lookup(42, &diag).has_value());
    EXPECT_TRUE(diag.empty());
  }
  // Durability: the corruption survives reload (last-wins journal line) and
  // is caught there too — never served.
  service::ResultCache reloaded(path);
  std::string diag;
  EXPECT_FALSE(reloaded.lookup(42, &diag).has_value());
  EXPECT_NE(diag.find("checksum mismatch"), std::string::npos) << diag;
  std::remove(path.c_str());
}

TEST(ResultCache, CorruptOfAbsentKeyIsANoop) {
  const std::string path = temp_path("corrupt_absent");
  service::ResultCache cache(path);
  EXPECT_FALSE(cache.corrupt_payload_byte(1, 0));
  std::remove(path.c_str());
}

TEST(ResultCache, CreatesMissingParentDirectory) {
  const std::filesystem::path dir =
      ::testing::TempDir() + "simdts_service_missing_dir";
  std::filesystem::remove_all(dir);
  const std::filesystem::path path = dir / "nested" / "cache.journal";
  {
    service::ResultCache cache(path);
    EXPECT_FALSE(std::filesystem::exists(dir));  // nothing until an insert
    cache.insert(5, "1 2 3");
  }
  service::ResultCache reloaded(path);
  EXPECT_EQ(reloaded.lookup(5).value_or(""), "1 2 3");
  std::filesystem::remove_all(dir);
}

// The crash-tolerance fuzz: truncate the journal at every byte offset, and
// separately flip every byte, asserting the only observable outcomes are a
// clean miss or the exact inserted payload.  Wrong answers are not an
// outcome.
TEST(ResultCacheFuzz, TruncationAtEveryOffsetNeverServesWrongPayload) {
  const std::string path = temp_path("fuzz_trunc");
  const std::vector<std::pair<std::uint64_t, std::string>> entries = {
      {0x11, "1 2 3"}, {0x22, "444 555 666"}, {0x33, "7 8 9"}};
  {
    service::ResultCache cache(path);
    for (const auto& [k, v] : entries) cache.insert(k, v);
  }
  const std::string full = read_file(path);
  ASSERT_FALSE(full.empty());
  for (std::size_t len = 0; len <= full.size(); ++len) {
    write_file(path, full.substr(0, len));
    service::ResultCache cache(path);
    for (const auto& [k, v] : entries) {
      const auto hit = cache.lookup(k);
      if (hit.has_value()) {
        EXPECT_EQ(*hit, v) << "truncated at " << len;
      }
    }
  }
  // Untruncated: everything verifies.
  write_file(path, full);
  service::ResultCache cache(path);
  for (const auto& [k, v] : entries) {
    EXPECT_EQ(cache.lookup(k).value_or("<miss>"), v);
  }
  std::remove(path.c_str());
}

TEST(ResultCacheFuzz, BitFlipAtEveryOffsetNeverServesWrongPayload) {
  const std::string path = temp_path("fuzz_flip");
  const std::vector<std::pair<std::uint64_t, std::string>> entries = {
      {0xA1, "12 34 56"}, {0xB2, "9999 1 0"}};
  {
    service::ResultCache cache(path);
    for (const auto& [k, v] : entries) cache.insert(k, v);
  }
  const std::string full = read_file(path);
  for (std::size_t off = 0; off < full.size(); ++off) {
    std::string damaged = full;
    damaged[off] = static_cast<char>(damaged[off] ^ 0xFF);
    write_file(path, damaged);
    service::ResultCache cache(path);
    for (const auto& [k, v] : entries) {
      const auto hit = cache.lookup(k);
      if (hit.has_value()) {
        EXPECT_EQ(*hit, v) << "flipped offset " << off;
      }
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SolveService end to end.
// ---------------------------------------------------------------------------

service::ServiceConfig small_service(unsigned threads = 1) {
  service::ServiceConfig cfg;
  cfg.threads = threads;
  cfg.retry = service::RetryPolicy{3, 8, 0x5EEDULL};
  return cfg;
}

TEST(SolveService, EveryRequestIsAccountedFor) {
  service::SolveService svc(small_service());
  const auto trace = service::random_trace(4242, 48, 3);
  const auto resp = svc.run_trace(trace);
  ASSERT_EQ(resp.size(), trace.size());
  const auto& c = svc.counters();
  EXPECT_EQ(c.ok + c.cache_hits + c.coalesced + c.budget_exhausted + c.shed +
                c.rejected + c.failed,
            trace.size());
  EXPECT_EQ(c.admitted + c.shed + c.rejected, trace.size());
  for (std::size_t i = 0; i < resp.size(); ++i) {
    EXPECT_EQ(resp[i].request_id, trace[i].id);
    if (resp[i].status == service::ResponseStatus::kOk) {
      EXPECT_GT(resp[i].nodes_expanded, 0u) << i;
      EXPECT_GT(resp[i].attempts, 0u) << i;
    }
    if (resp[i].status == service::ResponseStatus::kShed ||
        resp[i].status == service::ResponseStatus::kRejected) {
      EXPECT_FALSE(resp[i].note.empty()) << i;
    }
  }
}

TEST(SolveService, ResponseLogIsByteIdenticalAcrossHostThreads) {
  const auto trace = service::random_trace(77, 40, 4);
  const fault::ServiceFaultPlan plan =
      fault::ServiceFaultPlan::random(5150, trace.size(), 4, 2, 2);
  std::string reference;
  service::ServiceCounters ref_counters;
  for (const unsigned threads : {1u, 2u, 8u}) {
    service::SolveService svc(small_service(threads));
    svc.arm_faults(plan);
    const std::string log = service::SolveService::response_log(
        svc.run_trace(trace));
    if (reference.empty()) {
      reference = log;
      ref_counters = svc.counters();
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(log, reference) << "threads=" << threads;
      EXPECT_EQ(svc.counters(), ref_counters) << "threads=" << threads;
    }
  }
}

TEST(SolveService, ScriptedCrashesRetryWithChargedBackoff) {
  std::vector<service::Request> trace;
  for (std::uint64_t i = 0; i < 6; ++i) {
    trace.push_back(make_req(i, i, service::Priority::kStandard));
    trace.back().instance_seed = 100 + i;  // distinct keys, no coalescing
  }
  // Request 6 is identical to request 5, so it coalesces onto it.
  trace.push_back(make_req(6, 6, service::Priority::kStandard));
  trace.back().instance_seed = 105;
  // Request 2 crashes twice (recoverable), request 4 five times and request
  // 5 exactly max_attempts=3 times (both fatal).
  std::vector<fault::ServiceFaultEvent> events = {
      {2, fault::ServiceFaultKind::kEngineCrash, 2},
      {4, fault::ServiceFaultKind::kEngineCrash, 5},
      {5, fault::ServiceFaultKind::kEngineCrash, 3}};
  service::SolveService svc(small_service());
  svc.arm_faults(fault::ServiceFaultPlan(events));
  const auto resp = svc.run_trace(trace);

  EXPECT_EQ(resp[2].status, service::ResponseStatus::kOk);
  EXPECT_EQ(resp[2].attempts, 3u);
  // The virtual backoff charge is the pinned pure schedule, salted by the
  // execution slot (slot == trace position here: no dedup before request 6,
  // all admitted).
  const auto& retry = svc.config().retry;
  EXPECT_EQ(resp[2].backoff_ms_total,
            service::backoff_delay_ms(retry, 1, 2) +
                service::backoff_delay_ms(retry, 2, 2));
  EXPECT_GT(resp[2].backoff_ms_total, 0u);
  EXPECT_GT(resp[2].nodes_expanded, 0u);

  EXPECT_EQ(resp[4].status, service::ResponseStatus::kFailed);
  EXPECT_EQ(resp[4].attempts, 3u);
  EXPECT_EQ(resp[4].note,
            "retries exhausted: scripted engine crash [request=4 attempt=3 "
            "of 5]");

  // As many crashes as attempts: the leader gives up after max_attempts
  // attempts and is charged exactly the max_attempts - 1 delays between.
  EXPECT_EQ(resp[5].status, service::ResponseStatus::kFailed);
  EXPECT_EQ(resp[5].attempts, 3u);
  EXPECT_EQ(resp[5].backoff_ms_total,
            service::backoff_delay_ms(retry, 1, 5) +
                service::backoff_delay_ms(retry, 2, 5));
  EXPECT_EQ(resp[5].nodes_expanded, 0u);
  // Its follower shares the failure without executing anything.
  EXPECT_EQ(resp[6].status, service::ResponseStatus::kFailed);
  EXPECT_EQ(resp[6].attempts, 0u);
  EXPECT_EQ(resp[6].backoff_ms_total, 0u);
  EXPECT_EQ(resp[6].note.rfind(
                "coalesced leader's retries exhausted: scripted engine crash",
                0),
            0u)
      << resp[6].note;

  EXPECT_EQ(svc.counters().retries, 6u);  // 2 recoverable + 2 + 2 fatal-path
  EXPECT_EQ(svc.counters().failed, 3u);
  EXPECT_EQ(svc.counters().ok, 4u);

  // A crash scripted on the follower's own position changes nothing: it
  // never executes.
  const std::string log = service::SolveService::response_log(resp);
  const service::ServiceCounters counters = svc.counters();
  events.push_back({6, fault::ServiceFaultKind::kEngineCrash, 1});
  svc.arm_faults(fault::ServiceFaultPlan(events));
  EXPECT_EQ(service::SolveService::response_log(svc.run_trace(trace)), log);
  EXPECT_EQ(svc.counters(), counters);
}

TEST(SolveService, DeadlineBudgetYieldsTypedExhaustion) {
  std::vector<service::Request> trace = {
      make_req(0, 0, service::Priority::kStandard)};
  trace[0].instance_size = 12;
  trace[0].cycle_budget = 2;  // far too tight for a depth-12 tree on P=4
  service::SolveService svc(small_service());
  const auto resp = svc.run_trace(trace);
  EXPECT_EQ(resp[0].status, service::ResponseStatus::kBudgetExhausted);
  EXPECT_GT(resp[0].expand_cycles, 0u);
  EXPECT_LE(resp[0].expand_cycles, 2u);
  EXPECT_FALSE(resp[0].note.empty());
  EXPECT_EQ(svc.counters().budget_exhausted, 1u);
}

TEST(SolveService, DegradedRequestsRecordTheirDowngrades) {
  service::ServiceConfig cfg = small_service();
  cfg.admission.engines = 1;
  cfg.admission.queue_capacity = 8;
  cfg.admission.degrade_depth = 2;
  cfg.admission.cycles_per_tick = 1;  // long virtual service times
  service::SolveService svc(cfg);
  std::vector<service::Request> trace;
  for (std::uint64_t i = 0; i < 5; ++i) {
    trace.push_back(make_req(i, 0, service::Priority::kStandard));
    trace.back().instance_seed = 300 + i;
    trace.back().p = 8;
  }
  const auto resp = svc.run_trace(trace);
  bool degraded_seen = false;
  for (const auto& r : resp) {
    if (r.downshifted_p) {
      degraded_seen = true;
      EXPECT_EQ(r.executed_p, 4u);
      EXPECT_TRUE(r.first_solution_forced);
    }
  }
  EXPECT_TRUE(degraded_seen);
  EXPECT_GT(svc.counters().degraded, 0u);
}

TEST(SolveService, IdenticalRequestsCoalesceOntoOneSolve) {
  std::vector<service::Request> trace = {
      make_req(10, 0, service::Priority::kStandard, /*tenant=*/0),
      make_req(11, 0, service::Priority::kStandard, /*tenant=*/1)};
  trace[1].instance_seed = trace[0].instance_seed;  // identical content
  service::SolveService svc(small_service());
  const auto resp = svc.run_trace(trace);
  EXPECT_EQ(resp[0].status, service::ResponseStatus::kOk);
  EXPECT_EQ(resp[1].status, service::ResponseStatus::kCoalesced);
  EXPECT_EQ(resp[1].nodes_expanded, resp[0].nodes_expanded);
  EXPECT_EQ(resp[1].attempts, 0u);
  EXPECT_NE(resp[1].note.find("coalesced with request 10"), std::string::npos)
      << resp[1].note;
  EXPECT_EQ(svc.counters().coalesced, 1u);
}

TEST(SolveService, WarmCacheTurnsSolvesIntoVerifiedHits) {
  const std::string path = temp_path("warm_cache");
  const auto trace = service::random_trace(31337, 24, 2);
  service::ServiceCounters first;
  {
    service::ServiceConfig cfg = small_service();
    cfg.cache_path = path;
    service::SolveService svc(cfg);
    const auto resp = svc.run_trace(trace);
    first = svc.counters();
    ASSERT_GT(first.ok, 0u);
  }
  {
    service::ServiceConfig cfg = small_service();
    cfg.cache_path = path;
    service::SolveService svc(cfg);
    const auto resp = svc.run_trace(trace);
    const auto& second = svc.counters();
    // Every completed solve (and every request that coalesced onto one)
    // replays as a verified cache hit; nothing is recomputed.
    EXPECT_EQ(second.cache_hits, first.ok + first.coalesced);
    EXPECT_EQ(second.cache_hits + second.ok + second.coalesced +
                  second.budget_exhausted + second.failed,
              first.ok + first.coalesced + first.budget_exhausted +
                  first.failed);
    for (std::size_t i = 0; i < resp.size(); ++i) {
      if (resp[i].status == service::ResponseStatus::kCacheHit) {
        EXPECT_GT(resp[i].nodes_expanded, 0u) << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SolveService, CorruptedCacheEntryIsNeverServed) {
  const std::string path = temp_path("corrupt_e2e");
  std::vector<service::Request> trace;
  for (std::uint64_t i = 0; i < 3; ++i) {
    trace.push_back(make_req(i, i, service::Priority::kStandard));
    trace.back().instance_seed = 500 + i;
  }
  service::Response clean_r1;
  {
    service::ServiceConfig cfg = small_service();
    cfg.cache_path = path;
    service::SolveService svc(cfg);
    // Corrupt request 1's entry right after it is cached.
    svc.arm_faults(fault::ServiceFaultPlan({fault::ServiceFaultEvent{
        1, fault::ServiceFaultKind::kCacheCorrupt, 2}}));
    clean_r1 = svc.run_trace(trace)[1];
    ASSERT_EQ(clean_r1.status, service::ResponseStatus::kOk);
  }
  {
    service::ServiceConfig cfg = small_service();
    cfg.cache_path = path;
    service::SolveService svc(cfg);
    const auto resp = svc.run_trace(trace);
    // Requests 0 and 2 hit; request 1's damaged entry is detected, reported,
    // and re-solved — with the same answer as the clean run, never garbage.
    EXPECT_EQ(resp[0].status, service::ResponseStatus::kCacheHit);
    EXPECT_EQ(resp[2].status, service::ResponseStatus::kCacheHit);
    EXPECT_EQ(resp[1].status, service::ResponseStatus::kOk);
    EXPECT_NE(resp[1].note.find("checksum mismatch"), std::string::npos)
        << resp[1].note;
    EXPECT_EQ(resp[1].nodes_expanded, clean_r1.nodes_expanded);
    EXPECT_EQ(svc.counters().cache_corruptions, 1u);
  }
  std::remove(path.c_str());
}

TEST(SolveService, ReplayWithSamePlanIsByteIdentical) {
  const auto trace = service::random_trace(888, 32, 3);
  const auto plan = fault::ServiceFaultPlan::random(999, trace.size(), 3, 1, 1);
  std::string logs[2];
  for (int round = 0; round < 2; ++round) {
    service::SolveService svc(small_service(round == 0 ? 1 : 4));
    svc.arm_faults(plan);
    logs[round] =
        service::SolveService::response_log(svc.run_trace(trace));
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_FALSE(logs[0].empty());
}

// ---------------------------------------------------------------------------
// Retry schedule and cache payload codec.
// ---------------------------------------------------------------------------

// The backoff schedule is a documented contract (the service charges it on
// its virtual clock), so pin the exact sequence at the boundaries: the base
// doubles per retry starting at backoff_ms (retry 1 waits the *base* delay,
// not double it), retry 0 is meaningless and free, and the shift saturates
// instead of running past the integer width.
TEST(ServiceRetry, BackoffSchedulePinnedExactly) {
  const service::RetryPolicy policy{8, 10, 0};
  EXPECT_EQ(service::backoff_delay_ms(policy, 0), 0u);
  EXPECT_EQ(service::backoff_delay_ms(policy, 1), 10u);
  EXPECT_EQ(service::backoff_delay_ms(policy, 2), 20u);
  EXPECT_EQ(service::backoff_delay_ms(policy, 3), 40u);
  EXPECT_EQ(service::backoff_delay_ms(policy, 7), 640u);
  // Saturation: the shift clamps at 32 — no undefined behaviour, and the
  // delay plateaus instead of wrapping.
  EXPECT_EQ(service::backoff_delay_ms(policy, 33),
            10ull << 32);
  EXPECT_EQ(service::backoff_delay_ms(policy, 200),
            service::backoff_delay_ms(policy, 33));
  // Zero base disables backoff entirely.
  EXPECT_EQ(service::backoff_delay_ms(service::RetryPolicy{8, 0, 0}, 3), 0u);
}

TEST(ServiceRetry, SeededJitterIsDeterministicAndBounded) {
  const service::RetryPolicy jittered{5, 10, 0xBADC0FFEULL};
  // Deterministic: the same (policy, retry, salt) always yields the same
  // delay; pin the first few values of this seed so an accidental reseed or
  // mixing change fails loudly.
  const std::uint64_t d1 = service::backoff_delay_ms(jittered, 1, 7);
  const std::uint64_t d2 = service::backoff_delay_ms(jittered, 2, 7);
  EXPECT_EQ(d1, service::backoff_delay_ms(jittered, 1, 7));
  EXPECT_EQ(d2, service::backoff_delay_ms(jittered, 2, 7));
  // Bounded: base <= delay < 2 * base.
  EXPECT_GE(d1, 10u);
  EXPECT_LT(d1, 20u);
  EXPECT_GE(d2, 20u);
  EXPECT_LT(d2, 40u);
  // Salted: two tasks retrying at the same attempt spread out.
  EXPECT_NE(service::backoff_delay_ms(jittered, 1, 0),
            service::backoff_delay_ms(jittered, 1, 1));
}

TEST(CachePayload, RoundTripsAndRejectsMalformed) {
  std::uint64_t n = 0;
  std::uint64_t c = 0;
  std::uint64_t g = 0;
  ASSERT_TRUE(service::decode_cache_payload(
      service::encode_cache_payload(18446744073709551615ULL, 0, 7), n, c, g));
  EXPECT_EQ(n, 18446744073709551615ULL);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(g, 7u);
  // A sign is malformed, not wrapped ("-1" as 2^64 - 1): a miss like any
  // other malformed payload, which leaves the outputs untouched.
  for (const char* bad :
       {"", "1 2", "1 2 3 4", "-1 2 3", "1 -2 3", "1 2 +3", "1 2 3x",
        "18446744073709551616 0 0", "0x1 2 3", "1 2 3 junk"}) {
    EXPECT_FALSE(service::decode_cache_payload(bad, n, c, g)) << bad;
  }
  EXPECT_EQ(n, 18446744073709551615ULL);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(g, 7u);
}

}  // namespace
}  // namespace simdts