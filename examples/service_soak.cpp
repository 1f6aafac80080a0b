// Service soak smoke: replay a fixed 500-request mixed trace through the
// solve service with a service-level fault plan armed — engine crashes,
// cache corruptions, queue stalls — and prove the robustness contract end
// to end:
//
//   - the response log is byte-identical across two full replays and across
//     1/2/8 host threads (determinism with faults armed);
//   - every request is accounted for in exactly one terminal status;
//   - the shed/retry/corruption counters are stable, so CI can pin them
//     against a golden (pass it as --expect-counters "<summary>").
//
//   ./build/examples/service_soak [requests] [--expect-counters "<line>"]
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "fault/service_fault.hpp"
#include "service/service.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace simdts;

  std::size_t n = 500;
  std::string expect_counters;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--expect-counters" && i + 1 < argc) {
      expect_counters = argv[++i];
    } else {
      n = std::stoul(arg);
    }
  }

  // Scratch journals live under bench_out/ with the other benchmark
  // artifacts, not at the repo root.
  std::filesystem::create_directories("bench_out");

  const auto trace = service::random_trace(20260808, n, 4);
  const auto plan = fault::ServiceFaultPlan::random(
      424242, trace.size(), /*crashes=*/20, /*corruptions=*/10, /*stalls=*/6);

  service::ServiceConfig cfg;
  cfg.admission.engines = 2;
  cfg.admission.queue_capacity = 6;
  cfg.admission.cycles_per_tick = 256;  // tight enough to exercise shedding
  cfg.admission.degrade_depth = 4;
  cfg.retry = service::RetryPolicy{3, 8, 0x5EEDBACCULL};

  std::string reference_log;
  service::ServiceCounters reference_counters;
  bool ok = true;

  // Replays: two runs at 2 threads (the CI byte-identity check), then 1 and
  // 8 threads (the thread-count sweep).  Each run gets a fresh cache journal
  // so replays see the same cold-cache world.
  const struct {
    const char* label;
    unsigned threads;
  } runs[] = {{"run1(t2)", 2}, {"run2(t2)", 2}, {"t1", 1}, {"t8", 8}};
  for (const auto& r : runs) {
    const std::string cache_path =
        std::string("bench_out/service_soak_cache_") + r.label + ".journal";
    std::remove(cache_path.c_str());
    service::ServiceConfig run_cfg = cfg;
    run_cfg.threads = r.threads;
    run_cfg.cache_path = cache_path;
    service::SolveService svc(run_cfg);
    svc.arm_faults(plan);
    const auto responses = svc.run_trace(trace);
    const std::string log = service::SolveService::response_log(responses);
    const auto& c = svc.counters();

    if (responses.size() != trace.size()) {
      std::cerr << "FATAL: " << r.label << " dropped responses: "
                << responses.size() << " of " << trace.size() << '\n';
      ok = false;
    }
    if (c.ok + c.cache_hits + c.coalesced + c.budget_exhausted + c.shed +
            c.rejected + c.failed !=
        trace.size()) {
      std::cerr << "FATAL: " << r.label
                << " statuses do not partition the trace: " << c.summary()
                << '\n';
      ok = false;
    }
    if (reference_log.empty()) {
      reference_log = log;
      reference_counters = c;
      std::cout << "trace: " << trace.size() << " requests, "
                << plan.events().size() << " fault events\n"
                << "counters: " << c.summary() << '\n'
                << "response log: " << log.size() << " bytes\n";
    } else {
      if (log != reference_log) {
        std::cerr << "FATAL: " << r.label
                  << " response log differs from the reference replay\n";
        ok = false;
      }
      if (!(c == reference_counters)) {
        std::cerr << "FATAL: " << r.label
                  << " counters differ: " << c.summary() << '\n';
        ok = false;
      }
    }
  }

  // Warm-cache replay: reopen run1's journal (which the armed fault plan
  // corrupted in place) and replay the same trace.  Solves must turn into
  // verified hits, and the scripted corruptions must surface as detected
  // checksum mismatches followed by clean re-solves — never a wrong payload.
  {
    service::ServiceConfig warm_cfg = cfg;
    warm_cfg.threads = 2;
    warm_cfg.cache_path = "bench_out/service_soak_cache_run1(t2).journal";
    service::SolveService warm(warm_cfg);
    warm.arm_faults(plan);
    const auto responses = warm.run_trace(trace);
    const auto& c = warm.counters();
    std::cout << "warm replay: " << c.summary() << '\n';
    if (responses.size() != trace.size()) {
      std::cerr << "FATAL: warm replay dropped responses\n";
      ok = false;
    }
    if (c.cache_hits == 0) {
      std::cerr << "FATAL: warm replay produced no verified cache hits\n";
      ok = false;
    }
    if (c.cache_corruptions == 0) {
      std::cerr << "FATAL: warm replay detected no scripted corruption — "
                   "verified-read path untested\n";
      ok = false;
    }
  }

  if (!expect_counters.empty() &&
      reference_counters.summary() != expect_counters) {
    std::cerr << "FATAL: counters drifted from the golden\n  expected: "
              << expect_counters << "\n  actual:   "
              << reference_counters.summary() << '\n';
    ok = false;
  }

  // The robustness headline: shedding, retries, deadline exhaustion, and
  // cache-corruption detection must all actually fire in this soak — a soak
  // that exercises none of the failure paths proves nothing.
  if (reference_counters.shed + reference_counters.rejected == 0) {
    std::cerr << "FATAL: the soak never shed — overload path untested\n";
    ok = false;
  }
  if (reference_counters.retries == 0) {
    std::cerr << "FATAL: the soak never retried — crash path untested\n";
    ok = false;
  }

  std::cout << (ok ? "OK: byte-identical replays across runs and thread "
                     "counts; every request accounted for\n"
                   : "FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
