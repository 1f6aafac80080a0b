#include "runtime/sweep.hpp"

#include <algorithm>
#include <thread>

#include "common/env.hpp"
#include "runtime/journal.hpp"

namespace simdts::runtime {

unsigned sweep_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<unsigned>(common::env_u64(
      "SIMDTS_SWEEP_THREADS", hw > 0 ? hw : 1, kMaxSweepThreads));
}

unsigned sweep_lanes(unsigned threads, std::size_t n) {
  const unsigned wanted = threads == 0 ? sweep_threads() : threads;
  return static_cast<unsigned>(std::clamp<std::size_t>(n, 1, wanted));
}

void run_journaled(
    unsigned threads, std::size_t n, Journal* journal, bool resume,
    const std::function<SlotSize(std::size_t)>& size,
    const std::function<std::uint64_t(std::size_t)>& seed,
    const std::function<bool(std::size_t, const std::string&)>& replay,
    const std::function<std::string(std::size_t)>& task) {
  // Determinism makes the merge exact: a replayed slot is bit-identical to
  // what its re-run would produce.  A damaged entry, or one written under
  // other inputs, fails its checksum and simply re-runs.
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint8_t> done(n, std::uint8_t{0});
  if (journal != nullptr) {
    seeds.reserve(n);
    for (std::size_t k = 0; k < n; ++k) seeds.push_back(seed(k));
    if (resume) {
      for (const auto& [key, entry] : journal->load()) {
        if (key < n && entry.intact(key, seeds[key]) &&
            replay(key, entry.payload)) {
          done[key] = 1;
        }
      }
    }
  }
  // Largest first: the sweep cannot end before its longest slot does, so
  // that slot must not start last.  The order is a pure function of the
  // inputs, which keeps the rethrown exception independent of the lanes.
  std::vector<std::size_t> order;
  std::vector<SlotSize> sizes(n);
  for (std::size_t k = 0; k < n; ++k) {
    if (done[k] != 0) continue;
    order.push_back(k);
    sizes[k] = size(k);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sizes[a] > sizes[b];
                   });
  simd::ThreadPool pool(sweep_lanes(threads, order.size()));
  pool.run(order.size(), [&](std::size_t i) {
    const std::size_t k = order[i];
    const std::string payload = task(k);
    if (journal != nullptr) journal->record(k, payload, seeds[k]);
  });
}

}  // namespace simdts::runtime
