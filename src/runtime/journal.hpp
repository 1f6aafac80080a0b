// The one append-only journal, for sweep checkpoints and the result cache.
//
// One line per record, `<key hex> <checksum hex> <payload> ok`, where the
// checksum is FNV-1a-64 over the payload seeded by the key and the writer's
// seed, so an entry can only vouch for the payload filed under its own key
// and seed.  Sweeps key by slot, seed by a fingerprint of the slot's inputs
// (see runtime::run_journaled), and store bit-exact payloads
// (lb::encode_journal, encode_grid_point); service::ResultCache keys by
// canonical request key, with seed 0.
//
// Only a line that parses whole and ends in the "ok" marker loads, so a
// torn final line (a crash mid-write) is dropped, and the first append after
// a restart ends it so it cannot swallow the next record.  A loaded line
// that does not verify (bit rot, a flipped key) is an entry that is not
// intact(): sweeps re-run its slot, the cache counts a corruption.
//
// The append stream opens on the first record and stays open, flushed after
// every line; concurrent records are serialized and land as whole lines.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace simdts::runtime {

class Journal {
 public:
  struct Entry {
    std::uint64_t checksum = 0;  ///< as stored on the line
    std::string payload;

    /// True when the stored checksum matches checksum(key ^ seed, payload),
    /// i.e. the entry was recorded under this key with this seed.
    [[nodiscard]] bool intact(std::uint64_t key, std::uint64_t seed = 0) const;
  };

  /// Names the journal at `path`; nothing is opened or created until the
  /// first record(), which also creates missing parent directories.
  explicit Journal(std::filesystem::path path);

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

  /// FNV-1a-64 over `payload`, with `key` folded into the offset basis.
  [[nodiscard]] static std::uint64_t checksum(std::uint64_t key,
                                              std::string_view payload);

  /// Parses the journal into key -> last complete entry for that key.  Torn
  /// or malformed lines are skipped; entries are returned unverified (see
  /// Entry::intact).  A missing file yields an empty map.
  [[nodiscard]] std::map<std::uint64_t, Entry> load() const;

  /// Appends `payload` under `key` with its checksum, checksum(key ^ seed,
  /// payload), flushes, and returns the checksum.  Thread-safe.  Throws
  /// simdts::InvariantError for a payload containing a newline and
  /// simdts::Error when the file cannot be written.
  std::uint64_t record(std::uint64_t key, std::string_view payload,
                       std::uint64_t seed = 0);

  /// As record(), but stores `checksum` instead of computing it: the
  /// scripted cache-corruption fault files a damaged payload under its
  /// original checksum.
  void record_with_checksum(std::uint64_t key, std::uint64_t checksum,
                            std::string_view payload);

  /// Closes the stream and deletes the file (a sweep whose CSVs are safely
  /// written).  A missing file is not an error; a later record() starts a
  /// fresh file.
  void remove();

 private:
  std::filesystem::path path_;
  std::mutex mu_;
  std::ofstream out_;
};

/// The sweep-checkpoint name perfbench still uses.
using SweepJournal = Journal;

}  // namespace simdts::runtime
