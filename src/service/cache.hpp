// Content-addressed result cache: an in-memory map over runtime::Journal.
//
// The cache maps canonical_key(request) to the encoded solve result; every
// insert appends one journal line.  A process killed mid-append leaves a
// torn line that the loader skips: a clean miss, never a garbled hit.
//
// Verified-on-read: lookup() checks the journaled key-seeded checksum before
// serving.  A mismatch (bit rot, a flipped key routing a foreign payload)
// erases the entry, counts a corruption, and reports a
// simdts::CacheCorruptionError diagnostic; the caller re-solves.  The fuzz
// tests pin the invariant: for any byte-level damage to the journal, every
// lookup returns either the exact inserted payload or a miss.
//
// Last-wins on load is what makes corrupt_payload_byte() (the scripted
// kCacheCorrupt fault) durable through an append-only file: it re-appends
// the damaged payload under the original checksum.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "runtime/journal.hpp"

namespace simdts::service {

class ResultCache {
 public:
  /// Opens (and replays) the journal at `path`, creating it and its parent
  /// directories on the first insert.  Torn or malformed lines are skipped,
  /// not errors.
  explicit ResultCache(std::filesystem::path path);

  /// Verified read.  Returns the payload only if its stored checksum
  /// matches; on mismatch the entry is erased, the corruption counted, and
  /// `diagnostic` (if non-null) receives the CacheCorruptionError text.  A
  /// plain miss leaves `diagnostic` untouched.
  [[nodiscard]] std::optional<std::string> lookup(
      std::uint64_t key, std::string* diagnostic = nullptr);

  /// Appends `<key> <checksum> <payload> ok` and updates the in-memory map.
  /// The payload must be newline-free (simdts::InvariantError otherwise).
  void insert(std::uint64_t key, const std::string& payload);

  /// Scripted fault (fault::ServiceFaultKind::kCacheCorrupt): XOR-flips the
  /// low bit of payload byte `byte_offset % size` both in memory and — via an
  /// appended last-wins journal line carrying the *original* checksum — on
  /// disk.  Returns false when the key is absent or its payload empty.
  bool corrupt_payload_byte(std::uint64_t key, std::uint32_t byte_offset);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return journal_.path();
  }
  /// Corrupt entries detected (and erased) by verified reads so far.
  [[nodiscard]] std::uint64_t corruptions_detected() const noexcept {
    return corruptions_detected_;
  }

 private:
  runtime::Journal journal_;
  std::map<std::uint64_t, runtime::Journal::Entry> entries_;
  std::uint64_t corruptions_detected_ = 0;
};

}  // namespace simdts::service
