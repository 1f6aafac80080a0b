#include "service/cache.hpp"

#include <utility>

#include "common/error.hpp"

namespace simdts::service {

ResultCache::ResultCache(std::filesystem::path path)
    : journal_(std::move(path)), entries_(journal_.load()) {}

std::optional<std::string> ResultCache::lookup(std::uint64_t key,
                                               std::string* diagnostic) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  if (!it->second.intact(key)) {
    ++corruptions_detected_;
    if (diagnostic != nullptr) {
      *diagnostic =
          CacheCorruptionError(key, "checksum mismatch on lookup").what();
    }
    entries_.erase(it);
    return std::nullopt;
  }
  return it->second.payload;
}

void ResultCache::insert(std::uint64_t key, const std::string& payload) {
  const std::uint64_t checksum = journal_.record(key, payload);
  entries_[key] = {checksum, payload};
}

bool ResultCache::corrupt_payload_byte(std::uint64_t key,
                                       std::uint32_t byte_offset) {
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.payload.empty()) return false;
  std::string& payload = it->second.payload;
  // XOR with 1 keeps the byte printable (payloads are digits and spaces), so
  // the journal line itself stays well-formed — the damage is semantic, for
  // the checksum to catch, not a torn line for the loader to skip.
  payload[byte_offset % payload.size()] ^= 0x01;
  journal_.record_with_checksum(key, it->second.checksum, payload);
  return true;
}

}  // namespace simdts::service
