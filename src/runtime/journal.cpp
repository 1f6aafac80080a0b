#include "runtime/journal.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace simdts::runtime {

bool Journal::Entry::intact(std::uint64_t key, std::uint64_t seed) const {
  return checksum == Journal::checksum(key ^ seed, payload);
}

Journal::Journal(std::filesystem::path path) : path_(std::move(path)) {}

std::uint64_t Journal::checksum(std::uint64_t key, std::string_view payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ key;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::map<std::uint64_t, Journal::Entry> Journal::load() const {
  std::map<std::uint64_t, Entry> entries;
  std::ifstream in(path_);
  std::string line;
  while (std::getline(in, line)) {
    // Only a line that reached its " ok" marker was written whole.
    const std::string_view marker = " ok";
    if (!line.ends_with(marker)) continue;
    const std::string_view body =
        std::string_view(line).substr(0, line.size() - marker.size());
    const std::size_t s1 = body.find(' ');
    if (s1 == std::string_view::npos) continue;
    const std::size_t s2 = body.find(' ', s1 + 1);
    if (s2 == std::string_view::npos) continue;
    std::uint64_t key = 0;
    Entry entry;
    if (!common::parse_uint(body.substr(0, s1), key, 16) ||
        !common::parse_uint(body.substr(s1 + 1, s2 - s1 - 1), entry.checksum,
                            16)) {
      continue;
    }
    entry.payload = body.substr(s2 + 1);
    entries[key] = std::move(entry);  // last entry for a key wins
  }
  return entries;
}

std::uint64_t Journal::record(std::uint64_t key, std::string_view payload,
                              std::uint64_t seed) {
  const std::uint64_t sum = checksum(key ^ seed, payload);
  record_with_checksum(key, sum, payload);
  return sum;
}

void Journal::record_with_checksum(std::uint64_t key, std::uint64_t checksum,
                                   std::string_view payload) {
  if (payload.find('\n') != std::string_view::npos) {
    throw InvariantError("journal payloads must be single-line",
                         path_.string());
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) {
    if (path_.has_parent_path()) {
      std::error_code ec;
      std::filesystem::create_directories(path_.parent_path(), ec);
    }
    // A crash can leave a torn last line; end it so the next record starts
    // on a line of its own.
    bool torn = false;
    if (std::ifstream in(path_, std::ios::ate); in && in.tellg() > 0) {
      in.seekg(-1, std::ios::end);
      torn = in.get() != '\n';
    }
    out_.open(path_, std::ios::app);
    if (torn) out_ << '\n';
  }
  out_ << std::hex << key << ' ' << checksum << ' ' << payload << " ok\n";
  out_.flush();
  if (!out_) throw Error("cannot append to journal [" + path_.string() + "]");
}

void Journal::remove() {
  const std::lock_guard<std::mutex> lock(mu_);
  out_.close();
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

}  // namespace simdts::runtime
