#include "server/disk_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "base/json.h"
#include "base/strings.h"

namespace mcrt {

namespace fs = std::filesystem;

namespace {

// FNV-1a 64: cheap, deterministic, catches torn writes and bit flips. Not
// cryptographic — the threat model is crashes and bad disks, not attackers
// (the cache directory has the same trust level as the daemon binary).
std::uint64_t checksum64(std::string_view a, std::string_view b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  };
  mix(a);
  mix(b);
  return h;
}

std::uint64_t parse_hex64(std::string_view text, bool* ok) {
  std::uint64_t value = 0;
  if (text.empty() || text.size() > 16) {
    *ok = false;
    return 0;
  }
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      *ok = false;
      return 0;
    }
  }
  *ok = true;
  return value;
}

}  // namespace

std::string DiskCache::entry_file_name(const CacheKey& key) {
  return str_format("%016llx%016llx-%016llx.entry",
                    static_cast<unsigned long long>(key.netlist.hi),
                    static_cast<unsigned long long>(key.netlist.lo),
                    static_cast<unsigned long long>(key.flow));
}

std::string DiskCache::encode_entry(const CacheKey& key,
                                    const CachedResult& result) {
  Json meta = Json::object();
  Json key_json = Json::object();
  key_json.set("hi", str_format("%016llx",
                                static_cast<unsigned long long>(key.netlist.hi)));
  key_json.set("lo", str_format("%016llx",
                                static_cast<unsigned long long>(key.netlist.lo)));
  key_json.set("flow",
               str_format("%016llx", static_cast<unsigned long long>(key.flow)));
  meta.set("key", std::move(key_json));
  meta.set("job", job_to_json(result.job));
  const std::string meta_text = meta.write();

  std::string out = str_format(
      "%s meta=%zu blif=%zu sum=%016llx\n", kDiskCacheMagic, meta_text.size(),
      result.blif.size(),
      static_cast<unsigned long long>(checksum64(meta_text, result.blif)));
  out += meta_text;
  out += '\n';
  out += result.blif;
  return out;
}

bool DiskCache::decode_entry(std::string_view bytes, CacheKey* key,
                             CachedResult* result, std::string* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string_view::npos) return fail("missing header line");
  const std::string_view header = bytes.substr(0, header_end);
  const std::string_view magic(kDiskCacheMagic);
  if (header.substr(0, magic.size()) != magic) return fail("bad magic");

  std::size_t meta_len = 0, blif_len = 0;
  unsigned long long sum = 0;
  {
    // " meta=<M> blif=<N> sum=<hex>"
    const std::string header_text(header.substr(magic.size()));
    if (std::sscanf(header_text.c_str(), " meta=%zu blif=%zu sum=%llx",
                    &meta_len, &blif_len, &sum) != 3) {
      return fail("malformed header");
    }
  }
  const std::size_t body = header_end + 1;
  if (bytes.size() != body + meta_len + 1 + blif_len) {
    return fail("truncated entry (length mismatch)");
  }
  const std::string_view meta_text = bytes.substr(body, meta_len);
  if (bytes[body + meta_len] != '\n') return fail("malformed payload framing");
  const std::string_view blif = bytes.substr(body + meta_len + 1, blif_len);
  if (checksum64(meta_text, blif) != sum) return fail("checksum mismatch");

  auto parsed = Json::parse(meta_text);
  if (std::holds_alternative<JsonParseError>(parsed)) {
    return fail("malformed meta JSON");
  }
  const Json& meta = std::get<Json>(parsed);
  const Json& key_json = meta.at("key");
  bool ok_hi = false, ok_lo = false, ok_flow = false;
  CacheKey decoded;
  decoded.netlist.hi = parse_hex64(key_json.at("hi").as_string(), &ok_hi);
  decoded.netlist.lo = parse_hex64(key_json.at("lo").as_string(), &ok_lo);
  decoded.flow = parse_hex64(key_json.at("flow").as_string(), &ok_flow);
  if (!ok_hi || !ok_lo || !ok_flow) return fail("malformed key");
  if (result != nullptr) {
    std::optional<BulkJobResult> job = job_from_json(meta.at("job"));
    if (!job) return fail("malformed job record");
    result->job = std::move(*job);
    result->blif = std::string(blif);
  }
  if (key != nullptr) *key = decoded;
  return true;
}

DiskCache::DiskCache(std::string directory, std::size_t capacity_bytes,
                     std::uint64_t ttl_seconds, FaultInjector* faults)
    : directory_(std::move(directory)),
      capacity_bytes_(capacity_bytes),
      ttl_seconds_(ttl_seconds),
      faults_(faults) {}

bool DiskCache::expired_locked(fs::file_time_type mtime,
                               fs::file_time_type now) const {
  if (ttl_seconds_ == 0) return false;
  // A future mtime (clock skew, copied directory) counts as fresh.
  return now > mtime && now - mtime >= std::chrono::seconds(ttl_seconds_);
}

FaultInjector& DiskCache::injector() const {
  return faults_ != nullptr ? *faults_ : FaultInjector::global();
}

std::string DiskCache::path_of(const std::string& file_name) const {
  return directory_ + "/" + file_name;
}

bool DiskCache::open(std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  counters_ = DiskCacheStats{};
  counters_.capacity_bytes = capacity_bytes_;

  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create " + directory_ + ": " + ec.message();
    }
    return false;
  }
  fs::create_directories(directory_ + "/quarantine", ec);

  // Recovery scan. Oldest-first so the LRU list ends up hottest-first.
  struct Found {
    fs::file_time_type mtime;
    std::string name;
    CacheKey key;
    std::size_t bytes = 0;
  };
  std::vector<Found> found;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      // A crash mid-write: the rename never happened, the bytes are
      // garbage by definition. Delete.
      std::error_code ignore;
      fs::remove(entry.path(), ignore);
      continue;
    }
    if (name.size() < 6 || name.substr(name.size() - 6) != ".entry") continue;

    std::string bytes;
    bool read_ok = false;
    if (FILE* file = std::fopen(entry.path().c_str(), "rb")) {
      char chunk[1 << 16];
      std::size_t n = 0;
      while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
        bytes.append(chunk, n);
      }
      read_ok = std::ferror(file) == 0;
      std::fclose(file);
    }
    CacheKey key;
    std::string why;
    if (!read_ok || !decode_entry(bytes, &key, nullptr, &why) ||
        entry_file_name(key) != name) {
      quarantine_locked(name);
      continue;
    }
    const fs::file_time_type mtime = entry.last_write_time();
    if (expired_locked(mtime, fs::file_time_type::clock::now())) {
      // Aged out while the daemon was down. Age is not corruption: delete
      // instead of quarantining.
      std::error_code ignore;
      fs::remove(entry.path(), ignore);
      ++counters_.expired;
      continue;
    }
    found.push_back(Found{mtime, name, key, bytes.size()});
  }
  if (ec) {
    if (error != nullptr) {
      *error = "cannot scan " + directory_ + ": " + ec.message();
    }
    return false;
  }
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) {
              return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
            });
  for (const Found& entry : found) {
    lru_.push_front(Entry{entry.key, entry.bytes});
    index_[entry.key] = lru_.begin();
    bytes_ += entry.bytes;
  }
  evict_to_fit_locked();
  open_ = true;
  return true;
}

std::optional<CachedResult> DiskCache::lookup(const CacheKey& key,
                                              const CancelToken* cancel,
                                              bool count_miss) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_ || capacity_bytes_ == 0) {
    if (count_miss) ++counters_.misses;
    return std::nullopt;
  }
  auto it = index_.find(key);
  if (it == index_.end()) {
    if (count_miss) ++counters_.misses;
    return std::nullopt;
  }
  const std::string name = entry_file_name(key);
  if (ttl_seconds_ > 0) {
    // The file's mtime, not an indexed timestamp, is the TTL epoch — it
    // stays honest if another process rewrites or backdates the entry.
    std::error_code ec;
    const fs::file_time_type mtime = fs::last_write_time(path_of(name), ec);
    if (!ec && expired_locked(mtime, fs::file_time_type::clock::now())) {
      // Aged out since insertion: delete before reading a single byte so a
      // stale result can never be served.
      std::error_code ignore;
      fs::remove(path_of(name), ignore);
      erase_index_locked(key);
      ++counters_.expired;
      if (count_miss) ++counters_.misses;
      return std::nullopt;
    }
  }

  std::string bytes;
  bool read_ok = false;
  if (FILE* file = std::fopen(path_of(name).c_str(), "rb")) {
    char chunk[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
      bytes.append(chunk, n);
    }
    read_ok = std::ferror(file) == 0;
    std::fclose(file);
  }

  switch (injector().fire("io:read:" + name)) {
    case FaultInjector::Action::kNone:
      break;
    case FaultInjector::Action::kCorrupt:
      // Bit rot between write and read; the checksum must catch it.
      if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x40;
      break;
    case FaultInjector::Action::kStall:
      while (cancel_requested(cancel) == StopReason::kNone) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      [[fallthrough]];
    case FaultInjector::Action::kThrow:
    case FaultInjector::Action::kFail:
    case FaultInjector::Action::kShortWrite:
    case FaultInjector::Action::kFsyncFail:
    case FaultInjector::Action::kEnospc:
      read_ok = false;  // transient read failure: miss, entry kept
      break;
  }
  if (!read_ok) {
    ++counters_.misses;
    return std::nullopt;
  }

  CachedResult result;
  std::string why;
  CacheKey decoded;
  if (!decode_entry(bytes, &decoded, &result, &why) || decoded != key) {
    // Verification failed: this entry must never be served again.
    quarantine_locked(name);
    erase_index_locked(key);
    ++counters_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++counters_.hits;
  return result;
}

void DiskCache::insert(const CacheKey& key, const CachedResult& result,
                       const CancelToken* cancel) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_ || capacity_bytes_ == 0) return;
  if (result.job.status != JobStatus::kOk) return;
  const std::string encoded = encode_entry(key, result);
  if (encoded.size() > capacity_bytes_) return;
  const std::string name = entry_file_name(key);
  const std::string target = path_of(name);
  const std::string temp = target + ".tmp";

  std::size_t write_bytes = encoded.size();
  bool publish_torn = false;
  switch (injector().fire("io:write:" + name)) {
    case FaultInjector::Action::kNone:
      break;
    case FaultInjector::Action::kShortWrite:
      // Model a crash after rename but before the page cache flushed: the
      // entry is published torn. The next scan or read quarantines it.
      write_bytes = encoded.size() / 2;
      publish_torn = true;
      break;
    case FaultInjector::Action::kEnospc:
    case FaultInjector::Action::kFsyncFail:
    case FaultInjector::Action::kThrow:
    case FaultInjector::Action::kFail:
      ++counters_.write_failures;
      return;
    case FaultInjector::Action::kStall:
      // The chaos harness's kill-mid-write point: SIGKILL lands here with
      // the .tmp (or nothing) on disk, never a half-renamed entry.
      for (;;) {
        poll_cancel(cancel);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    case FaultInjector::Action::kCorrupt:
      break;  // corrupt is a read-side action; write proceeds
  }

  std::error_code ec;
  FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) {
    ++counters_.write_failures;
    return;
  }
  const std::size_t written = std::fwrite(encoded.data(), 1, write_bytes, file);
  const bool write_ok = std::fclose(file) == 0 && written == write_bytes;
  if (!write_ok) {
    fs::remove(temp, ec);
    ++counters_.write_failures;
    return;
  }
  fs::rename(temp, target, ec);
  if (ec) {
    fs::remove(temp, ec);
    ++counters_.write_failures;
    return;
  }

  if (publish_torn) {
    // The file exists but is torn; count the failure and index it anyway —
    // exactly what a real crash leaves behind for recovery to catch.
    ++counters_.write_failures;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Entry{key, write_bytes});
  index_[key] = lru_.begin();
  bytes_ += write_bytes;
  ++counters_.insertions;
  evict_to_fit_locked();
}

void DiskCache::quarantine_locked(const std::string& file_name) {
  std::error_code ec;
  fs::rename(path_of(file_name), directory_ + "/quarantine/" + file_name, ec);
  if (ec) fs::remove(path_of(file_name), ec);  // worst case: drop it
  ++counters_.quarantined;
}

void DiskCache::erase_index_locked(const CacheKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  bytes_ -= it->second->bytes;
  lru_.erase(it->second);
  index_.erase(it);
}

void DiskCache::evict_to_fit_locked() {
  while (bytes_ > capacity_bytes_ && !lru_.empty()) {
    const Entry& cold = lru_.back();
    std::error_code ec;
    fs::remove(path_of(entry_file_name(cold.key)), ec);
    bytes_ -= cold.bytes;
    index_.erase(cold.key);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

DiskCacheStats DiskCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  DiskCacheStats stats = counters_;
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  stats.capacity_bytes = capacity_bytes_;
  return stats;
}

}  // namespace mcrt
