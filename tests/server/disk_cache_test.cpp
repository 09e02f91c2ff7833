// DiskCache: entry encode/decode round-trip, the startup recovery scan
// over seeded torn/truncated/bit-flipped entries, read-time quarantine,
// size-budgeted eviction and the io:-site fault injection paths.
#include "server/disk_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "base/fault_injector.h"
#include "pipeline/job_executor.h"

namespace mcrt {
namespace {

namespace fs = std::filesystem;

CacheKey make_key(std::uint64_t hi, std::uint64_t lo, std::uint64_t flow) {
  CacheKey key;
  key.netlist.hi = hi;
  key.netlist.lo = lo;
  key.flow = flow;
  return key;
}

CachedResult make_result(const std::string& name, std::size_t pad = 0) {
  CachedResult result;
  result.job.name = name;
  result.job.input_path = "<inline>";
  result.job.success = true;
  result.job.status = JobStatus::kOk;
  result.job.seconds = 0.125;
  result.job.before.luts = 7;
  result.job.before.registers = 3;
  result.job.after.luts = 5;
  result.job.after.registers = 3;
  result.job.period_before = 40;
  result.job.period_after = 30;
  PassExecution pass;
  pass.name = "retime";
  pass.seconds = 0.0625;
  pass.success = true;
  pass.summary = "period 40 -> 30";
  result.job.executed.push_back(pass);
  Diagnostic diag;
  diag.severity = DiagSeverity::kNote;
  diag.origin = "retime";
  diag.message = "relocated 2 registers";
  result.job.diagnostics.push_back(diag);
  result.blif = ".model m\n.inputs a\n.outputs y\n" + std::string(pad, '#') +
                "\n.end\n";
  return result;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / ("disk_cache_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

TEST(DiskCacheTest, EncodeDecodeRoundTripsEveryJobField) {
  const CacheKey key = make_key(0x0123456789abcdefULL, 0xfedcba9876543210ULL,
                                0xdeadbeefcafef00dULL);
  const CachedResult original = make_result("roundtrip");
  const std::string bytes = DiskCache::encode_entry(key, original);

  CacheKey decoded_key;
  CachedResult decoded;
  std::string error;
  ASSERT_TRUE(DiskCache::decode_entry(bytes, &decoded_key, &decoded, &error))
      << error;
  EXPECT_EQ(decoded_key, key);
  EXPECT_EQ(decoded.blif, original.blif);
  EXPECT_EQ(decoded.job.name, original.job.name);
  EXPECT_EQ(decoded.job.input_path, original.job.input_path);
  EXPECT_TRUE(decoded.job.success);
  EXPECT_EQ(decoded.job.status, JobStatus::kOk);
  EXPECT_EQ(decoded.job.seconds, original.job.seconds);  // %.17g round-trip
  EXPECT_EQ(decoded.job.before.luts, original.job.before.luts);
  EXPECT_EQ(decoded.job.after.luts, original.job.after.luts);
  EXPECT_EQ(decoded.job.period_before, 40);
  EXPECT_EQ(decoded.job.period_after, 30);
  ASSERT_EQ(decoded.job.executed.size(), 1u);
  EXPECT_EQ(decoded.job.executed[0].name, "retime");
  EXPECT_EQ(decoded.job.executed[0].summary, "period 40 -> 30");
  ASSERT_EQ(decoded.job.diagnostics.size(), 1u);
  EXPECT_EQ(decoded.job.diagnostics[0].message, "relocated 2 registers");
}

// An entry byte for byte as an earlier daemon build wrote it. The entry
// format is persistent: existing cache directories must keep decoding, and
// re-encoding the decoded result must reproduce the same bytes.
constexpr std::string_view kPinnedEntry = R"entry(mcrt-disk-cache/1 meta=731 blif=53 sum=300bb92749f556f6
{"key":{"hi":"0123456789abcdef","lo":"fedcba9876543210","flow":"00000000cafef00d"},"job":{"name":"r03","input":"testdata/corpus/r03.blif","output":"out/r03.blif","success":true,"status":"ok","error":"","seconds":0.30000000000000004,"before":{"luts":47,"registers":28},"after":{"luts":47,"registers":30},"period_before":30,"period_after":24,"passes":[{"name":"sweep","seconds":0.25,"success":true,"rolled_back":false,"summary":"removed 1\tnodes"},{"name":"retime","seconds":0.33333333333333331,"success":true,"rolled_back":false,"summary":"period 30 -> 24\n(attempts=3)"}],"diagnostics":[{"severity":"note","origin":"sweep","message":"removed 1 nodes"},{"severity":"warning","origin":"retime","message":"clock \"c1\" is derived"}]}}
.model mcrt
.inputs a
.outputs y
.names a y
1 1
.end
)entry";

TEST(DiskCacheTest, DecodesPinnedEntryAndReencodesItByteForByte) {
  CacheKey key;
  CachedResult result;
  std::string error;
  ASSERT_TRUE(DiskCache::decode_entry(kPinnedEntry, &key, &result, &error))
      << error;
  EXPECT_EQ(key, make_key(0x0123456789abcdefULL, 0xfedcba9876543210ULL,
                          0x00000000cafef00dULL));
  const BulkJobResult& job = result.job;
  EXPECT_EQ(job.name, "r03");
  EXPECT_EQ(job.input_path, "testdata/corpus/r03.blif");
  EXPECT_EQ(job.output_path, "out/r03.blif");
  EXPECT_TRUE(job.success);
  EXPECT_EQ(job.status, JobStatus::kOk);
  EXPECT_EQ(job.seconds, 0.1 + 0.2);
  EXPECT_EQ(job.before.luts, 47u);
  EXPECT_EQ(job.after.registers, 30u);
  EXPECT_EQ(job.period_before, 30);
  EXPECT_EQ(job.period_after, 24);
  ASSERT_EQ(job.executed.size(), 2u);
  EXPECT_EQ(job.executed[0].summary, "removed 1\tnodes");
  EXPECT_EQ(job.executed[1].seconds, 1.0 / 3.0);
  EXPECT_EQ(job.executed[1].summary, "period 30 -> 24\n(attempts=3)");
  ASSERT_EQ(job.diagnostics.size(), 2u);
  EXPECT_EQ(job.diagnostics[1].severity, DiagSeverity::kWarning);
  EXPECT_EQ(job.diagnostics[1].message, "clock \"c1\" is derived");
  EXPECT_EQ(result.blif,
            ".model mcrt\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n");
  EXPECT_EQ(DiskCache::encode_entry(key, result), kPinnedEntry);
}

TEST(DiskCacheTest, DecodeRejectsTamperedBytes) {
  const CacheKey key = make_key(1, 2, 3);
  std::string bytes = DiskCache::encode_entry(key, make_result("tamper"));
  CacheKey out_key;
  CachedResult out;
  std::string error;

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_FALSE(DiskCache::decode_entry(flipped, &out_key, &out, &error));
  EXPECT_FALSE(error.empty());

  EXPECT_FALSE(DiskCache::decode_entry(bytes.substr(0, bytes.size() / 2),
                                       &out_key, &out, &error));
  EXPECT_FALSE(DiskCache::decode_entry("junk", &out_key, &out, &error));
  EXPECT_FALSE(DiskCache::decode_entry("", &out_key, &out, &error));
}

TEST(DiskCacheTest, InsertLookupPersistsAcrossReopen) {
  const std::string dir = fresh_dir("reopen");
  const CacheKey key = make_key(10, 20, 30);
  const CachedResult result = make_result("persist");
  {
    DiskCache cache(dir, 1 << 20);
    std::string error;
    ASSERT_TRUE(cache.open(&error)) << error;
    cache.insert(key, result);
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->blif, result.blif);
    EXPECT_EQ(cache.stats().hits, 1u);
  }
  // A second instance on the same directory recovers the entry by scan.
  DiskCache cache(dir, 1 << 20);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  EXPECT_EQ(cache.stats().entries, 1u);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->job.name, "persist");
  EXPECT_FALSE(cache.lookup(make_key(7, 7, 7)).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DiskCacheTest, RecoveryScanQuarantinesSeededBadEntries) {
  const std::string dir = fresh_dir("recovery");
  const CacheKey good_key = make_key(1, 1, 1);
  {
    DiskCache cache(dir, 1 << 20);
    std::string error;
    ASSERT_TRUE(cache.open(&error)) << error;
    cache.insert(good_key, make_result("good"));
  }
  // Seed the crash menagerie next to the good entry: a torn (truncated)
  // entry, a bit-flipped entry, a file that is not an entry at all, and a
  // stray .tmp from a crash mid-write.
  const CacheKey torn_key = make_key(2, 2, 2);
  const std::string torn = DiskCache::encode_entry(torn_key, make_result("t"));
  write_file(dir + "/" + DiskCache::entry_file_name(torn_key),
             torn.substr(0, torn.size() * 2 / 3));
  const CacheKey flip_key = make_key(3, 3, 3);
  std::string flipped = DiskCache::encode_entry(flip_key, make_result("f"));
  flipped[flipped.size() - 5] ^= 0x20;
  write_file(dir + "/" + DiskCache::entry_file_name(flip_key), flipped);
  const CacheKey junk_key = make_key(4, 4, 4);
  write_file(dir + "/" + DiskCache::entry_file_name(junk_key), "not an entry");
  write_file(dir + "/crash.entry.tmp", "partial");

  DiskCache cache(dir, 1 << 20);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  const DiskCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.quarantined, 3u);
  EXPECT_TRUE(cache.lookup(good_key).has_value());
  EXPECT_FALSE(cache.lookup(torn_key).has_value());
  EXPECT_FALSE(cache.lookup(flip_key).has_value());
  // Quarantined files are preserved as evidence, the .tmp is deleted.
  EXPECT_TRUE(fs::exists(dir + "/quarantine/" +
                         DiskCache::entry_file_name(flip_key)));
  EXPECT_FALSE(fs::exists(dir + "/crash.entry.tmp"));
}

TEST(DiskCacheTest, MismatchedFileNameIsQuarantinedOnScan) {
  const std::string dir = fresh_dir("misfile");
  // A valid entry stored under the wrong key's file name must not be
  // served for that key.
  const CacheKey real_key = make_key(5, 5, 5);
  const CacheKey wrong_key = make_key(6, 6, 6);
  {
    DiskCache seeded(dir, 1 << 20);
    std::string error;
    ASSERT_TRUE(seeded.open(&error)) << error;
  }
  write_file(dir + "/" + DiskCache::entry_file_name(wrong_key),
             DiskCache::encode_entry(real_key, make_result("misplaced")));
  DiskCache cache(dir, 1 << 20);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_FALSE(cache.lookup(wrong_key).has_value());
}

TEST(DiskCacheTest, ReadTimeCorruptionQuarantinesAndMisses) {
  const std::string dir = fresh_dir("readrot");
  const CacheKey key = make_key(8, 8, 8);
  DiskCache cache(dir, 1 << 20);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  cache.insert(key, make_result("rot"));
  // Bit rot after the scan: flip a byte in place, then look up.
  const std::string path = dir + "/" + DiskCache::entry_file_name(key);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x10;
  write_file(path, bytes);

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(path));
  // The quarantine is sticky: the entry is out of the index for good.
  EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(DiskCacheTest, EvictsColdestPastByteBudget) {
  const std::string dir = fresh_dir("evict");
  const CacheKey a = make_key(1, 0, 0);
  const CacheKey b = make_key(2, 0, 0);
  const CacheKey c = make_key(3, 0, 0);
  // Budget sized from the real encoded entry: two fit, three do not.
  const std::size_t entry_bytes =
      DiskCache::encode_entry(a, make_result("a", 2000)).size();
  const std::size_t budget = entry_bytes * 5 / 2;
  DiskCache cache(dir, budget);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  cache.insert(a, make_result("a", 2000));
  cache.insert(b, make_result("b", 2000));
  EXPECT_TRUE(cache.lookup(a).has_value());  // refresh a: b is now coldest
  cache.insert(c, make_result("c", 2000));
  const DiskCacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, budget);
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_TRUE(cache.lookup(a).has_value());
  EXPECT_TRUE(cache.lookup(c).has_value());
}

TEST(DiskCacheTest, OversizedEntryAndZeroCapacityAreDropped) {
  const std::string dir = fresh_dir("oversize");
  DiskCache cache(dir, 100);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  const CacheKey key = make_key(9, 9, 9);
  cache.insert(key, make_result("big", 4000));  // larger than the budget
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.lookup(key).has_value());

  DiskCache disabled(fresh_dir("disabled"), 0);
  ASSERT_TRUE(disabled.open(&error)) << error;
  disabled.insert(key, make_result("nope"));
  EXPECT_FALSE(disabled.lookup(key).has_value());
}

TEST(DiskCacheTest, NonOkResultsAreNeverPersisted) {
  const std::string dir = fresh_dir("failed");
  DiskCache cache(dir, 1 << 20);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  CachedResult failed = make_result("failed");
  failed.job.success = false;
  failed.job.status = JobStatus::kFailed;
  cache.insert(make_key(1, 2, 3), failed);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(DiskCacheTest, InjectedShortWritePublishesTornEntryCaughtOnRead) {
  const std::string dir = fresh_dir("shortwrite");
  FaultInjector faults;
  std::string spec_error;
  ASSERT_TRUE(faults.configure("io:write:*=short-write@1", &spec_error))
      << spec_error;
  DiskCache cache(dir, 1 << 20, /*ttl_seconds=*/0, &faults);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  const CacheKey key = make_key(11, 11, 11);
  cache.insert(key, make_result("torn"));
  // The torn bytes hit the disk (exactly what a crash leaves); the read
  // verification must quarantine them instead of serving garbage.
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);

  // The fault was one-shot; the next insert persists cleanly.
  cache.insert(key, make_result("torn"));
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(DiskCacheTest, InjectedWriteFailuresAreCountedAndSwallowed) {
  const std::string dir = fresh_dir("enospc");
  FaultInjector injector;
  std::string spec_error;
  ASSERT_TRUE(injector.configure("io:write:*=enospc", &spec_error))
      << spec_error;
  DiskCache cache(dir, 1 << 20, /*ttl_seconds=*/0, &injector);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  const CacheKey key = make_key(12, 12, 12);
  cache.insert(key, make_result("lost"));
  EXPECT_EQ(cache.stats().write_failures, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_FALSE(fs::exists(dir + "/" + DiskCache::entry_file_name(key)));
}

TEST(DiskCacheTest, InjectedReadCorruptionIsCaughtByChecksum) {
  const std::string dir = fresh_dir("readfault");
  FaultInjector faults;
  std::string spec_error;
  ASSERT_TRUE(faults.configure("io:read:*=corrupt@1", &spec_error))
      << spec_error;
  DiskCache cache(dir, 1 << 20, /*ttl_seconds=*/0, &faults);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  const CacheKey key = make_key(13, 13, 13);
  cache.insert(key, make_result("bitrot"));
  // First read sees flipped bytes -> quarantined, miss, never served.
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
}

/// Backdates an entry file so a TTL of `ttl_s` seconds sees it as stale.
void backdate_entry(const std::string& path, std::uint64_t age_s) {
  std::error_code ec;
  fs::last_write_time(
      path, fs::file_time_type::clock::now() - std::chrono::seconds(age_s),
      ec);
  ASSERT_FALSE(ec) << path << ": " << ec.message();
}

TEST(DiskCacheTest, TtlExpiresStaleEntriesOnRecoveryScan) {
  const std::string dir = fresh_dir("ttl_scan");
  const CacheKey stale_key = make_key(1, 1, 1);
  const CacheKey fresh_key = make_key(2, 2, 2);
  {
    DiskCache cache(dir, 1 << 20);
    std::string error;
    ASSERT_TRUE(cache.open(&error)) << error;
    cache.insert(stale_key, make_result("stale"));
    cache.insert(fresh_key, make_result("fresh"));
  }
  backdate_entry(dir + "/" + DiskCache::entry_file_name(stale_key), 7200);

  DiskCache cache(dir, 1 << 20, /*ttl_seconds=*/3600);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  const DiskCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.quarantined, 0u);  // age is not corruption
  // The stale file is deleted outright, not quarantined.
  EXPECT_FALSE(
      fs::exists(dir + "/" + DiskCache::entry_file_name(stale_key)));
  EXPECT_FALSE(fs::exists(dir + "/quarantine/" +
                          DiskCache::entry_file_name(stale_key)));
  EXPECT_FALSE(cache.lookup(stale_key).has_value());
  EXPECT_TRUE(cache.lookup(fresh_key).has_value());
}

TEST(DiskCacheTest, TtlExpiresOnLookupWithoutServingStaleBytes) {
  const std::string dir = fresh_dir("ttl_lookup");
  const CacheKey key = make_key(3, 3, 3);
  DiskCache cache(dir, 1 << 20, /*ttl_seconds=*/3600);
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  cache.insert(key, make_result("ages_out"));
  ASSERT_TRUE(cache.lookup(key).has_value());
  // Time passes (modeled by backdating the file past the TTL).
  backdate_entry(dir + "/" + DiskCache::entry_file_name(key), 7200);
  EXPECT_FALSE(cache.lookup(key).has_value());
  const DiskCacheStats stats = cache.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_FALSE(fs::exists(dir + "/" + DiskCache::entry_file_name(key)));
  // Re-inserting after expiry works: the slot is genuinely free again.
  cache.insert(key, make_result("reborn"));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->job.name, "reborn");
}

TEST(DiskCacheTest, TtlZeroNeverExpires) {
  const std::string dir = fresh_dir("ttl_off");
  const CacheKey key = make_key(4, 4, 4);
  DiskCache cache(dir, 1 << 20);  // default ttl_seconds = 0
  std::string error;
  ASSERT_TRUE(cache.open(&error)) << error;
  cache.insert(key, make_result("immortal"));
  backdate_entry(dir + "/" + DiskCache::entry_file_name(key), 365 * 86400);
  EXPECT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().expired, 0u);
}

}  // namespace
}  // namespace mcrt
