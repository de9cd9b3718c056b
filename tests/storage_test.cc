#include <string>

#include "gtest/gtest.h"
#include "common/random.h"
#include "storage/access_stream.h"
#include "storage/cache.h"
#include "trace/trace.h"

namespace swim::storage {
namespace {

trace::JobRecord PathJob(uint64_t id, double submit, const std::string& in,
                         const std::string& out, double in_bytes = 100,
                         double out_bytes = 10) {
  trace::JobRecord job;
  job.job_id = id;
  job.submit_time = submit;
  job.duration = 10;
  job.input_bytes = in_bytes;
  job.output_bytes = out_bytes;
  job.map_tasks = 1;
  job.map_task_seconds = 5;
  job.input_path = in;
  job.output_path = out;
  return job;
}

FileAccess Read(const std::string& path, double bytes, double time = 0) {
  return FileAccess{time, path, bytes, AccessKind::kRead, 0};
}

FileAccess Write(const std::string& path, double bytes, double time = 0) {
  return FileAccess{time, path, bytes, AccessKind::kWrite, 0};
}

// --- Access stream --------------------------------------------------------

TEST(AccessStreamTest, ExtractsReadsAndWritesInTimeOrder) {
  trace::Trace t;
  t.AddJob(PathJob(1, 100, "in/a", "out/1"));
  t.AddJob(PathJob(2, 50, "in/b", ""));
  auto accesses = ExtractAccesses(t);
  ASSERT_EQ(accesses.size(), 3u);
  EXPECT_EQ(accesses[0].path, "in/b");
  EXPECT_EQ(accesses[0].kind, AccessKind::kRead);
  EXPECT_EQ(accesses[1].path, "in/a");
  EXPECT_EQ(accesses[2].path, "out/1");
  EXPECT_EQ(accesses[2].kind, AccessKind::kWrite);
  EXPECT_DOUBLE_EQ(accesses[2].time, 110.0);  // finish time
}

TEST(AccessStreamTest, SkipsEmptyPaths) {
  trace::Trace t;
  t.AddJob(PathJob(1, 0, "", ""));
  EXPECT_TRUE(ExtractAccesses(t).empty());
}

TEST(AccessStreamTest, FileSizesTakeMaxObserved) {
  auto sizes = ComputeFileSizes(
      {Read("a", 100), Read("a", 300), Read("a", 200), Write("b", 50)});
  EXPECT_DOUBLE_EQ(sizes["a"], 300.0);
  EXPECT_DOUBLE_EQ(sizes["b"], 50.0);
}

// --- Caches ----------------------------------------------------------------

TEST(LruCacheTest, HitsOnReaccess) {
  LruCache cache(1000);
  EXPECT_FALSE(cache.Access(Read("a", 100)));
  EXPECT_TRUE(cache.Access(Read("a", 100)));
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.5);
  EXPECT_DOUBLE_EQ(cache.stats().ByteHitRate(), 0.5);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(250);
  cache.Access(Read("a", 100, 1));
  cache.Access(Read("b", 100, 2));
  cache.Access(Read("a", 100, 3));  // refresh a
  cache.Access(Read("c", 100, 4));  // evicts b (LRU)
  EXPECT_TRUE(cache.Access(Read("a", 100, 5)));
  EXPECT_FALSE(cache.Access(Read("b", 100, 6)));
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(FifoCacheTest, EvictsOldestInsertion) {
  FifoCache cache(250);
  cache.Access(Read("a", 100, 1));
  cache.Access(Read("b", 100, 2));
  cache.Access(Read("a", 100, 3));  // hit; FIFO order unchanged
  cache.Access(Read("c", 100, 4));  // evicts a (oldest insertion)
  EXPECT_FALSE(cache.Access(Read("a", 100, 5)));
}

TEST(LfuCacheTest, EvictsLeastFrequent) {
  LfuCache cache(250);
  cache.Access(Read("a", 100, 1));
  cache.Access(Read("a", 100, 2));  // a: freq 2
  cache.Access(Read("b", 100, 3));  // b: freq 1
  cache.Access(Read("c", 100, 4));  // evicts b
  EXPECT_TRUE(cache.Access(Read("a", 100, 5)));
  EXPECT_FALSE(cache.Access(Read("b", 100, 6)));
}

TEST(SizeThresholdCacheTest, RejectsLargeFiles) {
  SizeThresholdLruCache cache(1e9, /*max_file_bytes=*/1000);
  cache.Access(Read("small", 100));
  cache.Access(Read("large", 1e6));
  EXPECT_TRUE(cache.Access(Read("small", 100)));
  EXPECT_FALSE(cache.Access(Read("large", 1e6)));
  EXPECT_GE(cache.stats().admission_rejections, 1u);
}

TEST(UnboundedCacheTest, NeverEvicts) {
  UnboundedCache cache;
  for (int i = 0; i < 1000; ++i) {
    cache.Access(Read("f" + std::to_string(i), 1e9));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(cache.Access(Read("f" + std::to_string(i), 1e9)));
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheTest, WritesWarmTheCache) {
  LruCache cache(1000);
  cache.Access(Write("out/x", 100));
  EXPECT_TRUE(cache.Access(Read("out/x", 100)));
  // The write itself is not counted as a read access.
  EXPECT_EQ(cache.stats().accesses, 1u);
}

TEST(CacheTest, FileLargerThanCapacityRejected) {
  LruCache cache(100);
  EXPECT_FALSE(cache.Access(Read("big", 500)));
  EXPECT_FALSE(cache.Access(Read("big", 500)));  // still a miss
  EXPECT_EQ(cache.resident_files(), 0u);
}

TEST(CacheTest, SizeChangeAdjustsUsage) {
  LruCache cache(1000);
  cache.Access(Write("a", 100));
  EXPECT_DOUBLE_EQ(cache.used_bytes(), 100.0);
  cache.Access(Write("a", 400));
  EXPECT_DOUBLE_EQ(cache.used_bytes(), 400.0);
  EXPECT_EQ(cache.resident_files(), 1u);
}

TEST(CacheTest, ReplayAccessesAccumulates) {
  LruCache cache(1000);
  CacheStats stats = ReplayAccesses(
      {Read("a", 10), Read("a", 10), Read("b", 10), Read("b", 10)}, cache);
  EXPECT_EQ(stats.accesses, 4u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(CacheTest, BoundedNeverBeatsUnbounded) {
  // Property: any bounded policy's hit count <= intrinsic re-access count.
  std::vector<FileAccess> stream;
  Pcg32 rng(5);
  for (int i = 0; i < 2000; ++i) {
    stream.push_back(
        Read("f" + std::to_string(rng.NextBounded(100)), 1000, i));
  }
  UnboundedCache unbounded;
  LruCache lru(20000);
  FifoCache fifo(20000);
  LfuCache lfu(20000);
  uint64_t upper = ReplayAccesses(stream, unbounded).hits;
  EXPECT_LE(ReplayAccesses(stream, lru).hits, upper);
  EXPECT_LE(ReplayAccesses(stream, fifo).hits, upper);
  EXPECT_LE(ReplayAccesses(stream, lfu).hits, upper);
}

}  // namespace
}  // namespace swim::storage
