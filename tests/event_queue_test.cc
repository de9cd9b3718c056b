// Property tests for the replay engine's event queues (sim/event_queue.h):
// the calendar queue and the 4-ary heap are driven with the same event
// streams as a std::priority_queue reference and must produce the exact
// same pop order - including FIFO order within same-timestamp bursts,
// which is what the replay engine's determinism contract hangs on, and
// within runs of pushes that repeat the previous push's time and payload,
// which the calendar queue keeps as one entry.
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "sim/event_queue.h"

namespace swim::sim {
namespace {

struct TestEvent {
  double time = 0.0;
  uint64_t seq = 0;
  uint32_t payload = 0;

  bool SamePayload(const TestEvent& other) const {
    return time == other.time && payload == other.payload;
  }
};

/// The reference order: a std::priority_queue over ascending (time, seq),
/// with its own comparator so it shares no ordering code with the queues
/// under test.
template <typename E>
class HeapEventQueue {
 public:
  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }
  void Push(E event) { queue_.push(std::move(event)); }
  E Pop() {
    E event = queue_.top();
    queue_.pop();
    return event;
  }

 private:
  struct PopsAfter {
    bool operator()(const E& a, const E& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<E, std::vector<E>, PopsAfter> queue_;
};

template <typename Queue>
std::vector<TestEvent> Drain(Queue& queue) {
  std::vector<TestEvent> order;
  order.reserve(queue.size());
  while (!queue.empty()) order.push_back(queue.Pop());
  return order;
}

void ExpectSameOrder(const std::vector<TestEvent>& got,
                     const std::vector<TestEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].seq, want[i].seq) << "divergence at pop " << i;
    ASSERT_EQ(got[i].time, want[i].time) << "divergence at pop " << i;
    ASSERT_EQ(got[i].payload, want[i].payload) << "divergence at pop " << i;
  }
}

/// Replay-shaped stream: the queue is drained in time order while new
/// events land at or after the current simulated time (discrete-event
/// causality), with occasional same-timestamp bursts. With probability
/// `repeat_probability` a push repeats the previous push's time and
/// payload under the next seq (while that time is not in the past), the
/// shape of a saturated replay's one-slot grants; the oracle and the heap
/// see separate events. `coalesced`, when given, receives the calendar
/// queue's count of pushes absorbed into runs.
template <typename MakeTime>
void RunInterleavedAgainstOracle(size_t total_events, uint64_t seed,
                                 MakeTime&& next_time,
                                 double repeat_probability = 0.0,
                                 uint64_t* coalesced = nullptr) {
  Pcg32 rng(seed, /*stream=*/0x0e51);
  HeapEventQueue<TestEvent> oracle;
  CalendarEventQueue<TestEvent> calendar;
  DaryEventHeap<TestEvent> dary;
  uint64_t seq = 0;
  double now = 0.0;
  size_t pushed = 0;
  std::vector<TestEvent> oracle_order, calendar_order, dary_order;
  TestEvent last;
  while (pushed < total_events || !oracle.empty()) {
    bool push = pushed < total_events &&
                (oracle.empty() || rng.NextBernoulli(0.55));
    if (push) {
      TestEvent event;
      if (pushed > 0 && last.time >= now &&
          repeat_probability > 0.0 && rng.NextBernoulli(repeat_probability)) {
        event = {last.time, seq, last.payload};
      } else {
        // Bursts: with probability 1/4 the event reuses the current time
        // exactly, otherwise it lands strictly in the future.
        double time = rng.NextBernoulli(0.25) ? now : next_time(rng, now);
        event = {time, seq, static_cast<uint32_t>(seq * 2654435761u)};
      }
      last = event;
      ++seq;
      ++pushed;
      oracle.Push(event);
      calendar.Push(event);
      dary.Push(event);
    } else {
      ASSERT_EQ(oracle.size(), calendar.size());
      ASSERT_EQ(oracle.size(), dary.size());
      TestEvent expected = oracle.Pop();
      now = expected.time;  // simulated clock advances to the pop
      oracle_order.push_back(expected);
      calendar_order.push_back(calendar.Pop());
      dary_order.push_back(dary.Pop());
    }
  }
  ExpectSameOrder(calendar_order, oracle_order);
  ExpectSameOrder(dary_order, oracle_order);
  if (coalesced != nullptr) *coalesced = calendar.coalesced();
}

TEST(EventQueueTest, HundredThousandRandomEventsMatchOracle) {
  RunInterleavedAgainstOracle(100000, 20120417, [](Pcg32& rng, double now) {
    return now + rng.NextDouble(0.0, 500.0);
  });
}

TEST(EventQueueTest, SameTimestampBurstsPopInFifoOrder) {
  // Heavy bursts: only ~200 distinct timestamps across 100k events, so
  // hundreds of events share each time and FIFO (seq) order carries the
  // whole ordering. Integer-valued times also maximize exact collisions.
  RunInterleavedAgainstOracle(100000, 19880204, [](Pcg32& rng, double now) {
    return now + static_cast<double>(rng.NextInt(1, 3));
  });
}

TEST(EventQueueTest, IdleGapsBetweenClusters) {
  // Clustered arrivals separated by gaps up to a simulated month - the
  // pattern that forces the calendar queue's cursor jump. Also crosses
  // the heap<->calendar migration thresholds repeatedly because the queue
  // drains nearly empty between clusters.
  RunInterleavedAgainstOracle(50000, 6021023, [](Pcg32& rng, double now) {
    if (rng.NextBernoulli(0.01)) {
      return now + rng.NextDouble(1e5, 30.0 * 86400.0);  // gap
    }
    return now + rng.NextDouble(0.0, 60.0);  // cluster
  });
}

TEST(EventQueueTest, RepeatedPushesMatchOracle) {
  // Most pushes repeat the previous one, so runs grow long, are popped
  // part way, closed by a different push and filed amid other events of
  // their bucket, and carried across ring rebuilds.
  uint64_t coalesced = 0;
  RunInterleavedAgainstOracle(
      100000, 20120418,
      [](Pcg32& rng, double now) { return now + rng.NextDouble(0.0, 500.0); },
      /*repeat_probability=*/0.7, &coalesced);
  EXPECT_GT(coalesced, 30000u);
}

TEST(EventQueueTest, RepeatedPushesWithinSameTimestampBursts) {
  // Runs among ~200 distinct integer timestamps: a run's time is shared
  // by many other events, so only the seqs order them.
  uint64_t coalesced = 0;
  RunInterleavedAgainstOracle(
      100000, 19880205,
      [](Pcg32& rng, double now) {
        return now + static_cast<double>(rng.NextInt(1, 3));
      },
      /*repeat_probability=*/0.5, &coalesced);
  EXPECT_GT(coalesced, 10000u);
}

TEST(EventQueueTest, RepeatedPushesAcrossIdleGaps) {
  uint64_t coalesced = 0;
  RunInterleavedAgainstOracle(
      50000, 6021024,
      [](Pcg32& rng, double now) {
        if (rng.NextBernoulli(0.01)) {
          return now + rng.NextDouble(1e5, 30.0 * 86400.0);
        }
        return now + rng.NextDouble(0.0, 60.0);
      },
      /*repeat_probability=*/0.6, &coalesced);
  EXPECT_GT(coalesced, 5000u);
}

TEST(EventQueueTest, MonotonePushThenFullDrain) {
  // Everything pushed up front in (time, seq) order, then drained: the
  // calendar ring is sized once for the whole span.
  HeapEventQueue<TestEvent> oracle;
  CalendarEventQueue<TestEvent> calendar;
  Pcg32 rng(404, /*stream=*/0x0e52);
  double time = 0.0;
  for (uint64_t i = 0; i < 20000; ++i) {
    time += rng.NextDouble(0.0, 10.0);
    TestEvent event{time, i, static_cast<uint32_t>(i)};
    oracle.Push(event);
    calendar.Push(event);
  }
  std::vector<TestEvent> oracle_order = Drain(oracle);
  std::vector<TestEvent> calendar_order = Drain(calendar);
  ExpectSameOrder(calendar_order, oracle_order);
}

/// Push/pop around the heap<->calendar hysteresis thresholds. With
/// probability `repeat_probability` a push repeats the previous push's
/// time and payload (while that time is not in the past), so runs are
/// stored in the heap, moved into the ring and back, and popped part way
/// on either side of a switch.
void RunAcrossModeBoundary(uint64_t seed, double repeat_probability) {
  HeapEventQueue<TestEvent> oracle;
  CalendarEventQueue<TestEvent> calendar;
  Pcg32 rng(seed, /*stream=*/0x0e53);
  uint64_t seq = 0;
  double now = 0.0;
  TestEvent last;
  for (int round = 0; round < 200; ++round) {
    size_t burst = static_cast<size_t>(rng.NextInt(1, 150));  // straddles 48/96
    for (size_t i = 0; i < burst; ++i) {
      TestEvent event{now + rng.NextDouble(0.0, 100.0), seq,
                      static_cast<uint32_t>(seq)};
      if (seq > 0 && last.time >= now && rng.NextBernoulli(repeat_probability)) {
        event = {last.time, seq, last.payload};
      }
      last = event;
      ++seq;
      oracle.Push(event);
      calendar.Push(event);
    }
    size_t pops = static_cast<size_t>(
        rng.NextInt(1, static_cast<int64_t>(burst)));
    for (size_t i = 0; i < pops && !oracle.empty(); ++i) {
      ASSERT_EQ(calendar.size(), oracle.size());
      TestEvent expected = oracle.Pop();
      TestEvent got = calendar.Pop();
      ASSERT_EQ(got.seq, expected.seq);
      ASSERT_EQ(got.time, expected.time);
      ASSERT_EQ(got.payload, expected.payload);
      now = expected.time;
    }
  }
  std::vector<TestEvent> oracle_order = Drain(oracle);
  std::vector<TestEvent> calendar_order = Drain(calendar);
  ExpectSameOrder(calendar_order, oracle_order);
  if (repeat_probability > 0.0) {
    EXPECT_GT(calendar.coalesced(), 0u);
  }
}

TEST(EventQueueTest, TinyQueueStaysCorrectAcrossModeBoundary) {
  RunAcrossModeBoundary(7, /*repeat_probability=*/0.0);
  RunAcrossModeBoundary(8, /*repeat_probability=*/0.5);
  RunAcrossModeBoundary(9, /*repeat_probability=*/0.9);
}

TEST(EventQueueTest, RunSplitByPopsKeepsItsPlaceInABucket) {
  // A run filed in the middle of a bucket, between events of the same
  // time with lower and higher seqs, then popped one event at a time
  // while pushes that do not continue it land around it.
  HeapEventQueue<TestEvent> oracle;
  CalendarEventQueue<TestEvent> calendar;
  uint64_t seq = 0;
  auto push = [&](double time, uint32_t payload) {
    TestEvent event{time, seq++, payload};
    oracle.Push(event);
    calendar.Push(event);
  };
  for (int i = 0; i < 300; ++i) push(static_cast<double>(i % 100), 1);
  for (int i = 0; i < 40; ++i) push(50.0, 7);  // one run of 40
  for (int i = 0; i < 300; ++i) push(static_cast<double>(i % 100), 2);
  EXPECT_EQ(calendar.coalesced(), 39u);
  // 300 events before time 50, then the 3 ahead of the run and 17 of its
  // 40 events.
  for (int i = 0; i < 320; ++i) {
    TestEvent expected = oracle.Pop();
    ASSERT_EQ(calendar.Pop().seq, expected.seq) << "pop " << i;
  }
  ASSERT_EQ(oracle.size(), calendar.size());
  // The clock is at 50 and the run is part way popped: push more events
  // at 50 (a new run of a different payload) and later.
  for (int i = 0; i < 30; ++i) push(50.0, 9);
  for (int i = 0; i < 500; ++i) push(50.0 + static_cast<double>(i), 3);
  ExpectSameOrder(Drain(calendar), Drain(oracle));
}

}  // namespace
}  // namespace swim::sim
